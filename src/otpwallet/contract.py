"""The wallet smart contract as a deterministic state machine.

Every public method either applies its full effect or raises Revert with a
category. The ledger runs each call on a `snapshot()` of the contract and
keeps the untouched original for revert, so effects are atomic; blocks
share a contract object until a transaction in a later block addresses it.

Only the current subtree's operation records can change: `init_op` writes
at `nextOpID`, and `confirm_op` refuses an operation of any other subtree.
So `operations` keeps each finished subtree's records in a sealed chunk,
which no call changes again and every snapshot shares, and the current
subtree's records in one open dict of at most `N_S` entries, the only
container of records a snapshot copies. `next_subtree` and a root
replacement seal the open dict. A sealed chunk renders its `state_lines`
text on first use and keeps it, so `state_lines` renders only the open
records; `from_state_lines` parses only those and keeps the older `op`
lines as one sealed chunk of text, parsed when a record in it is read.

Every public method takes the call's ChainEnv last. Token balances live in
the ledger's account map; the contract reads and moves them through it.
Primitive usage (hashes, storage words, signature checks) is counted into
the env's CallTrace for the cost model as the call runs, so a call that
reverts keeps the count of the work it did. Hashes are counted in one
place: the contract hashes only through `CallTrace.base`, which it passes
as the `base` of every hashing function it calls.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable

from .hashing import DEFAULT_BASE_HASH, Digest, HashFn, truncated_hash
from .merkle import (
    MerkleProof,
    SubtreeLayer,
    TreeParams,
    derive_node_in_cache,
    derive_root_hash,
    expected_idx_in_cache,
    layer_of,
    reduce_mt,
    subtree_consistency,
)
from . import signing

SECONDS_PER_DAY = 86400

# Storage-word accounting (one word per digest at S <= 256; scalars 1 word).
BASE_STATE_WORDS = 8      # root, pk, nextOpID, layer/subtree, limits, last resort
OP_RECORD_WORDS = 3       # addr, param, type+pending


class Revert(Exception):
    """A failed contract assertion; the category names the failed check."""

    def __init__(self, category: str, detail: str = ""):
        self.category = category
        super().__init__(f"{category}: {detail}" if detail else category)


class OpType(Enum):
    TRANSFER = "transfer"
    SET_DAILY_LIMIT = "daily-limit"
    SET_LAST_RESORT_TIMEOUT = "lr-timeout"
    SET_LAST_RESORT_ADDRESS = "lr-address"


# Value -> member: a lookup here costs a tenth of `OpType(value)`.
OP_TYPES = {t.value: t for t in OpType}
# Member -> value, as plain text: cheaper to read than the `value` property.
OP_TEXT = {t: t.value for t in OpType}


@dataclass(frozen=True)
class OperationRecord:
    addr: str
    param: int
    pending: bool
    type: OpType


def _op_line(op_id: int, rec: OperationRecord) -> str:
    """A record's `state_lines` line."""
    return (f"op{op_id}={OP_TEXT[rec.type]},{rec.addr},{rec.param},"
            f"{int(rec.pending)}")


def _op_id(line: str) -> int | None:
    """The id of an `op` state line, or None for any other line."""
    if type(line) is not str:
        raise ValueError(f"a state line is not text: {line!r}")
    key = line.partition("=")[0]
    return int(key[2:]) if key.startswith("op") and key[2:].isdigit() else None


def _parse_op(line: str) -> tuple[int, OperationRecord]:
    """The id and record that `_op_line` wrote."""
    key, _, value = line.partition("=")
    op_type, rest = value.split(",", 1)
    addr, param, pending = rest.rsplit(",", 2)
    return int(key[2:]), OperationRecord(addr, int(param), pending == "1",
                                         OP_TYPES[op_type])


class _Sealed:
    """Operation records that no call changes again, held as records, as
    their `state_lines` lines in id order, or both: the missing form is
    derived from the other on first use and kept."""

    __slots__ = ("_records", "_lines")

    def __init__(self, records: dict[int, OperationRecord] | None = None,
                 lines: list[str] | None = None):
        self._records, self._lines = records, lines

    def records(self) -> dict[int, OperationRecord]:
        if self._records is None:
            self._records = dict(map(_parse_op, self._lines))
        return self._records

    def lines(self) -> list[str]:
        if self._lines is None:
            self._lines = [_op_line(op_id, self._records[op_id])
                           for op_id in sorted(self._records)]
        return self._lines

    def __len__(self) -> int:
        return len(self._lines if self._records is None else self._records)


class Operations(Mapping):
    """A contract's operation records by id, read-only: a tuple of sealed
    chunks, one per finished subtree (or one for all the subtrees before a
    restore), that every snapshot shares, then the open dict of the current
    subtree's records, which a snapshot copies. Only the contract writes,
    through `_put` and `_seal`."""

    __slots__ = ("_sealed", "_open")

    def __init__(self, sealed: tuple[_Sealed, ...] = (),
                 open_records: dict[int, OperationRecord] | None = None):
        self._sealed = sealed
        self._open = {} if open_records is None else open_records

    @property
    def open(self) -> Mapping[int, OperationRecord]:
        """The current subtree's records."""
        return MappingProxyType(self._open)

    def copy(self) -> "Operations":
        return Operations(self._sealed, dict(self._open))

    def get(self, op_id: int, default=None):
        record = self._open.get(op_id)
        if record is not None:
            return record
        for chunk in self._sealed:
            record = chunk.records().get(op_id)
            if record is not None:
                return record
        return default

    def __getitem__(self, op_id: int) -> OperationRecord:
        record = self.get(op_id)
        if record is None:
            raise KeyError(op_id)
        return record

    def __iter__(self) -> Iterator[int]:
        for chunk in self._sealed:
            yield from chunk.records()
        yield from self._open

    def __len__(self) -> int:
        return sum(map(len, self._sealed)) + len(self._open)

    def lines(self) -> list[str]:
        """Every record's `state_lines` line, in id order; only the open
        records are rendered here."""
        lines = []
        for chunk in self._sealed:
            lines += chunk.lines()
        lines += [_op_line(op_id, self._open[op_id])
                  for op_id in sorted(self._open)]
        return lines

    def _put(self, op_id: int, record: OperationRecord) -> None:
        self._open[op_id] = record

    def _seal(self) -> None:
        """Seal the open records; the next subtree starts with none."""
        if self._open:
            self._sealed += (_Sealed(records=self._open),)
            self._open = {}


@dataclass
class CallTrace:
    call: str = ""
    payload_bytes: int = 0
    hashes: int = 0
    sload: int = 0
    sstore_new: int = 0
    sstore_update: int = 0
    sig_verifies: int = 0

    def base(self, data: bytes) -> bytes:
        """The default base hash, counted: the `HashFn` of a contract call."""
        self.hashes += 1
        return DEFAULT_BASE_HASH(data)


@dataclass
class ChainEnv:
    """What the platform exposes to a contract call: the block time,
    balance reads and transfers, the call's signed bytes and signature, the
    platform's signature check, `verify(public, message, signature)`, and
    the meter the call's work is counted into, as a gas meter would be. A
    ledger passes its verified-signature memo as `verify` and the trace its
    receipt keeps."""

    timestamp: int
    balance_of: Callable[[str], int]
    transfer: Callable[[str, str, int], None]
    tx_signing_bytes: bytes = b""
    tx_signature: bytes | None = None
    verify: Callable[[bytes, bytes, bytes], bool] = signing.verify
    trace: CallTrace = field(default_factory=CallTrace)


def _sublayer_under(sublayer: SubtreeLayer, proof_sr: MerkleProof,
                    root: Digest, base: HashFn) -> bool:
    """Whether the sublayer reduces to a subtree root that `proof_sr` folds
    up to `root`; False also when a node or sibling is not a digest."""
    try:
        sub_root = reduce_mt(sublayer.nodes, base)
        return subtree_consistency(sub_root, proof_sr, root, base)
    except ValueError:
        return False


class WalletContract:
    def __init__(self, root: Digest, pk: bytes, cache_sublayer: SubtreeLayer,
                 proof_sr: MerkleProof, params: TreeParams, env: ChainEnv):
        trace = env.trace
        if len(cache_sublayer.nodes) != 2 ** params.L_S:
            raise Revert("consistency", "cached sublayer has the wrong size")
        if not _sublayer_under(cache_sublayer, proof_sr, root, trace.base):
            raise Revert("consistency", "cached sublayer does not match the root")

        self.params = params
        self.root = root
        self.pk = pk
        self.owner_account = signing.account_of(pk)
        self.contract_id = truncated_hash(pk + root, params.digest_bytes,
                                          trace.base).hex()
        self.next_op_id = 0
        self.operations = Operations()
        self.sublayer = cache_sublayer.copy()
        self.current_subtree = 0          # absolute floor(opID / N_S)
        self.current_layer = 1            # sliding-window watermark
        self.l1: list[Digest] = []
        self.l2: list[Digest] = []
        self.daily_limit = 0              # 0 = unlimited
        self.spent_today = 0
        self.day_index = env.timestamp // SECONDS_PER_DAY
        self.last_resort_addr = ""
        self.last_resort_timeout = 0
        self.last_activity = env.timestamp
        self.destroyed = False
        trace.sstore_new += BASE_STATE_WORDS + len(self.sublayer.nodes)

    def snapshot(self) -> "WalletContract":
        """A copy that a call can change without touching this contract.

        Only the mutable containers are copied: the open subtree's records
        (at most `N_S`; the records themselves are frozen), L1, L2 and the
        cached sublayer. The sealed chunks of finished subtrees, digests,
        keys, parameters and scalars are shared.
        """
        twin = WalletContract.__new__(WalletContract)
        twin.__dict__.update(self.__dict__)
        twin.operations = self.operations.copy()
        twin.l1, twin.l2 = list(self.l1), list(self.l2)
        twin.sublayer = self.sublayer.copy()
        return twin

    # -- helpers -------------------------------------------------------------

    def _alive(self):
        if self.destroyed:
            raise Revert("destroyed", "wallet was emptied to the last resort")

    def _check_sig(self, env: ChainEnv):
        trace = env.trace
        trace.sig_verifies += 1
        trace.sload += 1                            # pk
        if type(env.tx_signature) is not bytes or not env.verify(
                self.pk, env.tx_signing_bytes, env.tx_signature):
            raise Revert("signature", "owner signature required")

    def balance(self, env: ChainEnv) -> int:
        return env.balance_of(self.contract_id)

    # -- first stage of an operation ------------------------------------------

    def init_op(self, addr: str, param: int, op_type: OpType,
                env: ChainEnv) -> int:
        trace = env.trace
        self._alive()
        self._check_sig(env)
        trace.sload += 1                            # nextOpID
        if self.next_op_id % self.params.N_S == self.params.N_S - 1:
            raise Revert("phase", "slot reserved for the next subtree or root")
        if param < 0:
            raise Revert("funds", "negative parameter")
        if op_type is OpType.SET_LAST_RESORT_ADDRESS and addr == self.owner_account:
            raise Revert("owner-address",
                         "last resort must differ from the owner account")
        op_id = self.next_op_id
        self.next_op_id += 1
        self.operations._put(op_id, OperationRecord(addr, param, True, op_type))
        trace.sstore_new += OP_RECORD_WORDS
        trace.sstore_update += 1                    # nextOpID
        return op_id

    # -- second stage ----------------------------------------------------------

    def confirm_op(self, otp: Digest, proof: MerkleProof, op_id: int,
                   env: ChainEnv) -> None:
        trace = env.trace
        self._alive()
        record = self.operations.get(op_id)
        trace.sload += 2                            # operation record
        if record is None or not record.pending:
            raise Revert("pending", f"operation {op_id} is not pending")
        trace.sload += 2                            # currentSubtree, currentLayer
        if op_id // self.params.N_S != self.current_subtree:
            raise Revert("subtree", f"operation {op_id} is not in the current subtree")
        layer = layer_of(op_id, self.params)
        if layer < self.current_layer:
            raise Revert("layer", f"iteration layer {layer} is already invalidated")
        self._verify_otp_cached(otp, proof, op_id, trace)
        self._exec(record, env)
        self.operations._put(op_id, OperationRecord(
            record.addr, record.param, False, record.type))
        self.current_layer = layer
        self.last_activity = env.timestamp
        trace.sstore_update += 3                    # pending, layer, lastActivity

    def _verify_otp_cached(self, otp: Digest, proof: MerkleProof, op_id: int,
                           trace: CallTrace) -> None:
        try:
            node = derive_node_in_cache(otp, proof, op_id, self.params,
                                        trace.base)
        except ValueError as exc:
            raise Revert("otp", str(exc)) from exc
        slot = expected_idx_in_cache(op_id % self.params.subtree_leaves,
                                     self.params)
        trace.sload += 1                            # cached node
        if node != self.sublayer.nodes[slot]:
            raise Revert("otp", "reconstructed node does not match the cache")

    def _exec(self, record: OperationRecord, env: ChainEnv) -> None:
        trace = env.trace
        trace.sload += 1                            # dailyLimit
        if record.type is OpType.TRANSFER:
            trace.sload += 1                        # balance
            if record.param > self.balance(env):
                raise Revert("funds", "transfer exceeds the balance")
            day = env.timestamp // SECONDS_PER_DAY
            if day != self.day_index:
                self.day_index = day
                self.spent_today = 0
            if self.daily_limit > 0:
                if self.spent_today + record.param > self.daily_limit:
                    raise Revert("daily-limit", "daily allowance exceeded")
                self.spent_today += record.param
                trace.sstore_update += 1
            env.transfer(self.contract_id, record.addr, record.param)
            trace.sstore_update += 2                # both balances
        elif record.type is OpType.SET_DAILY_LIMIT:
            self.daily_limit = record.param
            trace.sstore_update += 1
        elif record.type is OpType.SET_LAST_RESORT_TIMEOUT:
            self.last_resort_timeout = record.param
            trace.sstore_update += 1
        elif record.type is OpType.SET_LAST_RESORT_ADDRESS:
            self.last_resort_addr = record.addr
            trace.sstore_update += 1

    # -- subtree introduction ----------------------------------------------------

    def next_subtree(self, next_sublayer: SubtreeLayer, otp: Digest,
                     proof_otp: MerkleProof, proof_sr: MerkleProof,
                     env: ChainEnv) -> None:
        trace = env.trace
        self._alive()
        trace.sload += 1                            # nextOpID
        if self.next_op_id % self.params.N == self.params.N - 1:
            raise Revert("phase", "last slot of the parent tree; rotate the root")
        if self.next_op_id % self.params.N_S != self.params.N_S - 1:
            raise Revert("phase", "not at a subtree boundary")
        if len(next_sublayer.nodes) != len(self.sublayer.nodes):
            raise Revert("consistency", "sublayer size mismatch")
        try:
            derived = derive_root_hash(otp, proof_otp, self.next_op_id,
                                       self.params, trace.base)
        except ValueError as exc:
            raise Revert("otp", str(exc)) from exc
        trace.sload += 1                            # root
        if derived != self.root:
            raise Revert("otp", "OTP does not verify against the parent root")
        if not _sublayer_under(next_sublayer, proof_sr, self.root, trace.base):
            raise Revert("consistency", "new sublayer does not match the root")
        self.operations._seal()
        self.sublayer = next_sublayer.copy()
        self.current_subtree += 1
        self.sublayer.index = self.current_subtree
        self.next_op_id += 1                        # accounts for the introduction
        self.current_layer = 1
        trace.sstore_update += 3 + len(self.sublayer.nodes)

    # -- parent-root replacement ---------------------------------------------------

    def _root_phase(self):
        if self.next_op_id % self.params.N != self.params.N - 1:
            raise Revert("phase", "not at the last operation of the parent tree")

    def _append_signed(self, entries: list[Digest], value: Digest,
                       env: ChainEnv) -> None:
        """The body of stages 1 and 2: an owner-signed append to L1 or L2."""
        self._alive()
        self._check_sig(env)
        env.trace.sload += 1
        self._root_phase()
        entries.append(value)
        env.trace.sstore_new += 1

    def new_root_stage1(self, h_root_and_otp: Digest, env: ChainEnv) -> None:
        self._append_signed(self.l1, h_root_and_otp, env)

    def new_root_stage2(self, new_root: Digest, env: ChainEnv) -> None:
        self._append_signed(self.l2, new_root, env)

    def new_root_stage3(self, otp: Digest, proof: MerkleProof,
                        new_sublayer: SubtreeLayer, proof_sr: MerkleProof,
                        env: ChainEnv) -> bool:
        """Install the first (L2, L1) pair matching the revealed OTP.

        Returns True when the root was replaced. An over-long list pair is
        dropped without an update (the gas-depletion guard); a missing
        match leaves the lists for a later attempt. Both are non-reverting.
        """
        trace = env.trace
        self._alive()
        trace.sload += 1
        self._root_phase()
        self._verify_otp_cached(otp, proof, self.next_op_id, trace)
        if len(self.l1) > self.params.LEN_MAX or len(self.l2) > self.params.LEN_MAX:
            self.l1, self.l2 = [], []
            trace.sstore_update += 2
            return False
        match = None
        for i, candidate_root in enumerate(self.l2):
            probe = truncated_hash(candidate_root + otp,
                                   self.params.digest_bytes, trace.base)
            for j, entry in enumerate(self.l1):
                if probe == entry:
                    match = (i, j)
                    break
            if match:
                break
        if match is None:
            return False
        new_root = self.l2[match[0]]
        if not _sublayer_under(new_sublayer, proof_sr, new_root, trace.base):
            raise Revert("consistency", "new sublayer does not match the new root")
        self.operations._seal()
        self.root = new_root
        self.next_op_id += 1
        self.current_subtree = self.next_op_id // self.params.N_S
        self.current_layer = 1
        self.sublayer = new_sublayer.copy()
        self.sublayer.index = self.current_subtree
        self.l1, self.l2 = [], []
        trace.sstore_update += 6 + len(self.sublayer.nodes)
        return True

    # -- escape hatch ------------------------------------------------------------

    def send_to_last_resort(self, env: ChainEnv) -> int:
        trace = env.trace
        self._alive()
        trace.sload += 3
        if self.last_resort_timeout <= 0 or not self.last_resort_addr:
            raise Revert("timeout", "last resort is not configured")
        if env.timestamp - self.last_activity <= self.last_resort_timeout:
            raise Revert("timeout", "inactivity timeout has not elapsed")
        amount = self.balance(env)
        env.transfer(self.contract_id, self.last_resort_addr, amount)
        self.destroyed = True
        trace.sstore_update += 3
        return amount

    # -- canonical serialization ----------------------------------------------------

    def state_lines(self) -> list[str]:
        return [
            f"contractId={self.contract_id}",
            f"root={self.root.hex()}",
            f"pk={self.pk.hex()}",
            f"nextOpID={self.next_op_id}",
            f"currentSubtree={self.current_subtree}",
            f"currentLayer={self.current_layer}",
            f"dailyLimit={self.daily_limit}",
            f"spentToday={self.spent_today}",
            f"dayIndex={self.day_index}",
            f"lastResortAddr={self.last_resort_addr}",
            f"lastResortTimeout={self.last_resort_timeout}",
            f"lastActivity={self.last_activity}",
            f"destroyed={int(self.destroyed)}",
            f"sublayerIndex={self.sublayer.index}",
            "sublayer=" + ",".join(n.hex() for n in self.sublayer.nodes),
            "L1=" + ",".join(d.hex() for d in self.l1),
            "L2=" + ",".join(d.hex() for d in self.l2),
            *self.operations.lines(),
        ]

    @classmethod
    def from_state_lines(cls, lines: list[str],
                         params: TreeParams) -> "WalletContract":
        """The contract that `state_lines` describes; the inverse of it for
        the given parameters (they are not in the lines). It parses the
        header and the tail of `op` lines whose id is in the current
        subtree, at most `N_S` lines because the lines are sorted by id;
        the older `op` lines become one sealed chunk of text, kept as they
        are and parsed only when a record in it is read."""
        fields, start = {}, len(lines)
        for i, line in enumerate(lines):
            if _op_id(line) is not None:
                start = i
                break
            key, _, value = line.partition("=")
            fields[key] = value
        floor, end = int(fields["currentSubtree"]) * params.N_S, len(lines)
        while end > start:
            op_id = _op_id(lines[end - 1])
            if op_id is None:
                raise ValueError(f"not an operation: {lines[end - 1]!r}")
            if op_id < floor:
                break
            end -= 1

        def digests(key: str) -> list[Digest]:
            return [bytes.fromhex(d) for d in fields[key].split(",") if d]

        wallet = cls.__new__(cls)
        wallet.params = params
        wallet.contract_id = fields["contractId"]
        wallet.root = bytes.fromhex(fields["root"])
        wallet.pk = bytes.fromhex(fields["pk"])
        wallet.owner_account = signing.account_of(wallet.pk)
        wallet.next_op_id = int(fields["nextOpID"])
        wallet.operations = Operations(
            (_Sealed(lines=lines[start:end]),) if end > start else (),
            dict(map(_parse_op, lines[end:])))
        wallet.sublayer = SubtreeLayer(digests("sublayer"),
                                       int(fields["sublayerIndex"]))
        wallet.current_subtree = int(fields["currentSubtree"])
        wallet.current_layer = int(fields["currentLayer"])
        wallet.l1, wallet.l2 = digests("L1"), digests("L2")
        wallet.daily_limit = int(fields["dailyLimit"])
        wallet.spent_today = int(fields["spentToday"])
        wallet.day_index = int(fields["dayIndex"])
        wallet.last_resort_addr = fields["lastResortAddr"]
        wallet.last_resort_timeout = int(fields["lastResortTimeout"])
        wallet.last_activity = int(fields["lastActivity"])
        wallet.destroyed = fields["destroyed"] == "1"
        return wallet
