"""The wallet smart contract as a deterministic state machine.

Every public method either applies its full effect or raises Revert with a
category. The ledger runs each call on a `snapshot()` of the contract and
keeps the untouched original for revert, so effects are atomic; blocks
share a contract object until a transaction in a later block addresses it.

A snapshot copies only the contract's attribute dict, because a call
writes no container in place: it rebinds every container it changes.
Stages 1 and 2 set L1 or L2 to a new, longer list; opening a subtree (by
`next_subtree` or a root replacement) installs a new `SubtreeLayer` over
the call's nodes, which the contract never writes and shares with the
call that brought them; and `init_op` and `confirm_op` set `operations`
to a new `Operations`.

`Operations` is persistent: an immutable tuple of chunks of at most
`CHUNK` records in id order, none of which is ever changed. A write
copies the one chunk it writes and the tuple, and shares every other
chunk, so an operation costs the same at any op id, as a record's storage
words do in the paper's contract. `init_op` appends at `nextOpID` to the
last chunk, or starts a new one when it is full, without searching older
chunks; `confirm_op` finds its record's chunk by bisecting the chunks'
last ids. A chunk renders its `state_lines` text on first use and keeps
it, so `state_lines` renders only the chunks written since.
`from_state_lines` parses only the current subtree's `op` lines, into
chunks that keep their text, and keeps the older `op` lines as one chunk
of text, parsed when a record in it is read.

Every public method takes the call's ChainEnv last. Token balances live in
the ledger's account map; the contract reads and moves them through it.
Primitive usage (hashes, storage words, signature checks) is counted into
the env's CallTrace for the cost model as the call runs, so a call that
reverts keeps the count of the work it did. Hashes are counted in one
place: the contract hashes only through `CallTrace.base`, which it passes
as the `base` of every hashing function it calls.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
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

CHUNK = 64                # operation records per chunk of `Operations`


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


class _Chunk:
    """Up to `CHUNK` operation records in id order, or all the records
    below the current subtree of a restored contract, that no call changes:
    held as records, as their `state_lines` lines, or both; the missing
    form is derived from the other on first use and kept."""

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

    def last(self) -> int:
        """The highest id held, read without a parse."""
        if self._records is None:
            return _op_id(self._lines[-1])
        return next(reversed(self._records))

    def __len__(self) -> int:
        return len(self._lines if self._records is None else self._records)


class Operations(Mapping):
    """A contract's operation records by id: an immutable tuple of chunks
    in id order. `put` returns a new Operations that shares every chunk but
    the one it writes, so a snapshot shares it whole."""

    __slots__ = ("_chunks",)

    def __init__(self, chunks: tuple[_Chunk, ...] = ()):
        self._chunks = chunks

    def _find(self, op_id: int) -> int:
        """The index of the chunk that holds `op_id`, if one does; the
        count of chunks for an id above every id held, found without a
        search."""
        chunks = self._chunks
        if not chunks or op_id > chunks[-1].last():
            return len(chunks)
        return bisect_left(chunks, op_id, key=_Chunk.last)

    def __getitem__(self, op_id: int) -> OperationRecord:
        i = self._find(op_id)
        if i == len(self._chunks):
            raise KeyError(op_id)
        return self._chunks[i].records()[op_id]

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(map(_Chunk.records, self._chunks))

    def __len__(self) -> int:
        return sum(map(len, self._chunks))

    def lines(self) -> list[str]:
        """Every record's `state_lines` line, in id order; only the chunks
        written since they were last rendered are rendered here."""
        return list(chain.from_iterable(map(_Chunk.lines, self._chunks)))

    def put(self, op_id: int, record: OperationRecord) -> "Operations":
        """These records with `record` at `op_id`, an id held or one above
        every id held; a new id goes into the last chunk until it holds
        `CHUNK` records."""
        chunks, i = self._chunks, self._find(op_id)
        if 0 < i == len(chunks) and len(chunks[-1]) < CHUNK:
            i -= 1
        records = chunks[i].records() if i < len(chunks) else {}
        return Operations(chunks[:i] + (_Chunk({**records, op_id: record}),)
                          + chunks[i + 1:])


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
        self.sublayer = cache_sublayer
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
        """A copy that a call can change without touching this contract:
        only the attribute dict is copied. A call rebinds every container
        it changes (the operation records, L1, L2 and the sublayer) to a
        new object instead of writing it, so all of them are shared, as are
        digests, keys, parameters and scalars."""
        twin = WalletContract.__new__(WalletContract)
        twin.__dict__.update(self.__dict__)
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
        self.operations = self.operations.put(
            op_id, OperationRecord(addr, param, True, op_type))
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
        self.operations = self.operations.put(op_id, OperationRecord(
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
        self._open_next_subtree(next_sublayer)
        trace.sstore_update += 3 + len(self.sublayer.nodes)

    def _open_next_subtree(self, sublayer: SubtreeLayer) -> None:
        """Spend the slot of this call (a subtree introduction or a root
        replacement) and open the subtree at `nextOpID` from layer 1, over
        the given sublayer's nodes."""
        self.next_op_id += 1
        self.current_subtree = self.next_op_id // self.params.N_S
        self.current_layer = 1
        self.sublayer = SubtreeLayer(sublayer.nodes, self.current_subtree)

    # -- parent-root replacement ---------------------------------------------------

    def _root_phase(self):
        if self.next_op_id % self.params.N != self.params.N - 1:
            raise Revert("phase", "not at the last operation of the parent tree")

    def _append_signed(self, entries: list[Digest], value: Digest,
                       env: ChainEnv) -> list[Digest]:
        """The body of stages 1 and 2: an owner-signed append to L1 or L2,
        returned as a new list."""
        self._alive()
        self._check_sig(env)
        env.trace.sload += 1
        self._root_phase()
        env.trace.sstore_new += 1
        return entries + [value]

    def new_root_stage1(self, h_root_and_otp: Digest, env: ChainEnv) -> None:
        self.l1 = self._append_signed(self.l1, h_root_and_otp, env)

    def new_root_stage2(self, new_root: Digest, env: ChainEnv) -> None:
        self.l2 = self._append_signed(self.l2, new_root, env)

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
        for new_root in self.l2:
            if truncated_hash(new_root + otp, self.params.digest_bytes,
                              trace.base) in self.l1:
                break
        else:
            return False
        if not _sublayer_under(new_sublayer, proof_sr, new_root, trace.base):
            raise Revert("consistency", "new sublayer does not match the new root")
        self.root = new_root
        self._open_next_subtree(new_sublayer)
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
        subtree, at most `N_S` lines because the lines are sorted by id,
        into chunks of `CHUNK` that keep their lines too; the older `op`
        lines become one chunk of text, kept as they are and parsed only
        when a record in it is read."""
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
        chunks = [_Chunk(lines=lines[start:end])] if end > start else []
        for i in range(end, len(lines), CHUNK):
            tail = lines[i:i + CHUNK]
            chunks.append(_Chunk(dict(map(_parse_op, tail)), tail))
        wallet.operations = Operations(tuple(chunks))
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
