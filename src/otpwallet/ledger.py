"""A simulated blockchain: mempool, fee-ordered blocks, forks, adversary hooks.

The simulator advances only by explicit mine_block calls, so every run is a
pure function of the submission order, fees, timestamp deltas, and the
fork/reorg schedule. Forks clone a chain prefix, and a reorg promotes a
strictly longer branch, returning orphaned transactions to the mempool.

Block states share structure, and each copy is made by the step that
writes it. An empty block shares its parent's state object whole. Any
other block starts from a copy of its parent's nonce map and the parent's
account and contract maps themselves. A call copies the account map when
it moves tokens, and the contract map when it deploys a contract or calls
one; a call to a contract runs on a `WalletContract.snapshot()` of it,
which replaces the shared object in the call's copy of the map only. On
revert the pre-call maps come back untouched. No block's state is ever
mutated after the block is mined. That holds only while head state
changes by executing transactions alone: mutating the head's maps, or a
contract reached through `Ledger.contract(cid)`, directly would leak into
older blocks that share them. The same rule lets `copy` share every
block, and every submitted transaction, with the ledger it copies.

Each branch keeps a txid -> height index, filled as blocks are mined and
copied up to the fork point by `fork`, so confirmation queries do not scan
the chain. A restored ledger's index holds the kept txids and those mined
since the restore, until the chain below the base is read.

Fees order inclusion (the lever a front-running adversary pulls) but are
never debited, so the sum of all account balances is conserved exactly.

A call's schema is its function name, the contract for a contract call,
and its CALL_ARGS keys, each with one type. A call has one encoding,
`encode_call`: JSON-ready data with sorted keys and a typed codec per
argument. A transaction's signed bytes are the compact JSON text of
[sender, nonce, fee, encoded call], and its txid hashes them, so the
owner's signature and the txid cover the fee. `submit` reads the txid
before it changes anything, so it refuses with `LedgerError` a call that
has no encoding: no or an unknown function name, a key missing or outside
the schema, or a value of another type. Execution therefore checks no
argument.

Receipts are immutable after mining: no code changes a mined block's
receipts, their transactions or those transactions' calls. Three caches
rely on it. A `Transaction` builds its signed bytes and its txid once, a
`Block` its digest on first use, and the ledger remembers each (public
key, signed bytes, signature) triple that verified on it. A block's entry
is not kept: its digest hashes it once. The contract's signature check,
the re-execution of an orphaned transaction after a reorg and
`audit_signatures` all go through that memo, so each signature is verified
once per ledger. It is exact: a verify is a pure function of the whole
triple, so any changed byte misses, and a failed verify is never stored.
`from_checkpoint` starts it empty, so the signatures of the chain read
below a restored head are verified afresh, and `copy` gives the copy a
memo of its own that starts as the original's.

A block's entry is JSON text: its timestamp alone when it is empty, else
[timestamp, rows] with one row per receipt, [signed text, status, result,
signature], whose signed text is spliced in from the transaction's cache.
Blocks are chained as headers are: a block's digest is H(parent digest ||
its entry), with fixed bytes as the genesis block's parent digest, so it
covers every field of every receipt; the position in the chain fixes the
height. Mining computes no digest; the first read walks back to the newest
block that has one. `state_hash` is H(head state lines || head digest), so
it reads the head and the blocks mined since the last digest, not the
chain.

What each block and transaction costs, at the floor of the hashes and
signature checks above: a block is one `Block` object and one digest hash
of its entry. An empty block shares its parent's state, adds nothing to
the txid index, and its entry is its timestamp text. Any other block
copies one map, the nonces. A transaction is one encoding of its signed
bytes and one txid hash, checked against the mempool in one pass on
submission, and its signature is verified at most once per ledger. An
executed transaction copies the account map if it moves tokens and the
contract map if it deploys or calls a contract. A contract call copies
the contract's attribute dict (`WalletContract.snapshot`), and a call that
writes an operation record copies one chunk of at most `CHUNK` records
and the tuple of chunks.

`checkpoint` returns the head as a JSON-ready object, for the caller to
encode and store: the head state, height, timestamp and digest, the
submission counter, and the heights of only the txids the caller keeps. A
contract is stored as its state lines alone, which join the cached text of
its record chunks, so `checkpoint` and `state_hash` render only the chunks
written since their last render. `from_checkpoint` takes the parsed head
object and the params of its contracts, parses of each contract's lines
only the header and the current subtree's records (the older lines stay
text, which `state_hash` covers as they were read), and raises
`LedgerError` for any other object. It takes a reader of the chain below
the head, which it does not call: the canonical branch starts at a base
block, the restored head, with its state and its stored digest and no
receipts. Head state, submission, mining, copying, `state_hash` and
`checkpoint` never read the chain below it, and neither do `confirmations`
and `receipt` for a kept txid, a txid mined since the restore or a txid in
the mempool, which cannot be on the chain. Reading `chain`, `event_log` or
`audit_signatures`, looking up any other txid or a receipt at or below the
base, or forking calls the reader once, for the canonical blocks from
genesis to the base (the CLI replays its action log). It raises
`LedgerError` unless the blocks end at the base's height and timestamp,
their entries chain to the stored base digest and their txids index as the
kept ones, and for a read that fails, so a block that differs in any field
of a row fails the read. Otherwise the blocks below the base join the
canonical branch, the only one until then, whole: with the states the
reader gives them, which the digest does not cover, and their txids merged
into its index. The base is replaced by a block with the read receipts and
the state the restore checked. From then on the ledger is one that was
never restored: it forks and reorgs below its old head, and the restored
submission counter orders a transaction submitted since the restore after
every one the reader returned.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import signing
from .contract import CallTrace, ChainEnv, OpType, Revert, WalletContract
from .hashing import truncated_hash
from .merkle import MerkleProof, SubtreeLayer, TreeParams

GENESIS_TIME = 1_600_000_000
GENESIS_PARENT = bytes(16)          # the genesis block's parent digest
DEFAULT_BLOCK_DELTA = 15
MAIN = "main"

SIGNED_CALLS = {"init_op", "new_root_stage1", "new_root_stage2"}

# Call name -> (argument key, type) pairs, in the order the handler takes
# them. A call holds exactly these keys, "fn", and "contract" for a call in
# CALL_RESULTS; `submit` refuses any other call, and a value of another
# type (a bool is not an int).
CALL_ARGS = {
    "transfer": (("to", str), ("amount", int)),
    "deploy_wallet": (("root", bytes), ("pk", bytes),
                      ("sublayer", SubtreeLayer), ("proof_sr", MerkleProof),
                      ("params", TreeParams)),
    "init_op": (("addr", str), ("param", int), ("type", OpType)),
    "confirm_op": (("otp", bytes), ("proof", MerkleProof), ("op_id", int)),
    "next_subtree": (("sublayer", SubtreeLayer), ("otp", bytes),
                     ("proof_otp", MerkleProof), ("proof_sr", MerkleProof)),
    "new_root_stage1": (("value", bytes),),
    "new_root_stage2": (("value", bytes),),
    "new_root_stage3": (("otp", bytes), ("proof", MerkleProof),
                        ("sublayer", SubtreeLayer), ("proof_sr", MerkleProof)),
    "send_to_last_resort": (),
}

# Contract call -> receipt result, from the call and the method's return.
CALL_RESULTS = {
    "init_op": lambda call, out: str(out),
    "confirm_op": lambda call, out: str(call["op_id"]),
    "next_subtree": lambda call, out: "",
    "new_root_stage1": lambda call, out: "",
    "new_root_stage2": lambda call, out: "",
    "new_root_stage3": lambda call, out: "updated" if out else "no-update",
    "send_to_last_resort": lambda call, out: str(out),
}


class LedgerError(Exception):
    pass


@dataclass
class Transaction:
    sender: str
    call: dict                      # {"fn": name, ...args}
    fee: int = 0
    signature: bytes | None = None
    nonce: int = 0
    seq: int = field(default=-1, compare=False)   # submission order
    _signing: bytes | None = field(default=None, init=False, repr=False,
                                   compare=False)
    _txid: str | None = field(default=None, init=False, repr=False,
                              compare=False)

    @property
    def fn(self) -> str:
        return self.call["fn"]

    # Both computed once: the sender, nonce, fee and call are never changed
    # after construction.

    def signing_bytes(self) -> bytes:
        """[sender, nonce, fee, encoded call] as compact JSON text;
        LedgerError for a call that does not encode."""
        if self._signing is None:
            try:
                self._signing = _to_json([self.sender, self.nonce, self.fee,
                                          encode_call(self.call)]).encode()
            except (AttributeError, TypeError) as exc:
                raise LedgerError(f"the call does not encode: {exc}") from exc
        return self._signing

    @property
    def txid(self) -> str:
        if self._txid is None:
            self._txid = truncated_hash(self.signing_bytes()).hex()[:16]
        return self._txid


@dataclass
class TxReceipt:
    tx: Transaction
    status: str                     # ok | revert:<category> | invalid-nonce
    result: str = ""
    trace: CallTrace | None = None

    @property
    def txid(self) -> str:
        return self.tx.txid

    @property
    def fn(self) -> str:
        return self.tx.fn


@dataclass
class LedgerState:
    accounts: dict[str, int] = field(default_factory=dict)
    nonces: dict[str, int] = field(default_factory=dict)
    contracts: dict[str, WalletContract] = field(default_factory=dict)


@dataclass
class Block:
    height: int
    timestamp: int
    receipts: tuple[TxReceipt, ...]  # mined blocks never change
    state: LedgerState
    # Built on first use; a restored head's `_digest` is the one stored
    # with it.
    _digest: bytes | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def entry(self) -> str:
        """The block's entry, its digest input, as JSON text: its
        timestamp alone when empty, else the timestamp and one row per
        receipt, [signed text, status, result, signature]. A signature that
        is not bytes is written as null: the contract treats it as none."""
        if not self.receipts:
            return str(self.timestamp)
        rows = ",".join([
            f"[{r.tx.signing_bytes().decode()},{_to_json(r.status)},"
            f"{_to_json(r.result)}," + (_to_json(r.tx.signature.hex())
                                        if type(r.tx.signature) is bytes
                                        else "null") + "]"
            for r in self.receipts])
        return f"[{self.timestamp},[{rows}]]"


def _fee_order(tx: Transaction) -> tuple[int, int]:
    """Inclusion order: the highest fee first, then submission order."""
    return -tx.fee, tx.seq


def _index(heights: dict[str, int], block: Block) -> None:
    """Record the block's executed transactions in a branch's txid index."""
    for r in block.receipts:
        if r.status != "invalid-nonce":
            heights.setdefault(r.txid, block.height)


def _hexes(digests) -> list[str]:
    """Proof siblings or sublayer nodes as hex; LedgerError for one that is
    not exactly bytes, as for a top-level argument of another type."""
    for d in digests:
        if type(d) is not bytes:
            raise LedgerError(f"a digest is not bytes: {type(d).__name__}")
    return [d.hex() for d in digests]


# Argument type -> (to JSON, payload bytes). Payload bytes model the
# calldata: account ids 20, integers 4, enum tags 1, digests by length, a
# sublayer's index 4, and the parameters none.
_CODECS = {
    str: (str, lambda s: 20),
    int: (int, lambda i: 4),
    bytes: (bytes.hex, len),
    MerkleProof: (lambda p: _hexes(p.siblings),
                  lambda p: sum(map(len, p.siblings))),
    SubtreeLayer: (lambda s: [s.index, _hexes(s.nodes)],
                   lambda s: sum(map(len, s.nodes)) + 4),
    OpType: (lambda t: t.value, lambda t: 1),
    TreeParams: (TreeParams.as_dict, lambda p: 0),
}
_SCHEMAS = {fn: dict((("fn", str),) + (("contract", str),) * (fn in CALL_RESULTS)
                     + args)
            for fn, args in CALL_ARGS.items()}


def _schema_of(call: dict) -> dict:
    if type(call) is not dict:
        raise LedgerError(f"a call is not an object: {type(call).__name__}")
    schema = _SCHEMAS.get(call.get("fn"))
    if schema is None or call.keys() != schema.keys():
        raise LedgerError(f"call outside the schema: {sorted(call)}")
    return schema


def payload_size(call: dict) -> int:
    """Semantic payload bytes of a call of the schema: a 4-byte selector
    plus each argument's size from `_CODECS`. Signatures ride outside the
    payload, as on the modeled platform."""
    return 4 + sum(_CODECS[kind][1](call[key])
                   for key, kind in _schema_of(call).items() if key != "fn")


def encode_call(call: dict) -> dict:
    """A call of the schema as JSON-ready data with sorted keys; LedgerError
    for any other."""
    schema, data = _schema_of(call), {}
    for key in sorted(call):
        value = call[key]
        if type(value) is not schema[key]:
            raise LedgerError(f"{key} is not a {schema[key].__name__}")
        data[key] = _CODECS[schema[key]][0](value)
    return data


_to_json = json.JSONEncoder(separators=(",", ":")).encode


class Ledger:
    def __init__(self, initial_accounts: dict[str, int] | None = None):
        genesis_state = LedgerState(accounts=dict(initial_accounts or {}))
        genesis = Block(0, GENESIS_TIME, (), genesis_state)
        self.branches: dict[str, list[Block]] = {MAIN: [genesis]}
        # Per branch: txid -> height of its first executed receipt.
        self.tx_heights: dict[str, dict[str, int]] = {MAIN: {}}
        self.canonical = MAIN
        self.mempool: list[Transaction] = []
        self.observers: list[Callable[[Transaction], None]] = []
        self._seq = 0
        self._branch_counter = 0
        self._in_observer = False
        # A restored ledger's base block and a reader of the canonical
        # blocks from genesis to it, until they are read; the chains then
        # start at the base.
        self._below: tuple[Block, Callable[[], list[Block]]] | None = None
        # (public key, signed bytes, signature) triples that verified here.
        self._verified: set[tuple[bytes, bytes, bytes]] = set()

    # -- chain views -----------------------------------------------------------

    @property
    def chain(self) -> list[Block]:
        """The canonical branch from genesis; reads the chain below a
        restored base first."""
        if self._below is not None:
            self._materialize()
        return self.branches[self.canonical]

    @property
    def head(self) -> Block:
        return self.branches[self.canonical][-1]

    @property
    def accounts(self) -> dict[str, int]:
        return self.head.state.accounts

    def contract(self, contract_id: str) -> WalletContract:
        """The head block's contract, for reading only: older blocks may
        share the object, so change it by submitting transactions."""
        try:
            return self.head.state.contracts[contract_id]
        except KeyError as exc:
            raise LedgerError(f"no contract {contract_id}") from exc

    def total_tokens(self) -> int:
        return sum(self.accounts.values())

    # -- submission --------------------------------------------------------------

    def submit(self, tx: Transaction) -> str:
        txid = tx.txid          # LedgerError for a call that does not encode
        sender, nonce = tx.sender, tx.nonce
        expected = self.head.state.nonces.get(sender, 0)
        if nonce < expected:
            raise LedgerError(
                f"nonce {nonce} already used by {sender} (next {expected})")
        # One pass over the mempool: a duplicate pending nonce, else the
        # count of the sender's pending transactions for the gap check.
        pending = 0
        for t in self.mempool:
            if t.sender == sender:
                if t.nonce == nonce:
                    raise LedgerError(f"duplicate nonce {nonce} in mempool")
                pending += 1
        if nonce > expected + pending:
            raise LedgerError(f"nonce gap for {sender}: {nonce}")
        tx.seq = self._seq
        self._seq += 1
        self.mempool.append(tx)
        if not self._in_observer:
            self._in_observer = True
            try:
                for obs in list(self.observers):
                    obs(tx)
            finally:
                self._in_observer = False
        return txid

    def next_nonce(self, sender: str) -> int:
        mined = self.head.state.nonces.get(sender, 0)
        return mined + sum(1 for t in self.mempool if t.sender == sender)

    # -- mining ---------------------------------------------------------------------

    def mine_block(self, timestamp_delta: int | None = None,
                   branch: str | None = None) -> Block:
        branch = branch or self.canonical
        chain = self.branches.get(branch)
        if chain is None:
            raise LedgerError(f"unknown branch {branch}")
        parent = chain[-1]
        timestamp = parent.timestamp + (DEFAULT_BLOCK_DELTA if timestamp_delta
                                        is None else timestamp_delta)
        mempool = self.mempool
        if not mempool:
            # An empty block executes nothing, so it shares its parent's
            # state and adds no txid to the index.
            block = Block(parent.height + 1, timestamp, (), parent.state)
            chain.append(block)
            return block
        # Only the nonces are copied here: a call copies the account or
        # contract map before it writes it.
        state = parent.state
        state = LedgerState(state.accounts, dict(state.nonces),
                            state.contracts)
        if len(mempool) > 1:
            mempool = sorted(mempool, key=_fee_order)
        block = Block(parent.height + 1, timestamp,
                      tuple([self._execute(tx, state, timestamp)
                             for tx in mempool]),
                      state)
        self.mempool = []
        chain.append(block)
        _index(self.tx_heights[branch], block)
        return block

    def _execute(self, tx: Transaction, state: LedgerState,
                 timestamp: int) -> TxReceipt:
        expected = state.nonces.get(tx.sender, 0)
        if tx.nonce != expected:
            return TxReceipt(tx, "invalid-nonce")
        state.nonces[tx.sender] = expected + 1

        # The call copies a map before it writes it, and the one contract it
        # addresses (see `_dispatch`); the pre-call maps, possibly shared
        # with the parent block, are never written and are what a revert
        # restores.
        accounts, contracts = state.accounts, state.contracts
        trace = CallTrace(tx.fn, payload_bytes=payload_size(tx.call))
        try:
            result = self._dispatch(tx, state, timestamp, trace)
            return TxReceipt(tx, "ok", result, trace)
        except Revert as exc:
            state.accounts, state.contracts = accounts, contracts
            return TxReceipt(tx, f"revert:{exc.category}", str(exc), trace)

    def _dispatch(self, tx: Transaction, state: LedgerState, timestamp: int,
                  trace: CallTrace) -> str:
        call, fn = tx.call, tx.fn
        args = [call[key] for key, _ in CALL_ARGS[fn]]

        def do_transfer(frm: str, to: str, amount: int):
            if amount < 0 or state.accounts.get(frm, 0) < amount:
                raise Revert("funds", f"{frm} cannot send {amount}")
            # A call transfers at most once, so this is its one copy.
            balances = state.accounts = dict(state.accounts)
            balances[frm] = balances.get(frm, 0) - amount
            balances[to] = balances.get(to, 0) + amount

        if fn == "transfer":
            do_transfer(tx.sender, *args)
            return ""

        env = ChainEnv(
            timestamp=timestamp,
            balance_of=lambda a: state.accounts.get(a, 0),
            transfer=do_transfer,
            tx_signing_bytes=tx.signing_bytes(),
            tx_signature=tx.signature,
            verify=self._verify,
            trace=trace,
        )

        if fn == "deploy_wallet":
            contract = WalletContract(*args, env)
            if contract.contract_id in state.contracts:
                raise Revert("phase", "contract already deployed")
            state.contracts = {**state.contracts,
                               contract.contract_id: contract}
            return contract.contract_id

        cid = call["contract"]
        if cid not in state.contracts:
            raise Revert("phase", f"no contract {cid}")
        contract = state.contracts[cid].snapshot()
        state.contracts = {**state.contracts, cid: contract}
        # Looked up at call time, so wrappers set on the class apply.
        out = getattr(contract, fn)(*args, env)
        return CALL_RESULTS[fn](call, out)

    # -- copies, forks and reorgs --------------------------------------------------------

    def copy(self) -> "Ledger":
        """A ledger that goes on independently of this one. Mined blocks,
        with their states and receipts, and submitted transactions never
        change, so both share them; every container that submitting,
        mining, forking or a reorg changes is copied. A restored ledger's
        copy shares its unread chain reader, and reads below the head on its
        own."""
        twin = copy.copy(self)          # then each container is replaced
        twin.branches = {name: list(chain)
                         for name, chain in self.branches.items()}
        twin.tx_heights = {name: dict(index)
                           for name, index in self.tx_heights.items()}
        twin.mempool = list(self.mempool)
        twin.observers = list(self.observers)
        twin._in_observer = False       # no observer of the copy is running
        twin._verified = set(self._verified)
        return twin

    def fork(self, from_height: int) -> str:
        if not 0 <= from_height < self.head.height:
            raise LedgerError(f"fork height must be below the head: {from_height}")
        chain = self.chain
        self._branch_counter += 1
        name = f"branch{self._branch_counter}"
        self.branches[name] = chain[:from_height + 1]
        self.tx_heights[name] = {txid: h for txid, h
                                 in self.tx_heights[self.canonical].items()
                                 if h <= from_height}
        return name

    def reorg(self, branch: str) -> None:
        if branch not in self.branches:
            raise LedgerError(f"unknown branch {branch}")
        new_chain = self.branches[branch]
        old_chain = self.branches[self.canonical]
        if len(new_chain) <= len(old_chain):
            raise LedgerError("reorg target must be strictly longer")
        common = 0
        for a, b in zip(old_chain, new_chain):
            if a is not b:
                break
            common += 1
        new_txids = {r.txid for blk in new_chain[common:] for r in blk.receipts}
        orphaned = [r.tx for blk in old_chain[common:] for r in blk.receipts
                    if r.txid not in new_txids]
        self.canonical = branch
        # A transaction never changes after submission, so the originals go
        # back, with their submission order and cached txids.
        self.mempool.extend(sorted(orphaned, key=lambda t: t.seq))

    # -- queries ------------------------------------------------------------------------------

    def _height(self, txid: str) -> int | None:
        """The height of the tx's executed receipt on the canonical chain,
        or None. A miss reads the chain below a restored base first, unless
        the tx is in the mempool: its nonce is at or above the head's, so it
        is not mined."""
        height = self.tx_heights[self.canonical].get(txid)
        if (height is None and self._below is not None
                and all(t.txid != txid for t in self.mempool)):
            self._materialize()
            height = self.tx_heights[self.canonical].get(txid)
        return height

    def confirmations(self, txid: str) -> int | None:
        """Blocks on top of the tx's block; None when not on the canonical
        chain."""
        height = self._height(txid)
        return None if height is None else self.head.height - height

    def receipt(self, txid: str) -> TxReceipt | None:
        """The tx's executed receipt on the canonical chain, or None."""
        height = self._height(txid)
        if height is None:
            return None
        if self._below is not None and height <= self._below[0].height:
            self._materialize()
        chain = self.branches[self.canonical]
        return next(r for r in chain[height - chain[0].height].receipts
                    if r.txid == txid and r.status != "invalid-nonce")

    # -- checkpoints ------------------------------------------------------------------------

    def checkpoint(self, keep: Iterable[str] = ()) -> dict:
        """The head as a JSON-ready object: the head's balances, nonces and
        contracts, each as its state lines, its height, timestamp and
        digest, the submission counter `seq`, and the `index` of the `keep`
        txids' heights. It shares the head state's maps, which no code
        changes once the block is mined. Older blocks, other branches, call
        traces and the contracts' params are left out. LedgerError when a
        kept txid is not on the canonical chain."""
        if self.mempool:
            raise LedgerError("a checkpoint holds mined state only")
        index = {}
        for txid in keep:
            index[txid] = self._height(txid)
            if index[txid] is None:
                raise LedgerError(f"kept txid {txid} is not on the chain")
        chain = self.branches[self.canonical]
        head, state = chain[-1], chain[-1].state
        return {
            "accounts": state.accounts,
            "nonces": state.nonces,
            "contracts": [c.state_lines() for c in state.contracts.values()],
            "height": head.height,
            "timestamp": head.timestamp,
            "digest": self._head_digest(chain).hex(),
            "seq": self._seq,
            "index": index,
        }

    @classmethod
    def from_checkpoint(cls, head, params: TreeParams,
                        read_chain: Callable[[], list[Block]]) -> "Ledger":
        """The ledger whose `checkpoint` returned `head`, as JSON parses it
        back, with `params` as the params of every contract; keys it does
        not know are ignored. The chain starts at the restored head; reading
        older blocks calls `read_chain()`, which returns the canonical
        blocks from genesis to the head, and checks them (see
        `_materialize`). LedgerError for any other object."""
        try:
            contracts = [WalletContract.from_state_lines(lines, params)
                         for lines in head["contracts"]]
            base = Block(head["height"], head["timestamp"], (),
                         LedgerState(dict(head["accounts"]),
                                     dict(head["nonces"]),
                                     {c.contract_id: c for c in contracts}))
            base._digest = bytes.fromhex(head["digest"])
            index, seq = dict(head["index"]), head["seq"]
        except (LookupError, TypeError, ValueError) as exc:
            raise LedgerError(f"not a checkpoint head: {exc}") from exc
        ledger = cls()
        ledger.branches = {MAIN: [base]}
        ledger.tx_heights = {MAIN: index}
        ledger._seq = seq
        ledger._below = (base, read_chain)
        return ledger

    def _materialize(self) -> None:
        """Read the canonical blocks from genesis to the base and put them
        under the blocks mined since the restore, each with the state the
        reader gives it, but for the base, which keeps the state the restore
        checked; merge their txids into `MAIN`'s index. `MAIN` is the only
        branch until now: only `fork` adds one, and it reads `chain` first.
        LedgerError, with the ledger left as it was, when the read fails or
        the blocks do not end at the base's height and timestamp, chain to
        the base's digest or index the kept txids as kept."""
        base, read = self._below
        # Fresh blocks: each digest is hashed again from the entries.
        blocks = [Block(height, blk.timestamp, blk.receipts, blk.state)
                  for height, blk in enumerate(read())]
        heights = {}
        for blk in blocks:
            _index(heights, blk)
        # Blocks mined since the restore all lie above the base.
        if (not blocks or blocks[-1].height != base.height
                or blocks[-1].timestamp != base.timestamp
                or self._head_digest(blocks) != base._digest
                or any(heights.get(txid) != height for txid, height
                       in self.tx_heights[MAIN].items()
                       if height <= base.height)):
            raise LedgerError("the chain read below the restored head does "
                              "not match its digest and txid index")
        blocks[-1].state = base.state       # not in a chain yet
        self.branches[MAIN][:1] = blocks
        self.tx_heights[MAIN] = {**heights, **self.tx_heights[MAIN]}
        self._below = None

    # -- determinism and audit hooks --------------------------------------------------------------

    def event_log(self) -> list[str]:
        lines = []
        for blk in self.chain:
            for r in blk.receipts:
                lines.append(
                    f"block={blk.height} ts={blk.timestamp} tx={r.txid} "
                    f"sender={r.tx.sender[:8]} fn={r.fn} fee={r.tx.fee} "
                    f"status={r.status} result={r.result}")
        return lines

    @staticmethod
    def _head_digest(chain: list[Block]) -> bytes:
        """The digest of the chain's last block. Walks back to the newest
        block with a digest (the first block of a chain is the genesis
        block or a restored base, which stores one), then hashes forward,
        caching each digest."""
        i = len(chain)
        while i and chain[i - 1]._digest is None:
            i -= 1
        digest = chain[i - 1]._digest if i else GENESIS_PARENT
        for blk in chain[i:]:
            digest = blk._digest = truncated_hash(digest + blk.entry().encode())
        return digest

    def state_hash(self) -> str:
        """H(head state lines || head digest)."""
        parts = []
        state = self.head.state
        for addr in sorted(state.accounts):
            parts.append(f"acct {addr} {state.accounts[addr]}")
        for addr in sorted(state.nonces):
            parts.append(f"nonce {addr} {state.nonces[addr]}")
        for cid in sorted(state.contracts):
            parts.extend(state.contracts[cid].state_lines())
        parts.append(self._head_digest(self.branches[self.canonical]).hex())
        return truncated_hash("\n".join(parts).encode()).hex()

    def _verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        """`signing.verify`, remembering the triples that verified: a
        verify is a pure function of its triple, and a failure is never
        stored, so a remembered triple is one that verifies."""
        triple = (public, message, signature)
        if triple in self._verified:
            return True
        # Looked up at call time, so a wrapper set on the module applies.
        if signing.verify(public, message, signature):
            self._verified.add(triple)
            return True
        return False

    def audit_signatures(self) -> list[str]:
        """Re-verify every executed signature-bearing call; returns failures.
        A signature that already verified on this ledger is not verified
        again."""
        problems = []
        for blk in self.chain:
            for r in blk.receipts:
                if r.status != "ok" or r.fn not in SIGNED_CALLS:
                    continue
                contract = self.head.state.contracts.get(r.tx.call["contract"])
                if contract is None:
                    problems.append(f"{r.txid}: contract missing for audit")
                    continue
                if type(r.tx.signature) is not bytes or not self._verify(
                        contract.pk, r.tx.signing_bytes(), r.tx.signature):
                    problems.append(f"{r.txid}: signature does not verify")
        return problems
