"""A simulated blockchain: mempool, fee-ordered blocks, forks, adversary hooks.

The simulator advances only by explicit mine_block calls, so every run is a
pure function of the submission order, fees, timestamp deltas, and the
fork/reorg schedule. Forks clone a chain prefix, and a reorg promotes a
strictly longer branch, returning orphaned transactions to the mempool.

Block states share structure. A new block starts from shallow copies of
its parent's account, nonce and contract maps, so it shares every contract
object with the parent. A transaction that addresses a contract runs on a
`WalletContract.snapshot()` of it, which replaces the shared object in the
new block only; on revert the pre-call maps come back untouched. No block's
state is ever mutated after the block is mined. That holds only while head
state changes by executing transactions alone: mutating a contract reached
through `Ledger.contract(cid)` directly would leak into older blocks that
share it.

Each branch keeps a txid -> height index, filled as blocks are mined and
copied up to the fork point by `fork`, so confirmation queries do not scan
the chain.

Fees order inclusion (the lever a front-running adversary pulls) but are
never debited, so the sum of all account balances is conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .contract import CallTrace, ChainEnv, OpType, Revert, WalletContract
from .hashing import truncated_hash
from .merkle import MerkleProof, SubtreeLayer, TreeParams

GENESIS_TIME = 1_600_000_000
DEFAULT_BLOCK_DELTA = 15
MAIN = "main"

SIGNED_CALLS = {"init_op", "new_root_stage1", "new_root_stage2"}

# Call name -> argument keys, in the order the handler takes them. A call
# lacking one reverts as malformed; a name not listed reverts on phase.
CALL_ARGS = {
    "transfer": ("to", "amount"),
    "deploy_wallet": ("root", "pk", "sublayer", "proof_sr", "params"),
    "init_op": ("addr", "param", "type"),
    "confirm_op": ("otp", "proof", "op_id"),
    "next_subtree": ("sublayer", "otp", "proof_otp", "proof_sr"),
    "new_root_stage1": ("value",),
    "new_root_stage2": ("value",),
    "new_root_stage3": ("otp", "proof", "sublayer", "proof_sr"),
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


def canon_value(v) -> str:
    if isinstance(v, (bytes, bytearray)):
        return bytes(v).hex()
    if isinstance(v, MerkleProof):
        return ":".join(s.hex() for s in v.siblings)
    if isinstance(v, SubtreeLayer):
        return f"{v.index};" + ":".join(n.hex() for n in v.nodes)
    if isinstance(v, OpType):
        return v.value
    if isinstance(v, TreeParams):
        return ",".join(f"{k}={val}" for k, val in sorted(v.as_dict().items()))
    return str(v)


def canon_args(args: dict) -> str:
    return " ".join(f"{k}={canon_value(args[k])}" for k in sorted(args))


def payload_size(call: dict) -> int:
    """Semantic payload bytes: 4-byte selector plus sized arguments.

    Digests take S/8 bytes, proof/sublayer elements one digest each,
    integers 4, account ids 20, enum tags 1. Signatures ride outside the
    payload, as on the modeled platform.
    """
    size = 4
    for key, v in call.items():
        if key == "fn":
            continue
        if isinstance(v, (bytes, bytearray)):
            size += len(v)
        elif isinstance(v, MerkleProof):
            size += sum(len(s) for s in v.siblings)
        elif isinstance(v, SubtreeLayer):
            size += sum(len(n) for n in v.nodes) + 4
        elif isinstance(v, OpType):
            size += 1
        elif isinstance(v, bool):
            size += 1
        elif isinstance(v, int):
            size += 4
        elif isinstance(v, str):
            size += 20
    return size


@dataclass
class Transaction:
    sender: str
    call: dict                      # {"fn": name, ...args}
    fee: int = 0
    signature: bytes | None = None
    nonce: int = 0
    seq: int = field(default=-1, compare=False)   # submission order
    _txid: str | None = field(default=None, init=False, repr=False,
                              compare=False)

    @property
    def fn(self) -> str:
        return self.call["fn"]

    def signing_bytes(self) -> bytes:
        return (f"{self.sender}|{self.nonce}|{self.fn}|"
                f"{canon_args({k: v for k, v in self.call.items() if k != 'fn'})}"
                ).encode()

    @property
    def txid(self) -> str:
        # Computed once: the sender, nonce and call are never changed after
        # construction.
        if self._txid is None:
            self._txid = truncated_hash(self.signing_bytes()).hex()[:16]
        return self._txid


@dataclass
class TxReceipt:
    txid: str
    sender: str
    nonce: int
    fn: str
    fee: int
    status: str                     # ok | revert:<category> | invalid-nonce
    result: str = ""
    trace: CallTrace | None = None
    tx: Transaction | None = None


@dataclass
class LedgerState:
    accounts: dict[str, int] = field(default_factory=dict)
    nonces: dict[str, int] = field(default_factory=dict)
    contracts: dict[str, WalletContract] = field(default_factory=dict)


@dataclass
class Block:
    height: int
    timestamp: int
    receipts: list[TxReceipt]
    state: LedgerState


class Ledger:
    def __init__(self, initial_accounts: dict[str, int] | None = None,
                 block_delta: int = DEFAULT_BLOCK_DELTA):
        genesis_state = LedgerState(accounts=dict(initial_accounts or {}))
        genesis = Block(0, GENESIS_TIME, [], genesis_state)
        self.branches: dict[str, list[Block]] = {MAIN: [genesis]}
        # Per branch: txid -> height of its first executed receipt.
        self.tx_heights: dict[str, dict[str, int]] = {MAIN: {}}
        self.canonical = MAIN
        self.mempool: list[Transaction] = []
        self.block_delta = block_delta
        self.pending_time_skip = 0
        self.observers: list[Callable[[Transaction], None]] = []
        self._seq = 0
        self._branch_counter = 0
        self._in_observer = False

    # -- chain views -----------------------------------------------------------

    @property
    def chain(self) -> list[Block]:
        return self.branches[self.canonical]

    @property
    def head(self) -> Block:
        return self.chain[-1]

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
        if "fn" not in tx.call:
            raise LedgerError(f"call without a function name from {tx.sender}")
        expected = self.head.state.nonces.get(tx.sender, 0)
        pending = sum(1 for t in self.mempool if t.sender == tx.sender)
        if tx.nonce < expected:
            raise LedgerError(
                f"nonce {tx.nonce} already used by {tx.sender} (next {expected})")
        if any(t.sender == tx.sender and t.nonce == tx.nonce for t in self.mempool):
            raise LedgerError(f"duplicate nonce {tx.nonce} in mempool")
        if tx.nonce > expected + pending:
            raise LedgerError(f"nonce gap for {tx.sender}: {tx.nonce}")
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
        return tx.txid

    def next_nonce(self, sender: str) -> int:
        mined = self.head.state.nonces.get(sender, 0)
        return mined + sum(1 for t in self.mempool if t.sender == sender)

    # -- mining ---------------------------------------------------------------------

    def mine_block(self, timestamp_delta: int | None = None,
                   branch: str | None = None) -> Block:
        branch = branch or self.canonical
        if branch not in self.branches:
            raise LedgerError(f"unknown branch {branch}")
        chain = self.branches[branch]
        parent = chain[-1]
        delta = self.block_delta if timestamp_delta is None else timestamp_delta
        timestamp = parent.timestamp + delta + self.pending_time_skip
        self.pending_time_skip = 0

        state = LedgerState(dict(parent.state.accounts),
                            dict(parent.state.nonces),
                            dict(parent.state.contracts))
        ordered = sorted(self.mempool, key=lambda t: (-t.fee, t.seq))
        receipts = []
        for tx in ordered:
            receipts.append(self._execute(tx, state, timestamp))
        self.mempool = []
        block = Block(parent.height + 1, timestamp, receipts, state)
        chain.append(block)
        heights = self.tx_heights[branch]
        for r in receipts:
            if r.status != "invalid-nonce":
                heights.setdefault(r.txid, block.height)
        return block

    def _execute(self, tx: Transaction, state: LedgerState,
                 timestamp: int) -> TxReceipt:
        expected = state.nonces.get(tx.sender, 0)
        if tx.nonce != expected:
            return TxReceipt(tx.txid, tx.sender, tx.nonce, tx.fn, tx.fee,
                             "invalid-nonce", tx=tx)
        state.nonces[tx.sender] = expected + 1

        # The call runs on copies of the two maps and of the one contract it
        # addresses; the originals, possibly shared with the parent block,
        # are never written and are what a revert restores.
        accounts, contracts = state.accounts, state.contracts
        state.accounts, state.contracts = dict(accounts), dict(contracts)
        cid = tx.call.get("contract")
        if cid in contracts:
            state.contracts[cid] = contracts[cid].snapshot()
        trace = CallTrace(tx.fn, payload_bytes=payload_size(tx.call))
        try:
            result = self._dispatch(tx, state, timestamp, trace)
            return TxReceipt(tx.txid, tx.sender, tx.nonce, tx.fn, tx.fee,
                             "ok", result=result, trace=trace, tx=tx)
        except Revert as exc:
            state.accounts, state.contracts = accounts, contracts
            return TxReceipt(tx.txid, tx.sender, tx.nonce, tx.fn, tx.fee,
                             f"revert:{exc.category}", result=str(exc),
                             trace=trace, tx=tx)

    def _dispatch(self, tx: Transaction, state: LedgerState, timestamp: int,
                  trace: CallTrace) -> str:
        call, fn = tx.call, tx.fn
        if fn not in CALL_ARGS:
            raise Revert("phase", f"unknown function {fn}")
        try:
            args = [call[key] for key in CALL_ARGS[fn]]
        except KeyError as exc:
            raise Revert("malformed", f"{fn} lacks {exc.args[0]}") from None

        def do_transfer(frm: str, to: str, amount: int):
            if amount < 0 or state.accounts.get(frm, 0) < amount:
                raise Revert("funds", f"{frm} cannot send {amount}")
            state.accounts[frm] = state.accounts.get(frm, 0) - amount
            state.accounts[to] = state.accounts.get(to, 0) + amount

        if fn == "transfer":
            do_transfer(tx.sender, *args)
            return ""

        env = ChainEnv(
            timestamp=timestamp,
            sender=tx.sender,
            balance_of=lambda a: state.accounts.get(a, 0),
            transfer=do_transfer,
            tx_signing_bytes=tx.signing_bytes(),
            tx_signature=tx.signature,
        )

        if fn == "deploy_wallet":
            contract = WalletContract(*args, env, trace=trace)
            if contract.contract_id in state.contracts:
                raise Revert("phase", "contract already deployed")
            state.contracts[contract.contract_id] = contract
            return contract.contract_id

        cid = call.get("contract")
        contract = state.contracts.get(cid)
        if contract is None:
            raise Revert("phase", f"no contract {cid}")
        # Looked up at call time, so wrappers set on the class apply.
        out = getattr(contract, fn)(*args, env, trace)
        return CALL_RESULTS[fn](call, out)

    # -- forks and reorgs ----------------------------------------------------------------

    def fork(self, from_height: int) -> str:
        if not 0 <= from_height < self.head.height:
            raise LedgerError(f"fork height must be below the head: {from_height}")
        self._branch_counter += 1
        name = f"branch{self._branch_counter}"
        self.branches[name] = list(self.chain[:from_height + 1])
        self.tx_heights[name] = {txid: h for txid, h
                                 in self.tx_heights[self.canonical].items()
                                 if h <= from_height}
        return name

    def reorg(self, branch: str) -> None:
        if branch not in self.branches:
            raise LedgerError(f"unknown branch {branch}")
        new_chain = self.branches[branch]
        old_chain = self.chain
        if len(new_chain) <= len(old_chain):
            raise LedgerError("reorg target must be strictly longer")
        common = 0
        for a, b in zip(old_chain, new_chain):
            if a is not b:
                break
            common += 1
        new_txids = {r.txid for blk in new_chain[common:] for r in blk.receipts}
        orphaned = [r.tx for blk in old_chain[common:] for r in blk.receipts
                    if r.tx is not None and r.txid not in new_txids]
        self.canonical = branch
        for tx in sorted(orphaned, key=lambda t: t.seq):
            fresh = Transaction(tx.sender, tx.call, tx.fee, tx.signature,
                                tx.nonce)
            fresh.seq = tx.seq
            self.mempool.append(fresh)

    # -- queries ------------------------------------------------------------------------------

    def find_tx(self, txid: str) -> tuple[Block, TxReceipt] | None:
        height = self.tx_heights[self.canonical].get(txid)
        if height is None:
            return None
        blk = self.chain[height]
        return blk, next(r for r in blk.receipts
                         if r.txid == txid and r.status != "invalid-nonce")

    def confirmations(self, txid: str) -> int | None:
        """Blocks on top of the tx's block; None when not on the canonical
        chain."""
        found = self.find_tx(txid)
        if found is None:
            return None
        return self.head.height - found[0].height

    def receipt(self, txid: str) -> TxReceipt | None:
        found = self.find_tx(txid)
        return found[1] if found else None

    # -- determinism and audit hooks --------------------------------------------------------------

    def event_log(self) -> list[str]:
        lines = []
        for blk in self.chain:
            for r in blk.receipts:
                lines.append(
                    f"block={blk.height} ts={blk.timestamp} tx={r.txid} "
                    f"sender={r.sender[:8]} fn={r.fn} fee={r.fee} "
                    f"status={r.status} result={r.result}")
        return lines

    def state_hash(self) -> str:
        parts = []
        state = self.head.state
        for addr in sorted(state.accounts):
            parts.append(f"acct {addr} {state.accounts[addr]}")
        for addr in sorted(state.nonces):
            parts.append(f"nonce {addr} {state.nonces[addr]}")
        for cid in sorted(state.contracts):
            parts.extend(state.contracts[cid].state_lines())
        for blk in self.chain:
            parts.append(f"blk {blk.height} {blk.timestamp} "
                         + ",".join(r.txid + ":" + r.status for r in blk.receipts))
        return truncated_hash("\n".join(parts).encode()).hex()

    def audit_signatures(self) -> list[str]:
        """Re-verify every executed signature-bearing call; returns failures."""
        from . import signing
        problems = []
        for blk in self.chain:
            for r in blk.receipts:
                if r.status != "ok" or r.fn not in SIGNED_CALLS or r.tx is None:
                    continue
                contract = self.head.state.contracts.get(r.tx.call.get("contract"))
                if contract is None:
                    problems.append(f"{r.txid}: contract missing for audit")
                    continue
                if r.tx.signature is None or not signing.verify(
                        contract.pk, r.tx.signing_bytes(), r.tx.signature):
                    problems.append(f"{r.txid}: signature does not verify")
        return problems


# -- scenario script files -------------------------------------------------------

def run_script(ledger: Ledger, text: str,
               tx_builder: Callable[[list[str]], Transaction] | None = None) -> list[str]:
    """Drive a ledger from a line-oriented command script.

    Commands: `mine [delta] [branch]`, `fork <height>`, `reorg <branch>`,
    `advance-time <seconds>`, `transfer <from> <to> <amount> <fee>`, and
    `submit <spec...>` when a tx_builder is supplied. Returns one result
    line per command.
    """
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        cmd = parts[0]
        if cmd == "mine":
            delta = int(parts[1]) if len(parts) > 1 else None
            branch = parts[2] if len(parts) > 2 else None
            blk = ledger.mine_block(delta, branch)
            out.append(f"mined height={blk.height} txs={len(blk.receipts)}")
        elif cmd == "fork":
            name = ledger.fork(int(parts[1]))
            out.append(f"forked {name}")
        elif cmd == "reorg":
            ledger.reorg(parts[1])
            out.append(f"reorged to {parts[1]}")
        elif cmd == "advance-time":
            ledger.pending_time_skip += int(parts[1])
            out.append(f"time +{parts[1]}")
        elif cmd == "transfer":
            frm, to, amount, fee = parts[1], parts[2], int(parts[3]), int(parts[4])
            tx = Transaction(frm, {"fn": "transfer", "to": to, "amount": amount},
                             fee=fee, nonce=ledger.next_nonce(frm))
            out.append(f"submitted {ledger.submit(tx)}")
        elif cmd == "submit" and tx_builder is not None:
            tx = tx_builder(parts[1:])
            out.append(f"submitted {ledger.submit(tx)}")
        else:
            raise LedgerError(f"unknown script command: {line!r}")
    return out
