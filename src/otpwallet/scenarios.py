"""Scripted adversary scenarios for the three attacker models.

Each scenario bootstraps a fresh world from a seed, runs one attack
script, and checks both that honest funds end up intact (except for
user-confirmed transfers) and that the attack fails in the specific way
the analysis predicts. Everything is deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Trees are built as merkle.build_levels, the binding bench/tracing.py wraps.
from . import merkle, signing
from .contract import OpType
from .hashing import random_seed, truncated_hash
from .ledger import Transaction
from .merkle import SubtreeLayer, TreeParams, all_leaves, path, sublayer_in
# Not called here; kept bound because bench/tracing.py wraps them on this module.
from .merkle import reduce_mt, sublayer_of, subtree_root_proof  # noqa: F401
from .protocols import (
    ProtocolAbort,
    System,
    confirm_operation,
    init_operation,
    run_bootstrap,
    run_new_root,
    run_next_subtree,
    run_operation,
)

ADVERSARY = "acct:adversary"


@dataclass
class ScenarioResult:
    name: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    event_log: list[str] = field(default_factory=list)
    state_hash: str = ""

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def check(self, label: str, ok: bool, note: str = "") -> None:
        self.checks.append((label, bool(ok), note))

    def lines(self) -> list[str]:
        out = [f"scenario {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for label, ok, note in self.checks:
            out.append(f"  [{'ok' if ok else 'FAIL'}] {label}"
                       + (f" ({note})" if note else ""))
        return out


def _finish(result: ScenarioResult, system: System,
            baseline: int) -> ScenarioResult:
    """Shared end checks; `baseline` is the token total after bootstrap."""
    result.check("token conservation",
                 system.ledger.total_tokens() == baseline,
                 "sum of balances constant")
    result.check("signature audit", not system.ledger.audit_signatures())
    result.event_log = system.ledger.event_log()
    result.state_hash = system.ledger.state_hash()
    return result


def _honest_funds_intact(result: ScenarioResult, system: System,
                         balances_before: dict[str, int]) -> None:
    """Honest balances may move only by user-confirmed transfers."""
    spent = sum(amount for addr, amount in system.confirmed_transfers)
    received = {}
    for addr, amount in system.confirmed_transfers:
        received[addr] = received.get(addr, 0) + amount
    accounts = system.ledger.accounts
    wallet_delta = accounts.get(system.contract_id, 0) - balances_before.get(
        system.contract_id, 0)
    result.check("wallet debited only by confirmed transfers",
                 wallet_delta == -spent,
                 f"delta {wallet_delta}, confirmed {-spent}")
    adv_delta = accounts.get(ADVERSARY, 0) - balances_before.get(ADVERSARY, 0)
    adv_received = received.get(ADVERSARY, 0)
    result.check("adversary gained nothing beyond confirmed transfers",
                 adv_delta <= adv_received, f"delta {adv_delta}")


def _stolen_key_tx(system: System, stolen: signing.KeyPair, call: dict,
                   fee: int = 5) -> Transaction:
    """A transaction signed with the user's stolen private key."""
    tx = Transaction(ADVERSARY, call, fee=fee,
                     nonce=system.ledger.next_nonce(ADVERSARY))
    tx.signature = stolen.sign(tx.signing_bytes())
    return tx


def _balances(system: System) -> dict[str, int]:
    return dict(system.ledger.accounts)


# ---------------------------------------------------------------------------

def theorem1(seed: int = 0) -> ScenarioResult:
    """Key theft: the adversary can initiate operations but never confirm."""
    result = ScenarioResult("theorem1")
    system = run_bootstrap("secure", seed)
    tokens0 = system.ledger.total_tokens()
    before = _balances(system)
    stolen = system.hw.keypair
    ledger = system.ledger

    tx = _stolen_key_tx(system, stolen, {
        "fn": "init_op", "contract": system.contract_id,
        "addr": ADVERSARY, "param": 100, "type": OpType.TRANSFER})
    init_txid = ledger.submit(tx)
    ledger.mine_block()
    receipt = ledger.receipt(init_txid)
    result.check("stolen key can initiate", receipt.status == "ok")
    adv_op = int(receipt.result)

    # Guessing an OTP gets the adversary nowhere.
    guess = truncated_hash(b"guess")
    proof = system.client.build_confirm(adv_op, guess).proof
    tx = Transaction(ADVERSARY, {"fn": "confirm_op", "contract": system.contract_id,
                                 "otp": guess, "proof": proof, "op_id": adv_op},
                     fee=5, nonce=ledger.next_nonce(ADVERSARY))
    txid = ledger.submit(tx)
    ledger.mine_block()
    result.check("guessed OTP rejected",
                 ledger.receipt(txid).status.startswith("revert:"))

    # Front-running an intercepted OTP onto a different operation fails on
    # the linkage check: OTP_i never confirms O_j.
    captured = {}

    def intercept(mem_tx: Transaction):
        if mem_tx.fn == "confirm_op" and mem_tx.sender != ADVERSARY:
            captured["otp"] = mem_tx.call["otp"]
            captured["proof"] = mem_tx.call["proof"]
            front = Transaction(ADVERSARY, {
                "fn": "confirm_op", "contract": system.contract_id,
                "otp": mem_tx.call["otp"], "proof": mem_tx.call["proof"],
                "op_id": adv_op}, fee=50,
                nonce=ledger.next_nonce(ADVERSARY))
            ledger.submit(front)
            captured["txid"] = front.txid

    ledger.observers.append(intercept)
    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 7)
    ledger.observers.clear()
    result.check("user operation still succeeds", outcome["ok"])
    result.check("adversary front-run observed", "txid" in captured)
    if "txid" in captured:
        result.check("intercepted OTP rejected for another operation",
                     ledger.receipt(captured["txid"]).status.startswith("revert:"))
    result.check("adversary operation still pending",
                 system.contract.operations[adv_op].pending)
    _honest_funds_intact(result, system, before)
    return _finish(result, system, tokens0)


def theorem2(seed: int = 0) -> ScenarioResult:
    """Subtree-OTP interception: only the valid next sublayer can land."""
    result = ScenarioResult("theorem2")
    system = run_bootstrap("secure", seed)
    tokens0 = system.ledger.total_tokens()
    before = _balances(system)
    ledger = system.ledger
    params = system.params

    # Deplete subtree 0 up to the reserved slot.
    for _ in range(params.N_S - 1):
        outcome = run_operation(system, OpType.TRANSFER, system.recipient, 1)
        if not outcome["ok"]:
            result.check("depletion drive", False, str(outcome))
            return _finish(result, system, tokens0)

    rng = random.Random(seed + 999)
    forged_nodes = [bytes(rng.getrandbits(8) for _ in range(params.digest_bytes))
                    for _ in range(2 ** params.L_S)]
    attacked = {}

    def intercept(mem_tx: Transaction):
        if mem_tx.fn == "next_subtree" and mem_tx.sender != ADVERSARY:
            front = Transaction(ADVERSARY, {
                "fn": "next_subtree", "contract": system.contract_id,
                "sublayer": SubtreeLayer(list(forged_nodes), 1),
                "otp": mem_tx.call["otp"],
                "proof_otp": mem_tx.call["proof_otp"],
                "proof_sr": mem_tx.call["proof_sr"],
            }, fee=50, nonce=ledger.next_nonce(ADVERSARY))
            ledger.submit(front)
            attacked["txid"] = front.txid
            attacked["replay"] = mem_tx

    ledger.observers.append(intercept)
    outcome = run_next_subtree(system)
    ledger.observers.clear()
    result.check("honest subtree introduction succeeds", outcome["ok"])
    result.check("forged sublayer front-run reverts",
                 "txid" in attacked and ledger.receipt(
                     attacked["txid"]).status == "revert:consistency")
    result.check("wallet advanced to subtree 1",
                 system.contract.current_subtree == 1)

    # Replaying the honest payload after the fact hits the phase check.
    replay_src = attacked["replay"]
    replay = Transaction(ADVERSARY, dict(replay_src.call), fee=50,
                         nonce=ledger.next_nonce(ADVERSARY))
    txid = ledger.submit(replay)
    ledger.mine_block()
    result.check("replayed payload reverts on phase",
                 ledger.receipt(txid).status == "revert:phase")

    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 2)
    result.check("operations continue in subtree 1", outcome["ok"])
    _honest_funds_intact(result, system, before)
    return _finish(result, system, tokens0)


def theorem3(seed: int = 0) -> ScenarioResult:
    """Parent-root race: first-match ordering defeats the later entries."""
    result = ScenarioResult("theorem3")
    params = TreeParams(S=128, N=8, P=2, N_S=8, L_S=1)
    system = run_bootstrap("secure", seed, params=params)
    tokens0 = system.ledger.total_tokens()
    before = _balances(system)
    ledger = system.ledger
    stolen = system.hw.keypair

    for _ in range(params.N - 1):
        outcome = run_operation(system, OpType.TRANSFER, system.recipient, 1)
        if not outcome["ok"]:
            result.check("depletion drive", False, str(outcome))
            return _finish(result, system, tokens0)

    # Adversary's own candidate tree.
    rng = random.Random(seed + 31337)
    adv_seed = random_seed(rng)
    adv_levels = merkle.build_levels(all_leaves(adv_seed, params, 0))
    adv_root = adv_levels[-1][0]
    adv_sublayer = sublayer_in(adv_levels, 0, params)
    adv_proof_sr = path(adv_levels, 0, params.H_S, params.H)
    attacked = {}

    def intercept(mem_tx: Transaction):
        if mem_tx.fn == "new_root_stage3" and mem_tx.sender != ADVERSARY:
            otp = mem_tx.call["otp"]
            h = truncated_hash(adv_root + otp, params.digest_bytes)
            for call in ({"fn": "new_root_stage1", "contract": system.contract_id,
                          "value": h},
                         {"fn": "new_root_stage2", "contract": system.contract_id,
                          "value": adv_root}):
                ledger.submit(_stolen_key_tx(system, stolen, call, fee=60))
            front = Transaction(ADVERSARY, {
                "fn": "new_root_stage3", "contract": system.contract_id,
                "otp": otp, "proof": mem_tx.call["proof"],
                "sublayer": adv_sublayer, "proof_sr": adv_proof_sr,
            }, fee=40, nonce=ledger.next_nonce(ADVERSARY))
            ledger.submit(front)
            attacked["txid"] = front.txid

    ledger.observers.append(intercept)
    outcome = run_new_root(system, "secure")
    ledger.observers.clear()
    result.check("honest rotation completes", outcome["ok"])
    result.check("adversary raced stage 3", "txid" in attacked)
    if "txid" in attacked:
        status = ledger.receipt(attacked["txid"]).status
        result.check("front-run matched the user's earlier pair and reverted "
                     "on the forged sublayer", status == "revert:consistency",
                     status)
    result.check("user's root installed, not the adversary's",
                 system.contract.root == system.client.root
                 and system.contract.root != adv_root)
    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 3)
    result.check("new generation usable", outcome["ok"])
    _honest_funds_intact(result, system, before)
    return _finish(result, system, tokens0)


def theorem4(seed: int = 0) -> ScenarioResult:
    """Tampered client after bootstrap: the wallet display stops it."""
    result = ScenarioResult("theorem4")
    system = run_bootstrap("secure", seed)
    tokens0 = system.ledger.total_tokens()
    before = _balances(system)
    ops_before = dict(system.contract.operations)

    try:
        run_operation(system, OpType.TRANSFER, system.recipient, 9,
                      tampered_addr=ADVERSARY)
        result.check("user refused to sign the tampered transaction", False)
    except ProtocolAbort as exc:
        result.check("user refused to sign the tampered transaction", True,
                     str(exc))
    result.check("no operation was initialized",
                 dict(system.contract.operations) == ops_before)
    result.check("nothing was signed",
                 all(t.signature is None or t.sender != system.user_account
                     for t in system.ledger.mempool))
    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 9)
    result.check("honest retry succeeds", outcome["ok"])
    _honest_funds_intact(result, system, before)
    return _finish(result, system, tokens0)


def theorem5(seed: int = 0) -> ScenarioResult:
    """Tampered client during insecure bootstrap: forged root is caught."""
    result = ScenarioResult("theorem5")
    forged = truncated_hash(b"forged-root-candidate")
    try:
        run_bootstrap("insecure", seed, tamper_root=forged)
        result.check("user aborted the deployment", False)
        return result
    except ProtocolAbort as exc:
        result.check("user aborted the deployment", True, str(exc))

    # An honest insecure bootstrap from the same seed still works.
    system = run_bootstrap("insecure", seed)
    tokens0 = system.ledger.total_tokens()
    before = _balances(system)
    result.check("honest insecure bootstrap deploys",
                 system.contract_id != "")
    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 4)
    result.check("deployed wallet operates", outcome["ok"])
    _honest_funds_intact(result, system, before)
    return _finish(result, system, tokens0)


def theorem6(seed: int = 0) -> ScenarioResult:
    """Stolen authenticator: OTPs alone initiate nothing."""
    result = ScenarioResult("theorem6")
    system = run_bootstrap("secure", seed)
    tokens0 = system.ledger.total_tokens()
    before = _balances(system)
    ledger = system.ledger
    wallet_lines_before = system.contract.state_lines()
    adv_kp = signing.keygen(bytes([7]) * 32)

    # The adversary holds the device, so OTPs are free - but initOp needs
    # the owner's signature.
    otp = system.authenticator.get_otp(0)
    tx = Transaction(ADVERSARY, {
        "fn": "init_op", "contract": system.contract_id,
        "addr": ADVERSARY, "param": 50, "type": OpType.TRANSFER},
        fee=5, nonce=ledger.next_nonce(ADVERSARY))
    tx.signature = adv_kp.sign(tx.signing_bytes())
    t1 = ledger.submit(tx)

    tx = Transaction(ADVERSARY, {
        "fn": "confirm_op", "contract": system.contract_id, "otp": otp,
        "proof": system.client.build_confirm(0, otp).proof, "op_id": 0},
        fee=5, nonce=ledger.next_nonce(ADVERSARY))
    t2 = ledger.submit(tx)

    tx = Transaction(ADVERSARY, {"fn": "send_to_last_resort",
                                 "contract": system.contract_id},
                     fee=5, nonce=ledger.next_nonce(ADVERSARY))
    t3 = ledger.submit(tx)
    ledger.mine_block()

    result.check("init without the owner key reverts",
                 ledger.receipt(t1).status == "revert:signature")
    result.check("confirm of a never-initialized operation reverts",
                 ledger.receipt(t2).status == "revert:pending")
    result.check("early last-resort call reverts",
                 ledger.receipt(t3).status == "revert:timeout")
    result.check("wallet state unchanged",
                 system.contract.state_lines() == wallet_lines_before)
    result.check("balances unchanged", _balances(system) == before)
    _honest_funds_intact(result, system, before)
    return _finish(result, system, tokens0)


def depletion(seed: int = 0) -> ScenarioResult:
    """Full lifecycle: all OTPs, one subtree introduction, one rotation."""
    result = ScenarioResult("depletion")
    system = run_bootstrap("secure", seed)
    tokens0 = system.ledger.total_tokens()
    before = _balances(system)
    params = system.params
    old_otp = system.authenticator.get_otp(3)

    plan = [(OpType.TRANSFER, system.recipient, 2)] * 5 + [
        (OpType.SET_DAILY_LIMIT, "", 500),
        (OpType.SET_LAST_RESORT_ADDRESS, "acct:heir", 0),
    ]
    for op_type, addr, param in plan:                  # opIDs 0..6
        outcome = run_operation(system, op_type, addr, param)
        if not outcome["ok"]:
            result.check(f"operation {op_type.value}", False, str(outcome))
            return _finish(result, system, tokens0)
    result.check("subtree 0 depleted", system.contract.next_op_id == params.N_S - 1)

    outcome = run_next_subtree(system)                 # opID 7
    result.check("subtree introduction", outcome["ok"])

    for _ in range(params.N_S - 1):                    # opIDs 8..14
        outcome = run_operation(system, OpType.TRANSFER, system.recipient, 1)
        if not outcome["ok"]:
            result.check("second subtree drive", False, str(outcome))
            return _finish(result, system, tokens0)

    outcome = run_new_root(system, "secure")           # opID 15
    result.check("parent-root rotation", outcome["ok"])
    result.check("generation advanced", system.authenticator.eta == 1
                 and system.client.eta == 1)

    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 3)
    result.check("post-rotation operation verifies against the new root",
                 outcome["ok"])

    # A pre-rotation OTP cannot confirm anything any more.
    ledger = system.ledger
    stale_op = init_operation(system, OpType.TRANSFER, system.recipient,
                              1)["op_id"]
    payload = system.client.build_confirm(stale_op, old_otp)
    tx = Transaction(system.user_account, {
        "fn": "confirm_op", "contract": system.contract_id,
        "otp": payload.otp, "proof": payload.proof, "op_id": stale_op},
        fee=1, nonce=ledger.next_nonce(system.user_account))
    txid = ledger.submit(tx)
    ledger.mine_block()
    result.check("pre-rotation OTP rejected",
                 ledger.receipt(txid).status.startswith("revert:"))
    _honest_funds_intact(result, system, before)
    return _finish(result, system, tokens0)


def dos_pending(seed: int = 0) -> ScenarioResult:
    """Key theft flood: pending garbage, zero confirmable operations."""
    result = ScenarioResult("dos-pending")
    system = run_bootstrap("secure", seed)
    tokens0 = system.ledger.total_tokens()
    before = _balances(system)
    ledger = system.ledger
    stolen = system.hw.keypair

    adv_ops = []
    for _ in range(3):
        tx = _stolen_key_tx(system, stolen, {
            "fn": "init_op", "contract": system.contract_id,
            "addr": ADVERSARY, "param": 25, "type": OpType.TRANSFER})
        txid = ledger.submit(tx)
        ledger.mine_block()
        adv_ops.append(int(ledger.receipt(txid).result))
    result.check("adversary flooded pending operations", len(adv_ops) == 3)

    confirmed = 0
    for op_id in adv_ops:
        guess = truncated_hash(op_id.to_bytes(4, "big"))
        proof = system.client.build_confirm(op_id, guess).proof
        tx = Transaction(ADVERSARY, {
            "fn": "confirm_op", "contract": system.contract_id,
            "otp": guess, "proof": proof, "op_id": op_id},
            fee=5, nonce=ledger.next_nonce(ADVERSARY))
        txid = ledger.submit(tx)
        ledger.mine_block()
        if ledger.receipt(txid).status == "ok":
            confirmed += 1
    result.check("adversary confirmable operations = 0", confirmed == 0)

    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 6)
    result.check("user operation succeeds after the flood", outcome["ok"])
    result.check("flooded operations still pending",
                 all(system.contract.operations[i].pending for i in adv_ops))
    _honest_funds_intact(result, system, before)
    return _finish(result, system, tokens0)


def fork_replay(seed: int = 0) -> ScenarioResult:
    """Accidental fork during the wait: detect, resubmit, then confirm."""
    result = ScenarioResult("fork-replay")
    system = run_bootstrap("secure", seed)
    tokens0 = system.ledger.total_tokens()
    before = _balances(system)
    ledger = system.ledger

    init = init_operation(system, OpType.TRANSFER, system.recipient, 5)
    init_txid = init["txid"]

    # An accidental fork orphans the initialization.
    branch = ledger.fork(ledger.head.height - 1)
    ledger.mine_block(branch=branch)
    ledger.mine_block(branch=branch)
    ledger.reorg(branch)
    result.check("fork orphaned the initialization",
                 ledger.confirmations(init_txid) is None)
    result.check("orphaned tx returned to the mempool",
                 any(t.txid == init_txid for t in ledger.mempool))

    # The client's background wait notices and carries it to depth.
    ledger.mine_block()
    result.check("resubmitted init mined again",
                 ledger.confirmations(init_txid) == 0)
    outcome = confirm_operation(system, init["op_id"])
    result.check("confirmation after the wait succeeds", outcome["ok"])
    result.check("confirmation waited for full depth",
                 all(c >= system.client.confirmation_depth
                     for _, c in system.depth_checks))
    _honest_funds_intact(result, system, before)
    return _finish(result, system, tokens0)


SCENARIOS = {
    "theorem1": theorem1,
    "theorem2": theorem2,
    "theorem3": theorem3,
    "theorem4": theorem4,
    "theorem5": theorem5,
    "theorem6": theorem6,
    "depletion": depletion,
    "dos-pending": dos_pending,
    "fork-replay": fork_replay,
}


def run_scenario(name: str, seed: int = 0) -> ScenarioResult:
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario: {name!r}; "
                         f"known: {', '.join(sorted(SCENARIOS))}") from None
    return fn(seed)


def run_all(seed: int = 0) -> list[ScenarioResult]:
    return [run_scenario(name, seed) for name in sorted(SCENARIOS)]
