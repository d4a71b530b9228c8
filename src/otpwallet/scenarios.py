"""Scripted adversary scenarios for the three attacker models.

Each scenario starts from a bootstrapped world of a seed, runs one attack
script, and checks both that honest funds end up intact (except for
user-confirmed transfers) and that the attack fails in the specific way
the analysis predicts. Everything is deterministic in the seed.

Every scenario is a script `f(result, system, seed)` under one decorator,
`_scenario(name, mode, params)`, which states its name, mode and params
once and registers its runner in `SCENARIOS`. The runner is the one
frame: `_start` forks the bootstrapped world and takes the baseline
balances, the script runs (and may return early), and `_finish` checks
the baseline against the confirmed transfers, conserves the tokens and
audits the signatures. Both are module globals, looked up at each run, so
a wrapper set on this module sees every scenario. Adversary transactions
come from one builder, `_adversary`: a wallet call at the sender's next
nonce, signed with a stolen or forged key when the attack has one;
`_mined` submits one and mines it. An interceptor is a ledger observer
that a scenario attaches around one honest step and then removes, leaving
any other observer attached.

`_pristine` keeps the bootstrapped worlds of the last three configurations
of mode, seed, params and funding, and `_start` hands out only forks of
them (`System.fork`). So the nine scenarios of one seed share three kept
bootstraps, where each used to make its own, and each runs exactly as on a
world bootstrapped for it alone. Theorem5's tampered bootstrap, which
aborts, is made afresh and not kept.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from . import signing
from .contract import OpType
from .hashing import random_seed, truncated_hash
from .ledger import Transaction
from .merkle import SubtreeLayer, TreeParams, path, seed_levels, sublayer_in
# Not called here; kept bound because bench/tracing.py wraps them on this module.
from .merkle import all_leaves, reduce_mt, sublayer_of, subtree_root_proof  # noqa: F401
from .protocols import (
    DEFAULT_PARAMS,
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
FUNDING = 1000                  # `run_bootstrap`'s default


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


@functools.lru_cache(maxsize=3)
def _pristine(mode: str, seed: int, params: TreeParams,
              funding: int) -> System:
    """The bootstrapped world of one configuration, which only `_start`
    reads, to fork it. Three are kept: the suite's configurations of one
    seed are the secure default, theorem3's params and theorem5's insecure
    world. Built through the module global `run_bootstrap`, so a wrapper
    set on this module sees each miss."""
    return run_bootstrap(mode, seed, params, funding)


def _start(name: str, seed: int, mode: str = "secure",
           params: TreeParams = DEFAULT_PARAMS
           ) -> tuple[ScenarioResult, System, dict[str, int]]:
    """A fork of the bootstrapped world of (mode, seed, params) and its
    baseline: every balance after the bootstrap, whose sum is the token
    total."""
    system = _pristine(mode, seed, params, FUNDING).fork()
    return ScenarioResult(name), system, dict(system.ledger.accounts)


def _finish(result: ScenarioResult, system: System,
            baseline: dict[str, int]) -> ScenarioResult:
    """The end checks every scenario shares. Honest balances may move only
    by user-confirmed transfers, and the token total stays constant."""
    accounts = system.ledger.accounts
    spent = sum(amount for _, amount in system.confirmed_transfers)
    received = sum(amount for addr, amount in system.confirmed_transfers
                   if addr == ADVERSARY)
    cid = system.contract_id
    wallet_delta = accounts.get(cid, 0) - baseline.get(cid, 0)
    result.check("wallet debited only by confirmed transfers",
                 wallet_delta == -spent,
                 f"delta {wallet_delta}, confirmed {-spent}")
    adv_delta = accounts.get(ADVERSARY, 0) - baseline.get(ADVERSARY, 0)
    result.check("adversary gained nothing beyond confirmed transfers",
                 adv_delta <= received, f"delta {adv_delta}")
    result.check("token conservation",
                 system.ledger.total_tokens() == sum(baseline.values()),
                 "sum of balances constant")
    result.check("signature audit", not system.ledger.audit_signatures())
    result.event_log = system.ledger.event_log()
    result.state_hash = system.ledger.state_hash()
    return result


def _adversary(system: System, fn: str, fee: int = 5,
               key: signing.KeyPair | None = None, sender: str = ADVERSARY,
               **args) -> Transaction:
    """A wallet call `fn(**args)` from `sender` at its next nonce, signed
    with `key` (a stolen or forged one) when given."""
    tx = Transaction(sender, {"fn": fn, "contract": system.contract_id, **args},
                     fee=fee, nonce=system.ledger.next_nonce(sender))
    if key is not None:
        tx.signature = key.sign(tx.signing_bytes())
    return tx


def _mined(system: System, tx: Transaction) -> str:
    """Submit `tx`, mine one block, and return its receipt status."""
    txid = system.ledger.submit(tx)
    system.ledger.mine_block()
    return system.ledger.receipt(txid).status


def _drive(result: ScenarioResult, system: System, count: int, amount: int,
           label: str) -> bool:
    """`count` honest transfers of `amount`; a failed one is a failed
    check named `label`, and stops the drive."""
    for _ in range(count):
        outcome = run_operation(system, OpType.TRANSFER, system.recipient,
                                amount)
        if not outcome["ok"]:
            result.check(label, False, str(outcome))
            return False
    return True


SCENARIOS: dict[str, Callable[[int], ScenarioResult]] = {}
THEOREM3_PARAMS = TreeParams(S=128, N=8, P=2, N_S=8, L_S=1)


def _scenario(name: str, mode: str = "secure",
              params: TreeParams = DEFAULT_PARAMS):
    """Register the script `f(result, system, seed)` as the scenario
    `name`. Its runner `(seed=0) -> ScenarioResult` runs the script between
    `_start` on (mode, seed, params) and `_finish`, whichever way the
    script returns."""
    def register(script: Callable[[ScenarioResult, System, int], None]
                 ) -> Callable[[int], ScenarioResult]:
        @functools.wraps(script)
        def run(seed: int = 0) -> ScenarioResult:
            result, system, baseline = _start(name, seed, mode, params)
            script(result, system, seed)
            return _finish(result, system, baseline)
        SCENARIOS[name] = run
        return run
    return register


# ---------------------------------------------------------------------------

@_scenario("theorem1")
def theorem1(result: ScenarioResult, system: System, seed: int) -> None:
    """Key theft: the adversary can initiate operations but never confirm."""
    ledger = system.ledger

    tx = _adversary(system, "init_op", key=system.hw.keypair, addr=ADVERSARY,
                    param=100, type=OpType.TRANSFER)
    result.check("stolen key can initiate", _mined(system, tx) == "ok")
    adv_op = int(ledger.receipt(tx.txid).result)

    # Guessing an OTP gets the adversary nowhere.
    guess = truncated_hash(b"guess")
    tx = _adversary(system, "confirm_op", otp=guess, op_id=adv_op,
                    proof=system.client.build_confirm(adv_op, guess).proof)
    result.check("guessed OTP rejected",
                 _mined(system, tx).startswith("revert:"))

    # Front-running an intercepted OTP onto a different operation fails on
    # the linkage check: OTP_i never confirms O_j.
    captured = {}

    def intercept(mem_tx: Transaction):
        if mem_tx.fn == "confirm_op" and mem_tx.sender != ADVERSARY:
            captured["txid"] = ledger.submit(_adversary(
                system, "confirm_op", fee=50, otp=mem_tx.call["otp"],
                proof=mem_tx.call["proof"], op_id=adv_op))

    ledger.observers.append(intercept)
    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 7)
    ledger.observers.remove(intercept)
    result.check("user operation still succeeds", outcome["ok"])
    result.check("adversary front-run observed", "txid" in captured)
    if "txid" in captured:
        result.check("intercepted OTP rejected for another operation",
                     ledger.receipt(captured["txid"]).status.startswith("revert:"))
    result.check("adversary operation still pending",
                 system.contract.operations[adv_op].pending)


@_scenario("theorem2")
def theorem2(result: ScenarioResult, system: System, seed: int) -> None:
    """Subtree-OTP interception: only the valid next sublayer can land."""
    ledger = system.ledger
    params = system.params

    # Deplete subtree 0 up to the reserved slot.
    if not _drive(result, system, params.N_S - 1, 1, "depletion drive"):
        return

    rng = random.Random(seed + 999)
    forged_nodes = [bytes(rng.getrandbits(8) for _ in range(params.digest_bytes))
                    for _ in range(2 ** params.L_S)]
    attacked = {}

    def intercept(mem_tx: Transaction):
        if mem_tx.fn == "next_subtree" and mem_tx.sender != ADVERSARY:
            attacked["txid"] = ledger.submit(_adversary(
                system, "next_subtree", fee=50,
                sublayer=SubtreeLayer(list(forged_nodes), 1),
                otp=mem_tx.call["otp"], proof_otp=mem_tx.call["proof_otp"],
                proof_sr=mem_tx.call["proof_sr"]))
            attacked["replay"] = mem_tx

    ledger.observers.append(intercept)
    outcome = run_next_subtree(system)
    ledger.observers.remove(intercept)
    result.check("honest subtree introduction succeeds", outcome["ok"])
    result.check("forged sublayer front-run reverts",
                 "txid" in attacked and ledger.receipt(
                     attacked["txid"]).status == "revert:consistency")
    result.check("wallet advanced to subtree 1",
                 system.contract.current_subtree == 1)

    # Replaying the honest payload after the fact hits the phase check.
    replay = _adversary(system, fee=50, **attacked["replay"].call)
    result.check("replayed payload reverts on phase",
                 _mined(system, replay) == "revert:phase")

    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 2)
    result.check("operations continue in subtree 1", outcome["ok"])


@_scenario("theorem3", params=THEOREM3_PARAMS)
def theorem3(result: ScenarioResult, system: System, seed: int) -> None:
    """Parent-root race: first-match ordering defeats the later entries."""
    ledger = system.ledger
    params = system.params
    stolen = system.hw.keypair

    if not _drive(result, system, params.N - 1, 1, "depletion drive"):
        return

    # Adversary's own candidate tree.
    rng = random.Random(seed + 31337)
    adv_seed = random_seed(rng)
    adv_levels = seed_levels(adv_seed, params, 0)
    adv_root = adv_levels[-1][0]
    attacked = {}

    def intercept(mem_tx: Transaction):
        if mem_tx.fn == "new_root_stage3" and mem_tx.sender != ADVERSARY:
            otp = mem_tx.call["otp"]
            h = truncated_hash(adv_root + otp, params.digest_bytes)
            for stage, value in (("new_root_stage1", h),
                                 ("new_root_stage2", adv_root)):
                ledger.submit(_adversary(system, stage, fee=60, key=stolen,
                                         value=value))
            attacked["txid"] = ledger.submit(_adversary(
                system, "new_root_stage3", fee=40, otp=otp,
                proof=mem_tx.call["proof"],
                sublayer=sublayer_in(adv_levels, 0, params),
                proof_sr=path(adv_levels, 0, params.H_S, params.H)))

    ledger.observers.append(intercept)
    outcome = run_new_root(system, "secure")
    ledger.observers.remove(intercept)
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


@_scenario("theorem4")
def theorem4(result: ScenarioResult, system: System, seed: int) -> None:
    """Tampered client after bootstrap: the wallet display stops it."""
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


@_scenario("theorem5", "insecure")
def theorem5(result: ScenarioResult, system: System, seed: int) -> None:
    """Tampered client during insecure bootstrap: forged root is caught."""
    forged = truncated_hash(b"forged-root-candidate")
    try:
        run_bootstrap("insecure", seed, tamper_root=forged)
        result.check("user aborted the deployment", False)
    except ProtocolAbort as exc:
        result.check("user aborted the deployment", True, str(exc))

    # An honest insecure bootstrap from the same seed still works.
    result.check("honest insecure bootstrap deploys",
                 system.contract_id != "")
    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 4)
    result.check("deployed wallet operates", outcome["ok"])


@_scenario("theorem6")
def theorem6(result: ScenarioResult, system: System, seed: int) -> None:
    """Stolen authenticator: OTPs alone initiate nothing."""
    ledger = system.ledger
    balances_before = dict(ledger.accounts)
    wallet_lines_before = system.contract.state_lines()

    # The adversary holds the device, so OTPs are free - but initOp needs
    # the owner's signature.
    otp = system.authenticator.get_otp(0)
    t1 = ledger.submit(_adversary(system, "init_op",
                                  key=signing.keygen(bytes([7]) * 32),
                                  addr=ADVERSARY, param=50,
                                  type=OpType.TRANSFER))
    t2 = ledger.submit(_adversary(system, "confirm_op", otp=otp, op_id=0,
                                  proof=system.client.build_confirm(0, otp).proof))
    t3 = ledger.submit(_adversary(system, "send_to_last_resort"))
    ledger.mine_block()

    result.check("init without the owner key reverts",
                 ledger.receipt(t1).status == "revert:signature")
    result.check("confirm of a never-initialized operation reverts",
                 ledger.receipt(t2).status == "revert:pending")
    result.check("early last-resort call reverts",
                 ledger.receipt(t3).status == "revert:timeout")
    result.check("wallet state unchanged",
                 system.contract.state_lines() == wallet_lines_before)
    result.check("balances unchanged", ledger.accounts == balances_before)


@_scenario("depletion")
def depletion(result: ScenarioResult, system: System, seed: int) -> None:
    """Full lifecycle: all OTPs, one subtree introduction, one rotation."""
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
            return
    result.check("subtree 0 depleted", system.contract.next_op_id == params.N_S - 1)

    outcome = run_next_subtree(system)                 # opID 7
    result.check("subtree introduction", outcome["ok"])

    # opIDs 8..14
    if not _drive(result, system, params.N_S - 1, 1, "second subtree drive"):
        return

    outcome = run_new_root(system, "secure")           # opID 15
    result.check("parent-root rotation", outcome["ok"])
    result.check("generation advanced", system.authenticator.eta == 1
                 and system.client.eta == 1)

    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 3)
    result.check("post-rotation operation verifies against the new root",
                 outcome["ok"])

    # A pre-rotation OTP cannot confirm anything any more.
    stale_op = init_operation(system, OpType.TRANSFER, system.recipient,
                              1)["op_id"]
    payload = system.client.build_confirm(stale_op, old_otp)
    tx = _adversary(system, "confirm_op", fee=1, sender=system.user_account,
                    otp=payload.otp, proof=payload.proof, op_id=stale_op)
    result.check("pre-rotation OTP rejected",
                 _mined(system, tx).startswith("revert:"))


@_scenario("dos-pending")
def dos_pending(result: ScenarioResult, system: System, seed: int) -> None:
    """Key theft flood: pending garbage, zero confirmable operations."""
    ledger = system.ledger

    adv_ops = []
    for _ in range(3):
        tx = _adversary(system, "init_op", key=system.hw.keypair,
                        addr=ADVERSARY, param=25, type=OpType.TRANSFER)
        _mined(system, tx)
        adv_ops.append(int(ledger.receipt(tx.txid).result))
    result.check("adversary flooded pending operations", len(adv_ops) == 3)

    confirmed = 0
    for op_id in adv_ops:
        guess = truncated_hash(op_id.to_bytes(4, "big"))
        tx = _adversary(system, "confirm_op", otp=guess, op_id=op_id,
                        proof=system.client.build_confirm(op_id, guess).proof)
        confirmed += _mined(system, tx) == "ok"
    result.check("adversary confirmable operations = 0", confirmed == 0)

    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 6)
    result.check("user operation succeeds after the flood", outcome["ok"])
    result.check("flooded operations still pending",
                 all(system.contract.operations[i].pending for i in adv_ops))


@_scenario("fork-replay")
def fork_replay(result: ScenarioResult, system: System, seed: int) -> None:
    """Accidental fork during the wait: detect, resubmit, then confirm."""
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
    # The confirm sits in the block after the wait ended, so the init was
    # this many blocks deep when the OTP was revealed.
    confirm_confs = ledger.confirmations(outcome["txid"])
    result.check("confirmation waited for full depth",
                 confirm_confs is not None
                 and (ledger.confirmations(init_txid) - confirm_confs - 1
                      >= system.client.confirmation_depth))


def run_scenario(name: str, seed: int = 0) -> ScenarioResult:
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario: {name!r}; "
                         f"known: {', '.join(sorted(SCENARIOS))}") from None
    return fn(seed)


def run_all(seed: int = 0) -> list[ScenarioResult]:
    return [run_scenario(name, seed) for name in sorted(SCENARIOS)]
