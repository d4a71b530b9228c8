"""The four benchmark workloads, each a closed loop with one simulated user.

A workload runs in rounds. A round sets up a fresh world from a seed
(timed as set-up), then drives a fixed sequence of steps, each timed from
the user's intent to its confirming receipt, then checks the world. Every
round of a workload does the same amount of work, so a run's statistics do
not depend on how many rounds fit in its time. Set-up and step times are
scaled to the nominal host speed of `speed.py`; the raw times are kept too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from otpwallet import cli, protocols, scenarios
from otpwallet.contract import OpType
from otpwallet.merkle import TreeParams
from speed import Scaler

RECIPIENTS = ("acct:recipient", "acct:shop", "acct:landlord", "acct:friend")
OUT = Path(__file__).resolve().parent / "out"
FUNDING = 1000


@dataclass
class Round:
    """What one round measured and checked."""

    steps: list[tuple[str, float, bool]] = field(default_factory=list)
    setup_s: float = 0.0
    raw_step_s: list[float] = field(default_factory=list)
    raw_setup_s: float = 0.0
    checks: list[tuple[str, bool]] = field(default_factory=list)
    state_hash: str = ""
    event_digest: str = ""
    notes: dict = field(default_factory=dict)

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


class Recorder:
    """Times set-up and steps at nominal host speed; opens a step span when
    a tracer is attached."""

    def __init__(self, result: Round, tracer=None, first_step_id: int = 0):
        self.result = result
        self.tracer = tracer
        self.next_id = first_step_id
        self.scaler = Scaler()

    @contextlib.contextmanager
    def setup(self):
        t0 = perf_counter()
        yield
        raw = perf_counter() - t0
        self.result.raw_setup_s += raw
        self.result.setup_s += self.scaler.scale(raw)

    def step(self, kind: str, fn) -> bool:
        """Run one step; it fails when it raises or returns a falsy value."""
        span = self.tracer.open_step(self.next_id, kind) if self.tracer else None
        self.next_id += 1
        t0 = perf_counter()
        try:
            ok = bool(fn())
        except Exception as exc:      # a failed step is data, not a crash
            ok = False
            self.result.notes.setdefault("errors", []).append(
                f"{kind}: {type(exc).__name__}: {exc}")
        dt = perf_counter() - t0
        if span is not None:
            self.tracer.close_step(span)
        self.result.raw_step_s.append(dt)
        self.result.steps.append((kind, self.scaler.scale(dt), ok))
        return ok

    def attach(self, system) -> None:
        if self.tracer is not None:
            self.tracer.attach(system)


def digest_lines(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_wallet(result: Round, system, tokens0: int, wallet0: int,
                 sent: int) -> None:
    """The end-of-round checks shared by the wallet workloads."""
    ledger = system.ledger
    result.check("total tokens unchanged", ledger.total_tokens() == tokens0)
    wallet = ledger.accounts.get(system.contract_id, 0)
    result.check("wallet debited exactly by the confirmed transfers",
                 wallet0 - wallet == sent)
    result.check("signature audit is empty", not ledger.audit_signatures())
    result.check("contract root equals the authenticator's root",
                 system.contract.root == system.authenticator.display_root())
    result.state_hash = ledger.state_hash()
    result.event_digest = digest_lines(ledger.event_log())


def drive_wallet(rec: Recorder, system, rng: random.Random, steps: int) -> int:
    """Transfers, a subtree introduction at each subtree boundary and a
    secure rotation at each generation end. Returns the amount sent."""
    params = system.params
    sent = 0
    for _ in range(steps):
        rel = system.contract.next_op_id % params.N
        if rel == params.N - 1:
            ok = rec.step("rotate",
                          lambda: protocols.run_new_root(system, "secure")["ok"])
        elif rel % params.N_S == params.N_S - 1:
            ok = rec.step("subtree",
                          lambda: protocols.run_next_subtree(system)["ok"])
        else:
            addr, amount = rng.choice(RECIPIENTS), rng.randint(1, 2)
            ok = rec.step("transfer", lambda: protocols.run_operation(
                system, OpType.TRANSFER, addr, amount)["ok"])
            sent += amount if ok else 0
        if not ok:
            break
    return sent


@dataclass(frozen=True)
class WalletWorkload:
    """One secure-bootstrapped wallet driven through `steps` steps."""

    name: str
    params: TreeParams
    steps: int
    min_rounds: int

    @property
    def round_steps(self) -> int:
        return self.steps

    def run_round(self, seed: str, tracer=None, first_step_id: int = 0) -> Round:
        result = Round()
        rec = Recorder(result, tracer, first_step_id)
        rng = random.Random(seed)
        with rec.setup():
            system = protocols.run_bootstrap("secure", rng.getrandbits(32),
                                             self.params)
        rec.attach(system)
        tokens0 = system.ledger.total_tokens()
        wallet0 = system.ledger.accounts[system.contract_id]
        sent = drive_wallet(rec, system, rng, self.steps)
        result.check("every step ok", all(ok for _, _, ok in result.steps))
        result.check("confirmed transfers match the amounts sent",
                     sum(a for _, a in system.confirmed_transfers) == sent)
        check_wallet(result, system, tokens0, wallet0, sent)
        return result


@dataclass(frozen=True)
class AttackWorkload:
    """The nine adversary scenarios over `seeds` seeds per round."""

    name: str
    seeds: int
    min_rounds: int

    @property
    def round_steps(self) -> int:
        return self.seeds * len(scenarios.SCENARIOS)

    def run_round(self, seed: str, tracer=None, first_step_id: int = 0) -> Round:
        result = Round()
        rec = Recorder(result, tracer, first_step_id)
        rng = random.Random(seed)
        # Every scenario starts from this bootstrap on the default params.
        with rec.setup():
            protocols.run_bootstrap("secure", rng.getrandbits(32))
        hashes, events = [], []
        for _ in range(self.seeds):
            scenario_seed = rng.getrandbits(32)
            for name in sorted(scenarios.SCENARIOS):
                out = []

                def run(name=name, scenario_seed=scenario_seed, out=out):
                    out.append(scenarios.run_scenario(name, scenario_seed))
                    return out[0].passed
                rec.step(f"scenario.{name}", run)
                if out:
                    hashes.append(out[0].state_hash)
                    events.extend(out[0].event_log)
        result.check("every scenario passed", all(ok for _, _, ok in result.steps))
        result.state_hash = digest_lines(hashes)
        result.event_digest = digest_lines(events)
        return result


@dataclass(frozen=True)
class CliWorkload:
    """In-process CLI commands against a world persisted at a fixed depth."""

    name: str
    params: TreeParams
    history_ops: int
    commands: int
    min_rounds: int

    @property
    def round_steps(self) -> int:
        return self.commands

    def run_round(self, seed: str, tracer=None, first_step_id: int = 0) -> Round:
        result = Round()
        state_dir = OUT / f"cli-world-{os.getpid()}"
        rec = Recorder(result, tracer, first_step_id)
        rng = random.Random(seed)
        k = bytes(rng.getrandbits(8) for _ in range(16))
        hw_seed = bytes(rng.getrandbits(8) for _ in range(32))
        shutil.rmtree(state_dir, ignore_errors=True)
        try:
            with rec.setup():
                world = cli.World.create(state_dir, "secure", self.params, k,
                                         hw_seed, FUNDING)
                world.system = world.build_system()
                protocols.bootstrap_system(world.system, "secure", FUNDING)
                tokens0 = world.system.ledger.total_tokens()
                wallet0 = world.system.ledger.accounts[world.system.contract_id]
                sent = self._write_history(world, rng)
                world.save()
                cli.World.load(state_dir)
            sent += self._session(rec, state_dir, self.params,
                                  world.system.contract.next_op_id, rng)
            result.check("every CLI exit code is 0",
                         all(ok for _, _, ok in result.steps))
            result.notes["cli.state_bytes"] = (state_dir / "world.json").stat().st_size
            final = cli.World.load(state_dir).system
            check_wallet(result, final, tokens0, wallet0, sent)
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        return result

    def _write_history(self, world, rng: random.Random) -> int:
        """Append `history_ops` operation slots to the action log."""
        params, sent = world.params(), 0
        for _ in range(self.history_ops):
            system = world.system
            rel = system.contract.next_op_id % params.N
            if rel == params.N - 1:
                actions = [{"cmd": "rotate", "mode": "secure"}]
            elif rel % params.N_S == params.N_S - 1:
                actions = [{"cmd": "subtree"}]
            else:
                amount = rng.randint(1, 2)
                init = {"cmd": "init", "type": "transfer",
                        "addr": rng.choice(RECIPIENTS), "param": amount}
                op_id = world.apply(init)["op_id"]
                world.data["actions"].append(init)
                otp = system.authenticator.get_otp(op_id % params.N)
                actions = [{"cmd": "confirm", "op_id": op_id, "otp": otp.hex()}]
                sent += amount
            for action in actions:
                world.apply(action)
                world.data["actions"].append(action)
        return sent

    def _session(self, rec: Recorder, state_dir: Path, params: TreeParams,
                 next_op: int, rng: random.Random) -> int:
        """A fixed mix of writes and reads; returns the amount sent."""
        sent = 0

        def run(kind: str, *argv: str) -> str:
            out = io.StringIO()

            def call():
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    return cli.main(["--state-dir", str(state_dir), *argv]) == 0
            if not rec.step(f"cli.{kind}", call):
                raise RuntimeError(f"`{' '.join(argv)}` failed")
            return out.getvalue()

        def field_of(text: str, label: str) -> str:
            for line in text.splitlines():
                if line.startswith(label):
                    return line[len(label):].strip()
            raise RuntimeError(f"no {label!r} in CLI output")

        try:
            while len(rec.result.steps) < self.commands:
                rel = next_op % params.N
                if rel == params.N - 1:
                    run("write", "root", "rotate", "--mode", "secure")
                    next_op += 1
                    run("read", "root", "show")
                elif rel % params.N_S == params.N_S - 1:
                    run("write", "subtree", "next")
                    next_op += 1
                    run("read", "root", "show")
                else:
                    amount = rng.randint(1, 2)
                    op_id = int(field_of(run(
                        "write", "op", "init", "--type", "transfer",
                        "--addr", rng.choice(RECIPIENTS), "--param", str(amount)),
                        "opID:"))
                    next_op += 1
                    otp = field_of(run("read", "otp", "show", "--op-id", str(op_id)),
                                   "otp hex:")
                    run("write", "op", "confirm", "--op-id", str(op_id), "--otp", otp)
                    sent += amount
                    run("read", "root", "show")
        except RuntimeError as exc:
            rec.result.notes.setdefault("errors", []).append(str(exc))
        return sent


WORKLOADS = {
    w.name: w for w in (
        WalletWorkload(
            "lifetime", TreeParams(S=128, N=64, P=1, N_S=16, L_S=2),
            steps=128, min_rounds=4),
        WalletWorkload(
            "wide-tree", TreeParams(S=128, N=16384, P=1, N_S=16384, L_S=5),
            steps=40, min_rounds=3),
        AttackWorkload(
            "attack-suite", seeds=12, min_rounds=3),
        CliWorkload(
            "cli-session", cli.parse_params(cli.DEFAULT_PARAMS_SPEC),
            history_ops=68, commands=14, min_rounds=3),
    )
}
