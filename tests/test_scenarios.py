"""The scripted adversary suite must pass wholesale and deterministically."""

import hashlib
import time

import pytest

from otpwallet import protocols, scenarios, signing
from otpwallet.scenarios import SCENARIOS, run_all, run_scenario


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name):
    result = run_scenario(name, seed=0)
    assert result.passed, "\n".join(result.lines())


def test_unknown_scenario_name_rejected():
    with pytest.raises(ValueError):
        run_scenario("theorem99")


def test_suite_is_deterministic():
    first = [(r.name, r.state_hash, r.event_log) for r in run_all(seed=7)]
    second = [(r.name, r.state_hash, r.event_log) for r in run_all(seed=7)]
    assert first == second


def test_different_seeds_change_the_world():
    a = run_scenario("theorem1", seed=0)
    b = run_scenario("theorem1", seed=1)
    assert a.passed and b.passed
    assert a.state_hash != b.state_hash


@pytest.mark.parametrize("name", ["theorem2", "theorem3", "depletion"])
def test_a_failed_drive_still_runs_the_end_checks(monkeypatch, name):
    # Called through the module global, as a tracer rebinds it.
    monkeypatch.setattr(scenarios, "run_operation",
                        lambda *args, **kwargs: {"ok": False})
    result = run_scenario(name)
    assert [label for label, _, _ in result.checks][-4:] == [
        "wallet debited only by confirmed transfers",
        "adversary gained nothing beyond confirmed transfers",
        "token conservation", "signature audit"]
    assert not result.passed and result.state_hash


def test_suite_runs_quickly():
    start = time.time()
    results = run_all(seed=0)
    assert all(r.passed for r in results)
    assert time.time() - start < 30.0


# scenario -> SHA-256 of "\n".join(result.lines()). No check note carries
# the seed, so seeds 0-3 print the same reports.
REPORTS = {
    "depletion": "1845b2c706105b6efce06066e59ef1da3b54359bb3f8ab3e3cd7643148ca728a",
    "dos-pending": "4a7d30b890d4c652b87a11cd418c45ca619536ce94589665e613bca5f4f9b6a1",
    "fork-replay": "ac3cf5129efcc977687f5b5bd4bfbed677d7e2deb191eb82395119adb14500b9",
    "theorem1": "1f74f4caaf7b033a5a71912f341434bd77e4cc6b3b0272c4d6a9820935e92cc9",
    "theorem2": "5879fd7db3fb6e26bb4f2e60d009d565ebdba04bb340e5e459cd95d9d2fe03e1",
    "theorem3": "69f25ca76a01e37f28dcbf9fb005b7ae46fb34273db6ec587e32eb6fc0ba5510",
    "theorem4": "be83fd8ee47e10fb5aac4ef837a802424fb892bb2e28f4ab6affda17d741f078",
    "theorem5": "5743f0ada90d67f23896fca113ad7be15a6a0a553a1dd36673bf0560eb166e4b",
    "theorem6": "53000b0836dc4f62c6c35279ca0ecab125968555f12a55ac6d01ee666c71d41d",
}


@pytest.mark.parametrize("seed", range(4))
def test_reports_are_pinned(seed):
    """Each report, its checks in order with their notes, byte for byte."""
    reports = {r.name: hashlib.sha256("\n".join(r.lines()).encode()).hexdigest()
               for r in run_all(seed)}
    assert reports == REPORTS


# scenario -> distinct signature-bearing transactions it executes at seed 0,
# the owner's and the adversary's.
SIGNED_TXS = {
    "depletion": 18, "dos-pending": 4, "fork-replay": 1, "theorem1": 2,
    "theorem2": 8, "theorem3": 12, "theorem4": 1, "theorem5": 1,
    "theorem6": 1,
}


def test_each_signature_is_verified_once(monkeypatch):
    """The contract's check, a reorg's re-execution and the end-of-run
    audit share one verify per signed transaction."""
    calls, real = [], signing.verify
    monkeypatch.setattr(signing, "verify",
                        lambda *args: (calls.append(1), real(*args))[1])
    verifies = {}
    for name in sorted(SCENARIOS):
        calls.clear()
        assert run_scenario(name, seed=0).passed
        verifies[name] = len(calls)
    assert verifies == SIGNED_TXS


def test_a_run_of_every_scenario_bootstraps_each_configuration_once(
        monkeypatch):
    """The secure default, theorem3's params, theorem5's honest insecure
    world, and theorem5's tampered bootstrap, which is not kept."""
    modes, real = [], protocols.bootstrap_system

    def counting(system, mode, *args, **kwargs):
        modes.append((mode, system.params.N))
        return real(system, mode, *args, **kwargs)

    monkeypatch.setattr(protocols, "bootstrap_system", counting)
    scenarios._pristine.cache_clear()
    run_all(seed=5)
    assert sorted(modes) == [("insecure", 16), ("insecure", 16),
                             ("secure", 8), ("secure", 16)]
    modes.clear()
    run_all(seed=5)
    assert modes == [("insecure", 16)]


def test_a_scenario_gets_a_fork_never_the_kept_world():
    _, system, _ = scenarios._start("theorem1", 5)
    kept = scenarios._pristine("secure", 5, scenarios.DEFAULT_PARAMS,
                               scenarios.FUNDING)
    assert system is not kept and system.ledger is not kept.ledger
    assert system.ledger.state_hash() == kept.ledger.state_hash()


def test_a_cold_scenario_matches_a_warm_suite():
    def outputs(result):
        return result.lines(), result.state_hash, result.event_log

    run_all(seed=6)
    warm = {r.name: outputs(r) for r in run_all(seed=6)}
    for name in sorted(SCENARIOS):
        scenarios._pristine.cache_clear()
        assert outputs(run_scenario(name, seed=6)) == warm[name], name


@pytest.mark.parametrize("name", ["theorem1", "theorem2", "theorem3"])
def test_an_interceptor_removes_only_its_own_observer(monkeypatch, name):
    real, worlds, seen = scenarios._start, [], []

    def bystander(tx):
        seen.append(tx)

    def start(*args, **kwargs):
        result, system, baseline = real(*args, **kwargs)
        system.ledger.observers.append(bystander)
        worlds.append(system)
        return result, system, baseline

    monkeypatch.setattr(scenarios, "_start", start)
    assert run_scenario(name).passed
    assert worlds[0].ledger.observers == [bystander] and seen
