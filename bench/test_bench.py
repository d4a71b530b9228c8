"""Self-tests of the benchmark: the tail rule, self time, scaling to the
nominal host speed, and that a traced run reports every per-layer metric.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import measure  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from otpwallet.merkle import TreeParams  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize("n, per_mille", [
    (20, 500), (39, 500), (40, 750), (99, 750), (100, 900), (199, 900),
    (200, 950), (500, 980), (999, 980), (1000, 990), (2000, 995),
    (10_000, 999),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, per_mille):
    assert stats.tail_per_mille(n) == per_mille


def test_tail_rule_holds_for_every_sample_count():
    for n in range(20, 3000):
        pm = stats.tail_per_mille(n)
        assert n - stats.rank(pm, n) >= 10
        higher = [p for p in stats.TAIL_LADDER if p > pm]
        assert all(n - stats.rank(p, n) < 10 for p in higher)


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError):
        stats.tail_per_mille(19)


def test_tail_reports_value_and_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    assert stats.tail(samples, 900) == (90.0, 10)
    assert stats.tail(samples, 500) == (50.0, 50)


# -- self time ---------------------------------------------------------------------

def test_self_time_without_children_is_the_duration():
    assert stats.self_time(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_overlapping_children_once():
    # [1,3] and [2,5] overlap: together they cover [1,5].
    assert stats.self_time(0.0, 10.0, [(2.0, 5.0), (1.0, 3.0)]) == 6.0


def test_self_time_clips_children_to_the_span():
    assert stats.self_time(0.0, 10.0, [(-2.0, 1.0), (8.0, 12.0)]) == 7.0
    assert stats.self_time(0.0, 10.0, [(20.0, 30.0)]) == 10.0


def test_self_time_ignores_a_child_inside_another():
    assert stats.self_time(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == 2.0


# -- scaling to the nominal host speed -------------------------------------------

def test_scaler_divides_by_the_mean_reference_around_the_interval(monkeypatch):
    references = iter([2e-3, 4e-3, 1e-3])
    monkeypatch.setattr(speed, "reference_s", lambda: next(references))
    scaler = speed.Scaler()
    # references 2 ms before and 4 ms after: the host ran at a third of nominal
    assert scaler.scale(0.3) == pytest.approx(0.3 * speed.NOMINAL_S / 3e-3)
    # the reference after one interval is the one before the next
    assert scaler.scale(0.25) == pytest.approx(0.25 * speed.NOMINAL_S / 2.5e-3)


def test_kernel_time_is_positive_and_small():
    assert 0 < speed.reference_s() < 1.0


# -- traced output -------------------------------------------------------------------

# Per-layer metrics that must be non-zero on the workload that exercises them.
EXERCISED = {
    "lifetime": [
        "protocols.self_ms", "protocols.wait_blocks_per_op",
        "protocols.step_growth", "ledger.mine_block_ms",
        "ledger.mine_block_calls", "ledger.confirmations_ms",
        "ledger.confirmations_calls", "ledger.submit_us", "ledger.txid_evals",
        "ledger.audit_signatures_ms", "ledger.state_hash_ms",
        "ledger.mempool_high_water", "ledger.chain_height_end",
        "contract.deploy_us", "contract.init_op_us", "contract.confirm_op_us",
        "contract.next_subtree_us", "contract.new_root_stage3_us",
        "contract.hashes_per_confirm", "contract.sload_per_confirm",
        "contract.sstore_per_confirm", "client.build_next_subtree_ms",
        "client.stage_rotation_ms", "client.build_new_root_stages_ms",
        "authenticator.get_otp_us", "authenticator.new_parent_preview_ms",
        "hashing.auth_calls", "hashing.client_calls", "hashing.contract_calls",
        "hashing.ledger_calls", "signing.sign_calls", "signing.verify_calls",
        "signing.verify_us", "mnemonic.encode_calls", "mnemonic.decode_us",
    ],
    "wide-tree": [
        "client.build_confirm_ms", "client.constructor_args_ms",
        "client.bootstrap_ms", "merkle.levels_built", "merkle.pair_hashes",
        "merkle.self_ms", "hashing.client_calls",
    ],
    "attack-suite": [
        "ledger.fork_ms", "ledger.reorg_ms", "ledger.reorgs",
        "ledger.reorg_depth_max", "ledger.orphaned_txs", "ledger.revert_ratio",
        "ledger.audit_signatures_ms", "signing.verify_calls",
        "scenarios.theorem1_ms", "scenarios.theorem2_ms",
        "scenarios.theorem3_ms", "scenarios.theorem4_ms",
        "scenarios.theorem5_ms", "scenarios.theorem6_ms",
        "scenarios.depletion_ms", "scenarios.dos-pending_ms",
        "scenarios.fork-replay_ms",
    ],
    "cli-session": [
        "cli.load_ms", "cli.replay_actions_per_cmd", "cli.save_ms",
        "cli.state_bytes", "cli.read_cmd_p50_ms", "cli.write_cmd_p50_ms",
    ],
}
ALWAYS_PRESENT = ["ledger.invalid_nonce_ratio", "runtime.gc_ms",
                  "runtime.gc_gen2", "trace.overhead_latency_p50_ms"]

# Small versions of the workloads, so the test runs in seconds.
SMALL = {
    "lifetime": dict(params=TreeParams(S=128, N=16, P=1, N_S=8, L_S=1), steps=16),
    "wide-tree": dict(params=TreeParams(S=128, N=512, P=1, N_S=512, L_S=3), steps=3),
    "attack-suite": dict(seeds=1),
    "cli-session": dict(history_ops=10, commands=6),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    w = dataclasses.replace(WORKLOADS[name], **SMALL[name])
    plain, traced, tracer, problems = measure.run_workload(w, 3, 0, traced=True)
    assert problems == []
    assert [r.state_hash for r in plain] == [r.state_hash for r in traced]
    assert all(r.passed for r in plain + traced)
    metrics = measure.layer_metrics(tracer, traced, {"latency_p50_ms": 0.0})

    every = {m for names in EXERCISED.values() for m in names} | set(ALWAYS_PRESENT)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    every |= {m["name"] for m in declared["per_layer"]}
    assert every <= set(metrics)
    assert all(measure.unit_of(m["name"]) == m["unit"] for m in declared["per_layer"])
    assert [m for m in EXERCISED[name] if not metrics[m] > 0] == []
