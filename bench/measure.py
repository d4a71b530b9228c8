"""Runs one workload and turns its rounds into end-to-end and per-layer
metrics, a determinism and machine-noise record, and the result line."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
from pathlib import Path
from time import perf_counter

import stats
from otpwallet import scenarios
from tracing import Tracer
from workloads import OUT, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REF_LOOP_ITERATIONS = 100_000
HARD_LIMIT_S = 120          # no new round starts after this
# Span-name prefixes whose self time per step the traced report sums.
LAYERS = ("protocols", "ledger", "contract", "client", "merkle",
          "authenticator", "signing", "mnemonic", "cli")


def ref_loop_s() -> float:
    """A fixed SHA3 loop: machine speed, apart from the code under test."""
    buf = bytes(range(64))
    t0 = perf_counter()
    for _ in range(REF_LOOP_ITERATIONS):
        buf = hashlib.sha3_256(buf).digest()
    return perf_counter() - t0


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_per_s", "1/s"),
                         ("_bytes", "bytes"), ("_ratio", "ratio"),
                         ("_growth", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def failed_steps(rounds) -> int:
    """Failed steps; a round whose end checks fail fails all its steps."""
    return sum(len(r.steps) if not r.passed else
               sum(not ok for _, _, ok in r.steps) for r in rounds)


def end_to_end(w, rounds, raw: bool = False) -> tuple[dict, dict]:
    """The metrics, and where the tail was taken. The percentile of the tail
    is fixed by the sample count an untraced run is guaranteed, so runs that
    fit more rounds, and traced runs, report the same percentile. Times are
    at nominal host speed, or as the clock read them when `raw`."""
    if raw:
        times = [dt for r in rounds for dt in r.raw_step_s]
        setups = [r.raw_setup_s for r in rounds]
    else:
        times = [dt for r in rounds for _, dt, _ in r.steps]
        setups = [r.setup_s for r in rounds]
    pm = stats.tail_per_mille(w.round_steps * w.min_rounds)
    tail, beyond = stats.tail(times, pm)
    return {
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "throughput_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"percentile": pm / 10, "samples": len(times), "beyond": beyond}


def step_growth(rounds) -> float:
    """Median of the last tenth of transfer steps over the first tenth,
    taken per round; the median over rounds."""
    ratios = []
    for r in rounds:
        times = [dt for kind, dt, _ in r.steps if kind == "transfer"]
        tenth = len(times) // 10
        if tenth:
            ratios.append(statistics.median(times[-tenth:])
                          / statistics.median(times[:tenth]))
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(tracer, rounds, overhead: dict) -> dict:
    total, in_step = tracer.span_totals()
    steps = sum(len(r.steps) for r in rounds)
    counts, st, mx = tracer.counts, tracer.stats, tracer.maxima

    def per_call(name, scale):
        calls, incl, _ = total.get(name, (0, 0.0, 0.0))
        return incl / calls * scale if calls else 0.0

    def per_step(name, field=1, scale=1e3):
        return in_step.get(name, (0, 0.0, 0.0))[field] / steps * scale

    def self_ms(prefix):
        return sum(v[2] for k, v in in_step.items()
                   if k.startswith(prefix)) / steps * 1e3

    def cmd_p50(kind):
        times = [dt for r in rounds for k, dt, _ in r.steps if k == kind]
        return statistics.median(times) * 1e3 if times else 0.0

    operations = total.get("protocols.run_operation", (0,))[0]
    confirms = st["confirms"] or 1
    m = {
        "protocols.wait_blocks_per_op": (tracer.ancestor_counts(
            "ledger.mine_block", "protocols.wait_confirmations") / operations
            if operations else 0.0),
        "protocols.step_growth": step_growth(rounds),
        "ledger.mine_block_ms": per_step("ledger.mine_block", 2),
        "ledger.mine_block_calls": per_step("ledger.mine_block", 0, 1),
        "ledger.confirmations_ms": per_step("ledger.confirmations"),
        "ledger.confirmations_calls": per_step("ledger.confirmations", 0, 1),
        "ledger.submit_us": per_call("ledger.submit", 1e6),
        "ledger.txid_evals": counts["ledger.txid_evals"] / steps,
        "ledger.fork_ms": per_step("ledger.fork"),
        "ledger.reorg_ms": per_step("ledger.reorg"),
        "ledger.reorgs": st["reorgs"] / steps,
        "ledger.reorg_depth_max": mx["ledger.reorg_depth_max"],
        "ledger.orphaned_txs": st["orphaned_txs"] / steps,
        "ledger.revert_ratio": st["reverted"] / (st["executed"] or 1),
        "ledger.invalid_nonce_ratio": st["invalid_nonce"] / (st["receipts"] or 1),
        "ledger.mempool_high_water": mx["ledger.mempool_high_water"],
        "ledger.audit_signatures_ms": per_call("ledger.audit_signatures", 1e3),
        "ledger.state_hash_ms": per_call("ledger.state_hash", 1e3),
        "ledger.chain_height_end": mx["ledger.chain_height_end"],
        "contract.deploy_us": per_call("contract.deploy", 1e6),
        "contract.init_op_us": per_call("contract.init_op", 1e6),
        "contract.confirm_op_us": per_call("contract.confirm_op", 1e6),
        "contract.next_subtree_us": per_call("contract.next_subtree", 1e6),
        "contract.new_root_stage3_us": per_call("contract.new_root_stage3", 1e6),
        "contract.hashes_per_confirm": st["confirm_hashes"] / confirms,
        "contract.sload_per_confirm": st["confirm_sload"] / confirms,
        "contract.sstore_per_confirm": st["confirm_sstore"] / confirms,
        "client.build_confirm_ms": per_call("client.build_confirm", 1e3),
        "client.build_next_subtree_ms": per_call("client.build_next_subtree", 1e3),
        "client.stage_rotation_ms": per_call("client.stage_rotation", 1e3),
        "client.build_new_root_stages_ms": per_call("client.build_new_root_stages", 1e3),
        "client.constructor_args_ms": per_call("client.constructor_args", 1e3),
        "client.bootstrap_ms": per_call("client.bootstrap", 1e3),
        "merkle.levels_built": (per_step("merkle.build_levels", 0, 1)
                                + per_step("merkle.reduce_mt", 0, 1)),
        "merkle.pair_hashes": counts["merkle.pair_hashes"] / steps,
        "authenticator.get_otp_us": per_call("authenticator.get_otp", 1e6),
        "authenticator.new_parent_preview_ms": per_call(
            "authenticator.new_parent_preview", 1e3),
        "hashing.auth_calls": counts["hashing.auth_calls"] / steps,
        "hashing.client_calls": counts["hashing.client_calls"] / steps,
        "hashing.contract_calls": counts["hashing.contract_calls"] / steps,
        "hashing.ledger_calls": counts["hashing.ledger_calls"] / steps,
        "signing.sign_calls": counts["signing.sign_calls"] / steps,
        "signing.verify_calls": per_step("signing.verify", 0, 1),
        "signing.verify_us": per_call("signing.verify", 1e6),
        "mnemonic.encode_calls": counts["mnemonic.encode_calls"] / steps,
        "mnemonic.decode_us": per_call("mnemonic.decode", 1e6),
    }
    for name in sorted(scenarios.SCENARIOS):
        m[f"scenarios.{name}_ms"] = per_call(f"step.scenario.{name}", 1e3)
    m.update({
        "cli.load_ms": per_call("cli.load", 1e3),
        "cli.replay_actions_per_cmd": counts["cli.replayed_actions"] / steps,
        "cli.save_ms": per_call("cli.save", 1e3),
        "cli.state_bytes": max((r.notes.get("cli.state_bytes", 0) for r in rounds)),
        "cli.read_cmd_p50_ms": cmd_p50("cli.read"),
        "cli.write_cmd_p50_ms": cmd_p50("cli.write"),
        "runtime.gc_ms": counts["runtime.gc_ms"] / steps,
        "runtime.gc_gen2": counts["runtime.gc_gen2"] / steps,
    })
    m.update({f"{layer}.self_ms": self_ms(layer + ".") for layer in LAYERS})
    m.update({f"trace.overhead_{k}": v for k, v in overhead.items()})
    return m


def run_workload(w, seed: int, seconds: float, traced: bool):
    """At least `min_rounds` rounds, then more while the next one is
    expected to end within about `seconds` (half a round of overrun).

    Returns (rounds measured untraced, rounds measured traced, tracer,
    determinism problems).
    """
    plain, traced_rounds, problems = [], [], []
    tracer = Tracer() if traced else None
    t0 = perf_counter()
    need = 1 if traced else w.min_rounds     # a traced run needs one pair
    r, last = 0, 0.0
    while r < need or (
            perf_counter() - t0 + last / 2 < seconds
            and perf_counter() - t0 < HARD_LIMIT_S):
        started = perf_counter()
        seed_r = f"{w.name}:{seed}:{r}"
        plain.append(w.run_round(seed_r))
        gc.collect()
        if traced:
            tracer.install()
            try:
                traced_rounds.append(w.run_round(
                    seed_r, tracer, sum(len(x.steps) for x in traced_rounds)))
            finally:
                tracer.uninstall()
            gc.collect()
            a, b = plain[-1], traced_rounds[-1]
            if (a.state_hash, a.event_digest) != (b.state_hash, b.event_digest):
                problems.append(f"round {r}: traced run diverged from untraced")
        r, last = r + 1, perf_counter() - started
    return plain, traced_rounds, tracer, problems


def record(w, seed, rounds, ref_before, ref_after) -> dict:
    first = rounds[0]
    return {
        "workload": w.name, "seed": seed, "rounds": len(rounds),
        "round_steps": [len(r.steps) for r in rounds],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "params": {k: (v.as_dict() if hasattr(v, "as_dict") else v)
                   for k, v in vars(w).items() if k != "name"},
        "ref_loop_s_before": ref_before, "ref_loop_s_after": ref_after,
        "state_hash": first.state_hash, "event_log_sha256": first.event_digest,
        "failed_checks": sorted({label for r in rounds
                                 for label, ok in r.checks if not ok}),
        "errors": [e for r in rounds for e in r.notes.get("errors", [])][:10],
    }


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    declared = declared_metrics()
    OUT.mkdir(exist_ok=True)
    ref_before = ref_loop_s()
    plain, traced_rounds, tracer, problems = run_workload(
        w, args.seed, args.seconds, args.trace == 1)
    ref_after = ref_loop_s()
    e2e, tail = end_to_end(w, plain)
    rounds = plain + traced_rounds
    attempted = sum(len(r.steps) for r in rounds)
    failed = failed_steps(rounds)
    rec = record(w, args.seed, plain, ref_before, ref_after)
    rec["determinism_problems"] = problems
    correct = failed == 0 and not problems and all(r.passed for r in rounds)

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(plain)}  steps {tail['samples']}")
    for name, unit in declared["end_to_end"].items():
        note = (f"  (p{tail['percentile']:g}, {tail['beyond']} of "
                f"{tail['samples']} samples beyond)"
                if name == "latency_tail_ms" else "")
        print(f"  {name:<20} {e2e[name]:>12.4f} {unit}{note}")
    print(f"  {'fail_ratio':<20} {failed / attempted:>12.4f} ratio"
          f"  ({failed} of {attempted} steps)")
    raw_e2e, _ = end_to_end(w, plain, raw=True)
    print("  raw clock: " + "  ".join(
        f"{k} {raw_e2e[k]:.4f}" for k in
        ("latency_p50_ms", "latency_tail_ms", "throughput_per_s", "setup_s")))
    rec["end_to_end"] = e2e
    rec["raw_end_to_end"] = raw_e2e
    rec["tail"] = tail
    rec["fail_ratio"] = failed / attempted
    metrics, units = e2e, declared["end_to_end"]

    if tracer is not None:
        traced_e2e, _ = end_to_end(w, traced_rounds)
        overhead = {k: traced_e2e[k] - e2e[k] for k in
                    ("latency_p50_ms", "latency_tail_ms", "throughput_per_s")}
        metrics = layer_metrics(tracer, traced_rounds, overhead)
        units = declared["per_layer"]
        stem = f"{w.name}-seed{args.seed}"
        tracer.write_spans(OUT / f"spans-{stem}.jsonl")
        rec["per_layer"] = metrics
        print(f"  per-layer ({len(tracer.spans)} spans in "
              f"out/spans-{stem}.jsonl):")
        for name, value in metrics.items():
            print(f"    {name:<40} {value:>14.4f} {unit_of(name)}")
    print("record " + json.dumps(rec, sort_keys=True))
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


