"""Spans and counters around the package's public functions, for traced runs.

`Tracer.install()` replaces each traced function at every name its callers
bind (a module attribute imported with `from .x import f`, or a class
attribute) with a wrapper that records a span `[name, start, end, parent,
step_id]` in memory or bumps a counter; `uninstall()` puts the originals
back. Hashes are counted per party by a counting `HashFn` placed in the
public `base` field of the authenticator and the client; contract hashes
come from the receipts' `CallTrace`. Nothing under the package changes, and
an untraced round runs with no wrapper installed.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import stats
from otpwallet import (authenticator, cli, client, contract, ledger, merkle,
                       mnemonic, protocols, scenarios, signing)

# Span name -> [(object, attribute)], one entry per binding site.
SPANS = {
    "protocols.run_bootstrap": [(protocols, "run_bootstrap"), (scenarios, "run_bootstrap")],
    "protocols.bootstrap_system": [(protocols, "bootstrap_system"), (cli, "bootstrap_system")],
    "protocols.run_operation": [(protocols, "run_operation"), (scenarios, "run_operation")],
    "protocols.run_next_subtree": [(protocols, "run_next_subtree"), (scenarios, "run_next_subtree"),
                                   (cli, "run_next_subtree")],
    "protocols.run_new_root": [(protocols, "run_new_root"), (scenarios, "run_new_root"),
                               (cli, "run_new_root")],
    "protocols.submit_signed": [(protocols, "submit_signed"), (cli, "submit_signed")],
    "protocols.wait_confirmations": [(protocols, "wait_confirmations")],
    "ledger.mine_block": [(ledger.Ledger, "mine_block")],
    "ledger.submit": [(ledger.Ledger, "submit")],
    "ledger.confirmations": [(ledger.Ledger, "confirmations")],
    "ledger.receipt": [(ledger.Ledger, "receipt")],
    "ledger.fork": [(ledger.Ledger, "fork")],
    "ledger.reorg": [(ledger.Ledger, "reorg")],
    "ledger.audit_signatures": [(ledger.Ledger, "audit_signatures")],
    "ledger.state_hash": [(ledger.Ledger, "state_hash")],
    "ledger.event_log": [(ledger.Ledger, "event_log")],
    "contract.deploy": [(contract.WalletContract, "__init__")],
    "contract.init_op": [(contract.WalletContract, "init_op")],
    "contract.confirm_op": [(contract.WalletContract, "confirm_op")],
    "contract.next_subtree": [(contract.WalletContract, "next_subtree")],
    "contract.new_root_stage1": [(contract.WalletContract, "new_root_stage1")],
    "contract.new_root_stage2": [(contract.WalletContract, "new_root_stage2")],
    "contract.new_root_stage3": [(contract.WalletContract, "new_root_stage3")],
    "client.bootstrap": [(client.ClientStore, "bootstrap_secure")],
    "client.constructor_args": [(client.ClientStore, "constructor_args")],
    "client.build_confirm": [(client.ClientStore, "build_confirm")],
    "client.build_next_subtree": [(client.ClientStore, "build_next_subtree")],
    "client.stage_rotation": [(client.ClientStore, "stage_rotation")],
    "client.build_new_root_stages": [(client.ClientStore, "build_new_root_stages")],
    "merkle.all_leaves": [(client, "all_leaves"), (authenticator, "all_leaves"),
                          (scenarios, "all_leaves")],
    "merkle.build_levels": [(merkle, "build_levels")],
    "merkle.reduce_mt": [(client, "reduce_mt"), (authenticator, "reduce_mt"),
                         (contract, "reduce_mt"), (scenarios, "reduce_mt")],
    "merkle.gen_proof": [(merkle, "gen_proof"), (client, "gen_proof")],
    "merkle.sublayer_of": [(client, "sublayer_of"), (scenarios, "sublayer_of")],
    "merkle.subtree_root_proof": [(client, "subtree_root_proof"),
                                  (scenarios, "subtree_root_proof")],
    "merkle.proof_to_sublayer": [(client, "proof_to_sublayer")],
    "authenticator.get_otp": [(authenticator.Authenticator, "get_otp")],
    "authenticator.display_root": [(authenticator.Authenticator, "display_root")],
    "authenticator.new_parent_preview": [(authenticator.Authenticator, "new_parent_preview")],
    "signing.verify": [(signing, "verify")],
    "mnemonic.decode": [(mnemonic, "decode")],
    "cli.load": [(cli.World, "load")],
    "cli.save": [(cli.World, "save")],
    "cli.replay": [(cli.World, "replay")],
}

# Counter name -> [(object, attribute)]; counted without a span.
COUNTS = {
    "merkle.pair_hashes": [(merkle, "pair_hash")],
    "ledger.txid_evals": [(ledger.Transaction, "txid")],
    "hashing.ledger_calls": [(ledger, "truncated_hash")],
    "signing.sign_calls": [(signing.KeyPair, "sign")],
    "mnemonic.encode_calls": [(mnemonic, "encode")],
}

def _wrap_raw(raw, make):
    """Apply `make` to the function inside a class attribute or module
    attribute, keeping classmethod and property descriptors intact."""
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    if isinstance(raw, property):
        return property(make(raw.fget))
    return make(raw)


def _raw(obj, attr):
    return obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step_id: int | None = None
        self.counts: Counter = Counter()     # work done inside timed steps
        self.stats: Counter = Counter()      # ledger and runtime tallies
        self.maxima: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.auth_hash = self._counting_hash("hashing.auth_calls")
        self.client_hash = self._counting_hash("hashing.client_calls")

    # -- wrappers ---------------------------------------------------------------

    def _counting_hash(self, name):
        counts, tracer = self.counts, self

        def counted(data: bytes) -> bytes:
            if tracer.step_id is not None:
                counts[name] += 1
            return hashlib.sha3_256(data).digest()
        return counted

    def _span(self, name, fn, before=None, after=None):
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   tracer.step_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.step_id is not None:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, obj, attr, make):
        raw = _raw(obj, attr)
        self._patched.append((obj, attr, raw))
        setattr(obj, attr, _wrap_raw(raw, make))

    # -- hooks that read outcomes at the ledger and bootstrap boundaries ----------

    def _before_mine(self, ledger_, *args, **kwargs):
        self.maxima["ledger.mempool_high_water"] = max(
            self.maxima["ledger.mempool_high_water"], len(ledger_.mempool))

    def _after_mine(self, block, *args, **kwargs):
        s = self.stats
        for r in block.receipts:
            s["receipts"] += 1
            if r.status == "invalid-nonce":
                s["invalid_nonce"] += 1
            else:
                s["executed"] += 1
                s["reverted"] += r.status.startswith("revert:")
            if r.trace is not None and self.step_id is not None:
                self.counts["hashing.contract_calls"] += r.trace.hashes
            if r.fn == "confirm_op" and r.status == "ok":
                s["confirms"] += 1
                s["confirm_hashes"] += r.trace.hashes
                s["confirm_sload"] += r.trace.sload
                s["confirm_sstore"] += r.trace.sstore_new + r.trace.sstore_update
        self.maxima["ledger.chain_height_end"] = max(
            self.maxima["ledger.chain_height_end"], block.height)

    def _before_reorg(self, ledger_, branch, *args, **kwargs):
        old, new = ledger_.chain, ledger_.branches.get(branch, [])
        common = 0
        for a, b in zip(old, new):
            if a is not b:
                break
            common += 1
        self.stats["reorgs"] += 1
        self.maxima["ledger.reorg_depth_max"] = max(
            self.maxima["ledger.reorg_depth_max"], len(old) - common)
        self.stats["mempool_before_reorg"] = len(ledger_.mempool)

    def _after_reorg(self, result, ledger_, *args, **kwargs):
        self.stats["orphaned_txs"] += (len(ledger_.mempool)
                                       - self.stats["mempool_before_reorg"])

    def _after_bootstrap(self, system, *args, **kwargs):
        self.attach(system)

    def _before_replay(self, world, *args, **kwargs):
        if self.step_id is not None:
            self.counts["cli.replayed_actions"] += len(world.data["actions"])

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self.step_id is not None:
            self.counts["runtime.gc_ms"] += (perf_counter() - self._gc_start) * 1e3
            self.counts["runtime.gc_gen2"] += info["generation"] == 2

    # -- lifecycle ------------------------------------------------------------------

    def attach(self, system) -> None:
        """Count the authenticator's and the client's base-hash calls."""
        system.authenticator.base = self.auth_hash
        system.client.base = self.client_hash

    def install(self) -> None:
        hooks = {
            "ledger.mine_block": (self._before_mine, self._after_mine),
            "ledger.reorg": (self._before_reorg, self._after_reorg),
            "protocols.run_bootstrap": (None, self._after_bootstrap),
            "protocols.bootstrap_system": (None, self._after_bootstrap),
            "cli.replay": (self._before_replay, None),
        }
        for name, sites in SPANS.items():
            before, after = hooks.get(name, (None, None))
            for obj, attr in sites:
                self._patch(obj, attr, functools.partial(
                    self._span, name, before=before, after=after))
        for name, sites in COUNTS.items():
            for obj, attr in sites:
                self._patch(obj, attr, functools.partial(self._counter, name))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for obj, attr, raw in reversed(self._patched):
            setattr(obj, attr, raw)
        self._patched.clear()

    def open_step(self, step_id: int, kind: str) -> list:
        self.step_id = step_id
        rec = [f"step.{kind}", perf_counter(), 0.0, -1, step_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close_step(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()
        self.step_id = None

    # -- output ------------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, step_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step_id": step_id}) + "\n")

    def span_totals(self):
        """Per span name: calls, inclusive seconds and self seconds, split
        into all calls and calls inside timed steps."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        total = defaultdict(lambda: [0, 0.0, 0.0])
        in_step = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, step_id) in enumerate(self.spans):
            own = stats.self_time(start, end, children.get(i, []))
            for bucket in (total, in_step) if step_id is not None else (total,):
                acc = bucket[name]
                acc[0] += 1
                acc[1] += end - start
                acc[2] += own
        return total, in_step

    def ancestor_counts(self, name: str, ancestor: str) -> int:
        """Spans called `name` that run inside a span called `ancestor`."""
        n = 0
        for rec in self.spans:
            if rec[0] != name:
                continue
            parent = rec[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n
