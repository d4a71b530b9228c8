"""Cost model: metered counts vs closed forms, trade-off structure."""

import pytest

from otpwallet import signing
from otpwallet.client import ClientStore
from otpwallet.contract import OpType
from otpwallet.cost_model import (
    DEFAULT_TABLE,
    Counts,
    confirm_counts,
    confirm_mean_counts,
    crossover,
    deploy_counts,
    init_counts,
    meter,
    optimum_cache_depth,
    security_note,
    sweep,
    transfer_cost,
)
from otpwallet.ledger import Ledger, Transaction
from otpwallet.merkle import TreeParams

K = bytes(range(16))


def drive_wallet(params, n_ops):
    """Run deploy + n_ops init/confirm pairs through the ledger; return
    the ok-status call traces."""
    from otpwallet.authenticator import Authenticator
    kp = signing.keygen(bytes([3]) * 32)
    owner = signing.account_of(kp.public)
    ledger = Ledger(initial_accounts={owner: 10_000})
    store = ClientStore.bootstrap_secure(K, params)
    auth = Authenticator(K, params)
    root, sublayer, proof_sr = store.constructor_args()

    def send(call, signed=False):
        tx = Transaction(owner, call, fee=1, nonce=ledger.next_nonce(owner))
        if signed:
            tx.signature = kp.sign(tx.signing_bytes())
        txid = ledger.submit(tx)
        ledger.mine_block()
        receipt = ledger.receipt(txid)
        assert receipt.status == "ok", receipt.status
        return receipt

    receipt = send({"fn": "deploy_wallet", "root": root, "pk": kp.public,
                    "sublayer": sublayer, "proof_sr": proof_sr,
                    "params": params})
    cid = receipt.result
    send({"fn": "transfer", "to": cid, "amount": 5_000})

    traces = [receipt.trace]
    for i in range(n_ops):
        r = send({"fn": "init_op", "contract": cid, "addr": "acct:bob",
                  "param": 1, "type": OpType.TRANSFER}, signed=True)
        traces.append(r.trace)
        payload = store.build_confirm(i, auth.get_otp(i))
        r = send({"fn": "confirm_op", "contract": cid, "otp": payload.otp,
                  "proof": payload.proof, "op_id": i})
        traces.append(r.trace)
    return traces


def as_counts(trace):
    return Counts.from_trace(trace)


def test_metered_counts_match_closed_forms_per_operation():
    params = TreeParams(S=128, N=64, P=2, N_S=64, L_S=3)
    n_ops = 16
    traces = drive_wallet(params, n_ops)
    assert as_counts(traces[0]) == deploy_counts(params)
    for i in range(n_ops):
        assert as_counts(traces[1 + 2 * i]) == init_counts(params), f"init {i}"
        assert as_counts(traces[2 + 2 * i]) == confirm_counts(i, params), \
            f"confirm {i}"


def test_confirm_hash_count_is_chain_plus_fold():
    params = TreeParams(S=128, N=32, P=4, N_S=32, L_S=2)
    traces = drive_wallet(params, 8)
    for i in range(8):
        a = ((i % params.N_S) * params.P) // params.N_S
        expected = (a + 1) + (params.H_S - params.L_S)
        assert traces[2 + 2 * i].hashes == expected


def test_metered_hashes_match_closed_forms_exhaustively():
    # All layer-dependent confirm hash counts for H_S <= 6, P <= 8, driven
    # through a live wallet (one confirmation per iteration layer).
    from harness import World
    for p in (1, 2, 4, 8):
        for h_s in range(7):
            n_s = p * 2 ** h_s
            for l_s in range(0, h_s + 1, max(1, h_s // 2)):
                params = TreeParams(S=128, N=n_s, P=p, N_S=n_s, L_S=l_s)
                world = World(params)
                layer_first = [(layer - 1) * (n_s // p) for layer in range(1, p + 1)]
                usable = [i for i in layer_first if i < n_s - 1]
                for _ in range(max(usable) + 1 if usable else 0):
                    world.init(param=0)
                for i in usable:
                    payload = world.store.build_confirm(i, world.otp(i))
                    env = world.env(world.owner)
                    trace = env.trace
                    world.wallet.confirm_op(payload.otp, payload.proof, i, env)
                    a = ((i % n_s) * p) // n_s
                    assert trace.hashes == (a + 1) + (h_s - l_s), \
                        (p, h_s, l_s, i)


def test_minimal_confirm_is_one_hash():
    params = TreeParams(S=128, N=8, P=1, N_S=8, L_S=3)   # L_S = H_S
    traces = drive_wallet(params, 4)
    assert all(traces[2 + 2 * i].hashes == 1 for i in range(4))


def test_deployment_storage_writes_grow_with_cache_size():
    writes = []
    for L in range(7):
        params = TreeParams(S=128, N=128, P=1, N_S=128, L_S=L)
        writes.append(deploy_counts(params).sstore_new)
    assert writes == [8 + 2 ** L for L in range(7)]
    assert all(b - a == 2 ** i for i, (a, b) in enumerate(zip(writes, writes[1:])))


def test_ot_cost_equals_brute_force_metered_mean():
    params = TreeParams(S=128, N=16, P=2, N_S=16, L_S=2)
    n_ops = params.N - 1                       # last slot is reserved
    traces = drive_wallet(params, n_ops)
    deploy = as_counts(traces[0]).cost(DEFAULT_TABLE)
    per_op = [as_counts(traces[1 + 2 * i]).cost(DEFAULT_TABLE)
              + as_counts(traces[2 + 2 * i]).cost(DEFAULT_TABLE)
              for i in range(n_ops)]
    brute = sum(per_op) / n_ops + deploy / n_ops
    closed = (sum(init_counts(params).cost(DEFAULT_TABLE)
                  + confirm_counts(i, params).cost(DEFAULT_TABLE)
                  for i in range(n_ops)) / n_ops) + deploy / n_ops
    assert brute == pytest.approx(closed, rel=1e-12)
    report = meter(traces, DEFAULT_TABLE, n_ops=n_ops)
    assert report.deployment == pytest.approx(deploy)
    assert report.ot_cost == pytest.approx(brute, rel=1e-12)


def test_mean_confirm_matches_per_op_average():
    params = TreeParams(S=128, N=64, P=4, N_S=64, L_S=2)
    mean, mean_hashes = confirm_mean_counts(params)
    per_op = [confirm_counts(i, params).cost(DEFAULT_TABLE)
              for i in range(params.N)]
    analytic = mean.cost(DEFAULT_TABLE) + mean_hashes * DEFAULT_TABLE.hash_eval
    assert analytic == pytest.approx(sum(per_op) / len(per_op), rel=1e-12)


def test_amortized_deployment_halves_when_n_doubles():
    # Deployment cost depends on L alone, so its amortized share is
    # exactly halved at 2N and strictly shrinks as N grows.
    deploy_128 = deploy_counts(
        TreeParams(S=128, N=128, P=1, N_S=128, L_S=3)).cost(DEFAULT_TABLE)
    deploy_256 = deploy_counts(
        TreeParams(S=128, N=256, P=1, N_S=256, L_S=3)).cost(DEFAULT_TABLE)
    assert deploy_128 == deploy_256
    terms = [deploy_128 / n for n in (128, 256, 512, 1024)]
    assert terms[1] == terms[0] / 2
    assert all(a > b for a, b in zip(terms, terms[1:]))


def test_interior_optimum_for_realistic_heights():
    for H in (7, 8, 9, 10):
        best, costs = optimum_cache_depth(H, P=1)
        assert 0 < best < H, f"H={H}: optimum at {best}"
        assert costs[best] < costs[0] and costs[best] < costs[H]


def test_deploy_increases_and_confirm_decreases_in_cache_depth():
    deps, confs = [], []
    for L in range(8):
        params = TreeParams(S=128, N=128, P=1, N_S=128, L_S=L)
        deps.append(deploy_counts(params).cost(DEFAULT_TABLE))
        mean, mh = confirm_mean_counts(params)
        confs.append(mean.cost(DEFAULT_TABLE) + mh * DEFAULT_TABLE.hash_eval)
    assert all(a < b for a, b in zip(deps, deps[1:]))
    assert all(a > b for a, b in zip(confs, confs[1:]))


def test_crossover_exists_and_is_finite():
    for H in (7, 8, 9):
        best, _ = optimum_cache_depth(H, P=1)
        t = crossover(best, 2 ** H, 1)
        assert t is not None and 1 <= t <= 2 ** H


def test_longer_chains_add_half_p_hashes_on_average():
    base = confirm_mean_counts(TreeParams(S=128, N=64, P=1, N_S=64, L_S=0))[1]
    for P in (2, 4, 8):
        params = TreeParams(S=128, N=64 * P, P=P, N_S=64 * P, L_S=0)
        assert confirm_mean_counts(params)[1] - base == (P - 1) / 2


def test_sweep_is_deterministic_csv():
    rows1 = sweep([7, 8], [1], None)
    rows2 = sweep([7, 8], [1], None)
    assert rows1 == rows2
    assert rows1[0] == "H,HS,P,L,N,deploy,init_mean,confirm_mean,ot_cost"
    assert len(rows1) == 1 + 8 + 9


def test_security_note_contains_the_fixed_figures():
    lines = security_note(128, 64)
    text = "\n".join(lines)
    assert "S=136" in text and "13 mnemonic words" in text
    assert "166" in text and "98" in text and "205" in text
    assert security_note(128, 64) == lines        # pure formatting
