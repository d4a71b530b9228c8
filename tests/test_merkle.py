"""Tree construction, proofs, verifier reconstructions, index arithmetic.

The oracle here is an independent top-down recursive implementation built
straight on hashlib; the production code reduces bottom-up. Both follow
the scheme's definition that the low bit of each child is parity space
and stays outside hash coverage.
"""

import hashlib
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otpwallet import merkle
from otpwallet.hashing import (DEFAULT_BASE_HASH, DomainError, chain_extend,
                               chain_step, prf, truncated_hash)
from otpwallet.merkle import (
    MerkleProof,
    TreeParams,
    all_leaves,
    alpha,
    beta,
    build_levels,
    chain_offset,
    derive_idx,
    derive_node_in_cache,
    derive_root_hash,
    dump_leaf_file,
    expected_idx_in_cache,
    expected_idx_in_cache_loop,
    expected_parity_pattern,
    gen_proof,
    layer_of,
    lsb,
    pair_hash,
    parse_leaf_file,
    proof_to_sublayer,
    reduce_mt,
    seed_levels,
    sublayer_of,
    subtree_consistency,
    subtree_root_proof,
    with_lsb,
)

K = bytes(range(16))
PARAMS = TreeParams(S=128, N=16, P=2, N_S=8, L_S=1)


# -- independent oracle -------------------------------------------------------

def _mask(d: bytes) -> bytes:
    return d[:-1] + bytes([d[-1] & 0xFE])


def oracle_root(leaves):
    """Top-down recursive root, straight on hashlib."""
    if len(leaves) == 1:
        return leaves[0]
    mid = len(leaves) // 2
    left, right = oracle_root(leaves[:mid]), oracle_root(leaves[mid:])
    return hashlib.sha3_256(_mask(left) + _mask(right)).digest()[:len(left)]


def oracle_verify(leaf, index, proof, root):
    """Fold using the leaf index for ordering, ignoring parity bits."""
    node = leaf
    for sib in proof.siblings:
        pair = (node, sib) if index % 2 == 0 else (sib, node)
        node = hashlib.sha3_256(_mask(pair[0]) + _mask(pair[1])).digest()[:len(leaf)]
        index //= 2
    return node == root


def rand_leaves(n, seed=0):
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(16)) for _ in range(n)]


# -- reduce_mt ---------------------------------------------------------------

def test_reduce_single_node_is_identity():
    node = truncated_hash(b"n")
    assert reduce_mt([node]) == node


def test_reduce_pair_is_one_hash_of_masked_children():
    a, b = truncated_hash(b"a"), truncated_hash(b"b")
    assert reduce_mt([a, b]) == truncated_hash(_mask(a) + _mask(b))


def test_reduce_pair_even_lsb_matches_plain_concatenation():
    # With the parity slot already clear the pair hash is the plain
    # concatenation hash.
    a = with_lsb(truncated_hash(b"a"), 0)
    b = with_lsb(truncated_hash(b"b"), 0)
    assert reduce_mt([a, b]) == truncated_hash(a + b)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
def test_reduce_matches_oracle(n):
    leaves = rand_leaves(n, seed=n)
    assert reduce_mt(leaves) == oracle_root(leaves)


def test_reduce_rejects_non_power_of_two():
    with pytest.raises(DomainError):
        reduce_mt(rand_leaves(3))


@settings(max_examples=30)
@given(st.integers(0, 5), st.integers(0, 2**30))
def test_reduce_matches_oracle_property(height, seed):
    leaves = rand_leaves(2 ** height, seed)
    assert reduce_mt(leaves) == oracle_root(leaves)


# -- gen_proof / folding ------------------------------------------------------

def test_two_leaf_proof_for_leaf_zero():
    leaves = rand_leaves(2)
    proof = gen_proof(leaves, 0, 0)
    assert len(proof) == 1
    assert lsb(proof.siblings[0]) == 1          # sibling is the right child
    assert proof.siblings[0] == with_lsb(leaves[1], 1)


def test_stop_depth_equal_to_height_gives_empty_proof():
    leaves = rand_leaves(8)
    assert len(gen_proof(leaves, 3, 3)) == 0


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_every_proof_reproduces_the_oracle_root(n):
    leaves = rand_leaves(n, seed=100 + n)
    root = reduce_mt(leaves)
    assert root == oracle_root(leaves)
    for idx in range(n):
        proof = gen_proof(leaves, idx, 0)
        assert oracle_verify(leaves[idx], idx, proof, root)


def test_gen_proof_rejects_bad_index():
    for idx, stop_depth in ((4, 0), (-1, 0), (0, -1), (0, 3)):
        with pytest.raises(DomainError):
            gen_proof(rand_leaves(4), idx, stop_depth)


# -- parity-derived indexes -----------------------------------------------------

def test_leftmost_leaf_derives_all_ones():
    leaves = rand_leaves(8)
    proof = gen_proof(leaves, 0, 0)
    assert derive_idx(proof) == 2 ** 3 - 1


def test_empty_proof_derives_zero():
    assert derive_idx(MerkleProof(())) == 0


def test_derived_index_is_complement_of_position():
    leaves = rand_leaves(16)
    for idx in range(16):
        proof = gen_proof(leaves, idx, 0)
        assert derive_idx(proof) == expected_parity_pattern(idx, 4)


# -- chain index arithmetic ------------------------------------------------------

def test_alpha_beta_map_matches_frozen_enumeration():
    # Direct evaluation of the index expressions for N=16, N_S=8, P=2.
    expected = [(1, 0), (1, 1), (1, 2), (1, 3), (0, 0), (0, 1), (0, 2), (0, 3),
                (1, 4), (1, 5), (1, 6), (1, 7), (0, 4), (0, 5), (0, 6), (0, 7)]
    got = [(alpha(i, PARAMS), beta(i, PARAMS)) for i in range(16)]
    assert got == expected


def test_first_and_boundary_operations():
    assert alpha(0, PARAMS) == PARAMS.P - 1 and beta(0, PARAMS) == 0
    i = PARAMS.N_S - 1
    assert alpha(i, PARAMS) == 0
    assert beta(i, PARAMS) == PARAMS.subtree_leaves - 1


def test_complementarity_small():
    for i in range(PARAMS.N):
        assert alpha(i, PARAMS) + chain_offset(i, PARAMS) + 1 == PARAMS.P


def test_layer_of_increases_within_a_subtree():
    layers = [layer_of(i, PARAMS) for i in range(PARAMS.N_S)]
    assert layers == sorted(layers)
    assert layers[0] == 1 and layers[-1] == PARAMS.P


# -- leaves ------------------------------------------------------------------------

def test_leaf_of_chain_is_chain_end():
    start = prf(K, 3)
    assert all_leaves(K, PARAMS)[3] == chain_extend(start, 0, PARAMS.P)


def test_leaf_with_p1_is_hash_of_the_otp():
    params = TreeParams(S=128, N=8, P=1, N_S=8, L_S=0)
    otp = prf(K, 2)
    assert all_leaves(K, params)[2] == chain_step(otp, 1)


def test_leaf_determinism_and_generation_offset():
    assert all_leaves(K, PARAMS, eta=0) == all_leaves(K, PARAMS, eta=0)
    assert all_leaves(K, PARAMS, eta=0)[1] != all_leaves(K, PARAMS, eta=1)[1]


def test_penultimate_element_hashes_to_the_leaf():
    d = chain_extend(prf(K, 0), 0, PARAMS.P - 1)
    assert chain_step(d, PARAMS.P) == all_leaves(K, PARAMS)[0]


def test_leaves_never_equal_any_otp():
    leaves = set(all_leaves(K, PARAMS))
    otps = {chain_extend(prf(K, beta(i, PARAMS)), 0, alpha(i, PARAMS))
            for i in range(PARAMS.N)}
    assert not leaves & otps


def oracle_leaf(k, x, params):
    """Chain end for PRF point x, straight on hashlib."""
    nb = params.digest_bytes
    d = hashlib.sha3_256(k + x.to_bytes(4, "big")).digest()[:nb]
    for j in range(1, params.P + 1):
        d = hashlib.sha3_256(j.to_bytes(4, "big") + d).digest()[:nb]
    return d


@pytest.mark.parametrize("S", [128, 256])
@pytest.mark.parametrize("P", [1, 3])
@pytest.mark.parametrize("eta", [0, 2])
def test_leaves_match_a_hashlib_reference(S, P, eta):
    params = TreeParams(S=S, N=8 * P, P=P, N_S=4 * P, L_S=1)
    want = [oracle_leaf(K, eta * params.leaves + i, params)
            for i in range(params.leaves)]
    assert all_leaves(K, params, eta) == want


def test_leaf_derivation_checks_seed_and_prf_range():
    with pytest.raises(DomainError):
        all_leaves(K[:15], PARAMS)
    with pytest.raises(DomainError):
        all_leaves(K + b"x", PARAMS)
    last_eta = 2**32 // PARAMS.leaves - 1
    assert len(all_leaves(K, PARAMS, last_eta)) == PARAMS.leaves
    with pytest.raises(DomainError):
        all_leaves(K, PARAMS, last_eta + 1)
    with pytest.raises(DomainError):
        all_leaves(K, PARAMS, -1)


@pytest.mark.parametrize("n", [16, 20, 32])
def test_pair_hash_matches_a_hashlib_reference(n):
    rng = random.Random(n)
    for _ in range(20):
        left, right = (with_lsb(rng.randbytes(n), 1) for _ in range(2))
        want = hashlib.sha3_256(_mask(left) + _mask(right)).digest()[:n]
        assert pair_hash(left, right) == want


@pytest.mark.parametrize("sizes", [(0, 0), (15, 15), (33, 33), (16, 17),
                                   (32, 16), (16, 0)])
def test_pair_hash_rejects_wrong_size_children(sizes):
    left, right = (bytes(range(1, n + 1)) for n in sizes)
    with pytest.raises(DomainError):
        pair_hash(left, right)


# -- the level kernel --------------------------------------------------------------
# `build_levels` and `reduce_mt` hash a level in joined spans; the reference
# is the same tree built one `pair_hash` call per node.

def per_pair_levels(leaves, base=DEFAULT_BASE_HASH):
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        pairs = iter(levels[-1])
        levels.append([pair_hash(left, right, base)
                       for left, right in zip(pairs, pairs)])
    return levels


def rand_digests(n, size, seed):
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(n)]


def logging_base(log, size=32):
    """The default base hash cut to `size` bytes, logging each input."""
    def base(data):
        log.append(data)
        return DEFAULT_BASE_HASH(data)[:size]
    return base


@pytest.mark.parametrize("size", [16, 20, 32])
@pytest.mark.parametrize("height", range(13))       # 1 .. 4 096 leaves
def test_levels_equal_a_per_pair_build(height, size):
    leaves = rand_digests(2 ** height, size, seed=height)
    want = per_pair_levels(leaves)
    assert build_levels(leaves) == want
    assert reduce_mt(leaves) == want[-1][0]


@pytest.mark.parametrize("height", [1, 2, 10, 11, 12])
def test_the_kernel_calls_base_once_per_pair_in_order(height):
    leaves = rand_digests(2 ** height, 16, seed=height)
    want = []
    per_pair_levels(leaves, logging_base(want))
    for build in (build_levels, reduce_mt):
        seen = []
        build(leaves, logging_base(seen))
        assert len(seen) == 2 ** height - 1
        assert seen == want
        assert {type(data) for data in seen} == {bytes}


@pytest.mark.parametrize("sizes", [(16, 17), (16, 16, 16, 32), (20, 16, 20, 20),
                                   (8, 8), (15, 15), (33, 33, 33, 33), (0, 0)])
def test_the_kernel_rejects_leaves_of_a_wrong_or_mixed_size(sizes):
    leaves = [bytes(range(1, n + 1)) for n in sizes]
    for build in (build_levels, reduce_mt):
        with pytest.raises(DomainError):
            build(leaves)


def test_a_mixed_size_past_the_first_span_is_rejected():
    leaves = rand_digests(2048, 16, seed=0)
    leaves[-1] += b"\0"
    with pytest.raises(DomainError):
        build_levels(leaves)


@pytest.mark.parametrize("height", [2, 3])
def test_a_short_base_digest_is_rejected_at_the_next_level(height):
    """8-byte parents fail the size check of the level above them, after
    the level below was hashed in full, as in the per-pair build."""
    leaves = rand_digests(2 ** height, 16, seed=height)
    want, seen = [], []
    with pytest.raises(DomainError):
        per_pair_levels(leaves, logging_base(want, 8))
    with pytest.raises(DomainError):
        build_levels(leaves, logging_base(seen, 8))
    assert seen == want and len(seen) == 2 ** (height - 1)


def test_a_two_leaf_tree_keeps_a_short_base_digest():
    leaves = rand_digests(2, 16, seed=2)
    assert len(reduce_mt(leaves, logging_base([], 8))) == 8


def test_a_single_node_is_its_own_root_without_a_hash():
    seen = []
    for node in (truncated_hash(b"n"), b"short"):
        assert reduce_mt([node], logging_base(seen)) == node
        assert build_levels([node], logging_base(seen)) == [[node]]
    assert seen == []


# -- seed_levels ----------------------------------------------------------------------
# A seed tree of 4 096 leaves or more, on the default base, derives its right
# half in one forked child when the process may run on two CPUs. Each test
# also checks that no child is left once the call returns or raises.

def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids that called `os.fork` during the test."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return calls


def wide(leaves, P=1, S=128):
    return TreeParams(S=S, N=leaves * P, P=P, N_S=leaves * P, L_S=5)


def splits(params):
    return merkle._can_split(params.leaves, DEFAULT_BASE_HASH)


@pytest.mark.parametrize("eta", [0, 1])
@pytest.mark.parametrize("S", [128, 256])
@pytest.mark.parametrize("P", [1, 2])
@pytest.mark.parametrize("leaves", [4096, 8192])
def test_seed_levels_equal_the_built_leaves(leaves, P, S, eta, forks):
    params = wide(leaves, P, S)
    want = build_levels(all_leaves(K, params, eta))
    assert seed_levels(K, params, eta) == want
    no_child_left()
    assert forks == [os.getpid()] * splits(params)


def test_a_metering_base_counts_every_hash_in_process(forks):
    params = wide(8192, P=2)
    calls = []

    def counting(data):
        calls.append(data)
        return DEFAULT_BASE_HASH(data)
    levels = seed_levels(K, params, 0, counting)
    no_child_left()
    assert forks == []
    n = params.leaves
    assert len(calls) == n * (params.P + 1) + n - 1
    assert levels == build_levels(all_leaves(K, params))


def test_one_cpu_never_forks(monkeypatch, forks):
    params = wide(8192)
    want = build_levels(all_leaves(K, params))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert seed_levels(K, params) == want
    no_child_left()
    assert forks == []


def test_a_small_tree_or_a_missing_fork_never_forks(monkeypatch, forks):
    small = wide(2048)
    assert seed_levels(K, small) == build_levels(all_leaves(K, small))
    params = wide(4096)
    monkeypatch.delattr(os, "fork")
    assert seed_levels(K, params) == build_levels(all_leaves(K, params))
    no_child_left()
    assert forks == []


def test_a_failed_fork_derives_in_process(monkeypatch):
    params = wide(4096)
    want = build_levels(all_leaves(K, params))

    def refused():
        raise BlockingIOError("no process")
    monkeypatch.setattr(os, "fork", refused)
    fds = len(os.listdir("/proc/self/fd"))
    assert seed_levels(K, params) == want
    assert len(os.listdir("/proc/self/fd")) == fds


def test_bad_seed_or_prf_range_is_refused_before_a_fork(forks):
    params = wide(4096)
    for k, eta in ((K[:15], 0), (K, 2**32 // params.leaves), (K, -1)):
        with pytest.raises(DomainError) as serial:
            all_leaves(k, params, eta)
        with pytest.raises(DomainError) as split:
            seed_levels(k, params, eta)
        assert str(split.value) == str(serial.value)
    no_child_left()
    assert forks == []


def test_a_failing_child_costs_the_parent_the_right_half(monkeypatch, forks):
    params = wide(8192)
    want = build_levels(all_leaves(K, params))
    parent, chain_ends = os.getpid(), merkle._chain_ends

    def parent_only(*args):
        if os.getpid() != parent:
            raise RuntimeError("child fails")
        return chain_ends(*args)
    monkeypatch.setattr(merkle, "_chain_ends", parent_only)
    assert seed_levels(K, params) == want
    no_child_left()
    assert forks == [parent] * splits(params)


def test_a_full_answer_from_a_failed_child_is_not_used(monkeypatch, forks):
    params = wide(4096)
    want = build_levels(all_leaves(K, params))
    parent, chain_ends, exit_ = os.getpid(), merkle._chain_ends, os._exit
    firsts = []

    def logged(k, first, *args):
        if os.getpid() == parent:
            firsts.append(first)
        return chain_ends(k, first, *args)
    monkeypatch.setattr(merkle, "_chain_ends", logged)
    monkeypatch.setattr(os, "_exit", lambda status: exit_(1))
    assert seed_levels(K, params) == want
    no_child_left()
    assert firsts == [0, 2048] if splits(params) else [0]


def test_a_short_answer_costs_the_parent_the_right_half(monkeypatch, forks):
    params = wide(4096)
    want = build_levels(all_leaves(K, params))
    parent, build = os.getpid(), merkle.build_levels

    def rootless(*args):
        levels = build(*args)
        return levels if os.getpid() == parent else levels[:-1]
    monkeypatch.setattr(merkle, "build_levels", rootless)
    assert seed_levels(K, params) == want
    no_child_left()
    assert forks == [parent] * splits(params)


def test_a_failing_parent_raises_and_leaves_no_child(monkeypatch, forks):
    """The child's answer overfills the pipe; it exits once the parent,
    failing, closes the read end."""
    params = wide(8192)
    parent, chain_ends = os.getpid(), merkle._chain_ends

    def child_only(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent fails")
        return chain_ends(*args)
    monkeypatch.setattr(merkle, "_chain_ends", child_only)
    with pytest.raises(RuntimeError, match="parent fails"):
        seed_levels(K, params)
    no_child_left()
    assert forks == [parent] * splits(params)


def test_this_host_splits_a_large_tree():
    """The fork paths above run only where the split does."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        pytest.skip("one CPU or no fork: every seed tree is derived in process")
    assert splits(wide(4096)) and not splits(wide(2048))


# -- derive_root_hash ----------------------------------------------------------------

def test_minimal_two_leaf_root_derivation():
    params = TreeParams(S=128, N=2, P=1, N_S=2, L_S=0)
    leaves = all_leaves(K, params)
    root = reduce_mt(leaves)
    otp = prf(K, 0)
    proof = gen_proof(leaves, 0, 0)
    assert derive_root_hash(otp, proof, 0, params) == root


def test_exhaustive_sweep_against_oracle_root():
    leaves = all_leaves(K, PARAMS)
    root = oracle_root(leaves)
    for op_id in range(PARAMS.N):
        otp = chain_extend(prf(K, beta(op_id, PARAMS)), 0, alpha(op_id, PARAMS))
        proof = gen_proof(leaves, beta(op_id, PARAMS), 0)
        assert derive_root_hash(otp, proof, op_id, PARAMS) == root


def test_corrupted_sibling_changes_the_result():
    leaves = all_leaves(K, PARAMS)
    root = reduce_mt(leaves)
    otp = chain_extend(prf(K, 0), 0, alpha(0, PARAMS))
    proof = gen_proof(leaves, 0, 0)
    sibs = list(proof.siblings)
    sibs[-1] = bytes([sibs[-1][0] ^ 0x80]) + sibs[-1][1:]
    assert derive_root_hash(otp, MerkleProof(tuple(sibs)), 0, PARAMS) != root


def test_wrong_op_id_fails_the_index_check():
    leaves = all_leaves(K, PARAMS)
    otp = chain_extend(prf(K, 0), 0, alpha(0, PARAMS))
    proof = gen_proof(leaves, 0, 0)
    with pytest.raises(DomainError):
        derive_root_hash(otp, proof, 1, PARAMS)


def test_wrong_proof_length_rejected():
    leaves = all_leaves(K, PARAMS)
    otp = prf(K, 0)
    short = gen_proof(leaves, 0, 1)
    with pytest.raises(DomainError):
        derive_root_hash(otp, short, 0, PARAMS)


# -- cached sublayer ---------------------------------------------------------------

def test_cache_depth_zero_mirrors_root_derivation():
    params = TreeParams(S=128, N=8, P=2, N_S=8, L_S=0)
    leaves = all_leaves(K, params)
    root = reduce_mt(leaves)
    for op_id in range(params.N):
        otp = chain_extend(prf(K, beta(op_id, params)), 0, alpha(op_id, params))
        proof = proof_to_sublayer(leaves, 0, op_id % params.subtree_leaves, params)
        assert derive_node_in_cache(otp, proof, op_id, params) == root
        full = gen_proof(leaves, beta(op_id, params), 0)
        assert derive_root_hash(otp, full, op_id, params) == root


def test_cache_depth_equal_to_height_returns_the_leaf():
    params = TreeParams(S=128, N=8, P=2, N_S=8, L_S=2)
    leaves = all_leaves(K, params)
    sublayer = sublayer_of(leaves, 0, params)
    assert sublayer.nodes == leaves[:4]
    op_id = 1
    otp = chain_extend(prf(K, beta(op_id, params)), 0, alpha(op_id, params))
    proof = proof_to_sublayer(leaves, 0, op_id, params)
    assert len(proof) == 0
    node = derive_node_in_cache(otp, proof, op_id, params)
    assert node == leaves[beta(op_id, params)]


def test_every_op_reconstructs_its_cached_node():
    params = TreeParams(S=128, N=8, P=2, N_S=8, L_S=1)
    leaves = all_leaves(K, params)
    sublayer = sublayer_of(leaves, 0, params)
    for op_id in range(params.N):
        otp = chain_extend(prf(K, beta(op_id, params)), 0, alpha(op_id, params))
        proof = proof_to_sublayer(leaves, 0, op_id % params.subtree_leaves, params)
        slot = expected_idx_in_cache(op_id % params.subtree_leaves, params)
        assert derive_node_in_cache(otp, proof, op_id, params) == sublayer.nodes[slot]


# -- expected cache index ------------------------------------------------------------

def test_closed_form_examples():
    params = TreeParams(S=128, N=8, P=1, N_S=8, L_S=1)   # H_S = 3
    got = [expected_idx_in_cache(c, params) for c in range(8)]
    assert got == [0, 0, 0, 0, 1, 1, 1, 1]
    assert expected_idx_in_cache(0, params) == 0


def test_depth_zero_cache_always_selects_node_zero():
    params = TreeParams(S=128, N=8, P=1, N_S=8, L_S=0)
    assert all(expected_idx_in_cache(c, params) == 0 for c in range(8))


def test_closed_form_and_loop_identify_the_same_cached_node():
    # The loop keeps the leaf's offset below its cached node; the closed
    # form picks the node. Together they reassemble the leaf id.
    for h_s in range(9):
        for l_s in range(h_s + 1):
            n_s = 2 ** h_s
            params = TreeParams(S=128, N=n_s, P=1, N_S=n_s, L_S=l_s)
            span = 2 ** (h_s - l_s)
            for c in range(n_s):
                node = expected_idx_in_cache(c, params)
                offset = expected_idx_in_cache_loop(c, params)
                assert node * span + offset == c


# -- subtree consistency ---------------------------------------------------------------

def test_single_subtree_consistency_is_equality():
    params = TreeParams(S=128, N=8, P=2, N_S=8, L_S=1)
    leaves = all_leaves(K, params)
    root = reduce_mt(leaves)
    proof = subtree_root_proof(leaves, 0, params)
    assert len(proof) == 0
    assert subtree_consistency(root, proof, root)
    assert not subtree_consistency(truncated_hash(b"x"), proof, root)


def test_all_subtree_roots_verify_against_parent():
    params = TreeParams(S=128, N=32, P=1, N_S=8, L_S=1)
    leaves = all_leaves(K, params)
    root = reduce_mt(leaves)
    for delta in range(params.subtree_count):
        sub = leaves[delta * 8:(delta + 1) * 8]
        sub_root = reduce_mt(sub)
        proof = subtree_root_proof(leaves, delta, params)
        assert len(proof) == params.H - params.H_S
        assert subtree_consistency(sub_root, proof, root)


def test_cross_paired_subtree_proof_fails():
    params = TreeParams(S=128, N=32, P=1, N_S=8, L_S=1)
    leaves = all_leaves(K, params)
    root = reduce_mt(leaves)
    sub0_root = reduce_mt(leaves[:8])
    wrong_proof = subtree_root_proof(leaves, 1, params)
    assert not subtree_consistency(sub0_root, wrong_proof, root)


def test_sublayer_reduces_to_subtree_root():
    params = TreeParams(S=128, N=32, P=1, N_S=8, L_S=2)
    leaves = all_leaves(K, params)
    for delta in range(4):
        layer = sublayer_of(leaves, delta, params)
        assert len(layer.nodes) == 4
        assert reduce_mt(layer.nodes) == reduce_mt(leaves[delta * 8:(delta + 1) * 8])


# -- leaf file ------------------------------------------------------------------------

def test_leaf_file_round_trip():
    leaves = all_leaves(K, PARAMS)
    text = dump_leaf_file(leaves, PARAMS, 0)
    assert text.splitlines()[0] == "smartotps-leaves v1 S=128 N=16 P=2 NS=8 eta=0"
    parsed, eta = parse_leaf_file(text, PARAMS)
    assert parsed == leaves and eta == 0


def test_leaf_file_header_mismatch_rejected():
    leaves = all_leaves(K, PARAMS)
    text = dump_leaf_file(leaves, PARAMS, 0)
    wrong = TreeParams(S=128, N=32, P=2, N_S=8, L_S=1)
    with pytest.raises(DomainError):
        parse_leaf_file(text, wrong)


def test_leaf_file_garbage_rejected():
    with pytest.raises(DomainError):
        parse_leaf_file("not a leaf file\n", PARAMS)
    with pytest.raises(DomainError):
        parse_leaf_file("smartotps-leaves v1 S=128 N=16 P=2 NS=8 eta=0\nzz\n",
                        PARAMS)
    body = "".join(leaf.hex() + "\n" for leaf in all_leaves(K, PARAMS))
    for fields in ("S=128 N=16 P=2 NS=8 foo=3", "S=128 N=16 P=2 NS=8 S=128",
                   "S=128 N=16 P=2 NS=8 eta=-1", "S=128 N=16 P=2 eta=0 eta=1"):
        with pytest.raises(DomainError):
            parse_leaf_file(f"smartotps-leaves v1 {fields}\n{body}", PARAMS)


# -- params validation ------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(DomainError):
        TreeParams(S=100, N=16, P=2, N_S=8, L_S=1)
    with pytest.raises(DomainError):
        TreeParams(S=128, N=16, P=3, N_S=8, L_S=1)
    with pytest.raises(DomainError):
        TreeParams(S=128, N=12, P=2, N_S=8, L_S=1)
    with pytest.raises(DomainError):
        TreeParams(S=128, N=16, P=2, N_S=8, L_S=9)
    p = TreeParams(S=128, N=16, P=2, N_S=8, L_S=1)
    assert (p.H, p.H_S, p.leaves, p.subtree_leaves) == (3, 2, 8, 4)


def test_params_from_dict_is_the_inverse_of_as_dict():
    """Every key `as_dict` writes, LEN_MAX included, is one `from_dict`
    needs."""
    params = TreeParams(S=128, N=16, P=2, N_S=8, L_S=1, LEN_MAX=3)
    assert TreeParams.from_dict(params.as_dict()) == params
    for key in params.as_dict():
        partial = params.as_dict()
        del partial[key]
        with pytest.raises(KeyError):
            TreeParams.from_dict(partial)
