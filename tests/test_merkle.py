"""Tree construction, proofs, verifier reconstructions, index arithmetic.

The oracle here is an independent top-down recursive implementation built
straight on hashlib; the production code reduces bottom-up. Both follow
the scheme's definition that the low bit of each child is parity space
and stays outside hash coverage.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otpwallet.hashing import DomainError, chain_extend, chain_step, prf, truncated_hash
from otpwallet.merkle import (
    MerkleProof,
    TreeParams,
    all_leaves,
    alpha,
    beta,
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
    leaf_of_chain,
    lsb,
    parse_leaf_file,
    proof_to_sublayer,
    reduce_mt,
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
    assert leaf_of_chain(K, 3, PARAMS) == chain_extend(start, 0, PARAMS.P)


def test_leaf_with_p1_is_hash_of_the_otp():
    params = TreeParams(S=128, N=8, P=1, N_S=8, L_S=0)
    otp = prf(K, 2)
    assert leaf_of_chain(K, 2, params) == chain_step(otp, 1)


def test_leaf_determinism_and_generation_offset():
    assert leaf_of_chain(K, 1, PARAMS, eta=0) == leaf_of_chain(K, 1, PARAMS, eta=0)
    assert leaf_of_chain(K, 1, PARAMS, eta=0) != leaf_of_chain(K, 1, PARAMS, eta=1)


def test_penultimate_element_hashes_to_the_leaf():
    d = chain_extend(prf(K, 0), 0, PARAMS.P - 1)
    assert chain_step(d, PARAMS.P) == leaf_of_chain(K, 0, PARAMS)


def test_leaves_never_equal_any_otp():
    leaves = set(all_leaves(K, PARAMS))
    otps = {chain_extend(prf(K, beta(i, PARAMS)), 0, alpha(i, PARAMS))
            for i in range(PARAMS.N)}
    assert not leaves & otps


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
