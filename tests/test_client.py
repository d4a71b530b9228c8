"""Client store: bootstrap paths, payload builders, persistence hygiene."""

import dataclasses
import hashlib

import pytest

from otpwallet.authenticator import Authenticator
from otpwallet.cli import World, main
from otpwallet.client import ClientStore
from otpwallet.hashing import DomainError, chain_extend, prf
from otpwallet.merkle import (
    TreeParams,
    all_leaves,
    alpha,
    beta,
    derive_node_in_cache,
    expected_idx_in_cache,
    fold_proof,
    gen_proof,
    proof_to_sublayer,
    reduce_mt,
    sublayer_of,
    subtree_consistency,
    subtree_root_proof,
)

K = bytes(range(16))
PARAMS = TreeParams(S=128, N=16, P=2, N_S=8, L_S=1)


def otp_for(i, params=PARAMS, eta=0):
    return chain_extend(prf(K, eta * params.leaves + beta(i, params)), 0,
                        alpha(i, params))


@pytest.fixture
def store():
    return ClientStore.bootstrap_secure(K, PARAMS)


def test_secure_and_insecure_bootstraps_agree(store):
    auth = Authenticator(K, PARAMS)
    other = ClientStore.bootstrap_insecure(auth.export_leaves(), PARAMS)
    assert other.leaves == store.leaves
    assert other.root == store.root == auth.display_root()


def test_secure_store_holds_no_otp_and_no_seed(store, tmp_path):
    """The store's fields are its public tree and metadata, nothing else:
    a bootstrapped store, and a CLI world's restored store once its first
    proof read has built its tree and dropped its tree source."""
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(K.hex() + "\n")
    assert main(["--state-dir", str(tmp_path / "wallet"), "bootstrap",
                 "--params", "128,16,2,8,1", "--seed-file",
                 str(seed_file)]) == 0
    restored = World.load(tmp_path / "wallet").system.client
    assert restored.levels is None and restored.tree_source is not None
    restored.build_confirm(0, otp_for(0))
    secrets = {K} | {otp_for(i) for i in range(PARAMS.N)}
    for store in store, restored:
        names = [f.name for f in dataclasses.fields(store)]
        assert names == ["levels", "params", "eta",
                         "confirmation_depth", "current_subtree", "base",
                         "_staged_levels", "tree_source"]
        assert set(vars(store)) == set(names)
        assert not {node for level in store.levels for node in level} & secrets
        assert store._staged_levels is None and store.tree_source is None
        for rendered in repr(vars(store)), repr(store):
            assert not any(secret.hex() in rendered or repr(secret) in rendered
                           for secret in secrets)


def test_constructor_args_are_consistent(store):
    root, sublayer, proof_sr = store.constructor_args()
    assert len(sublayer.nodes) == 2 ** PARAMS.L_S
    assert subtree_consistency(reduce_mt(sublayer.nodes), proof_sr, root)


def test_build_confirm_verifies_against_bootstrap_sublayer(store):
    sublayer = store.sublayer(0)
    for op_id in range(PARAMS.N_S - 1):
        payload = store.build_confirm(op_id, otp_for(op_id))
        node = derive_node_in_cache(payload.otp, payload.proof, op_id, PARAMS)
        slot = expected_idx_in_cache(op_id % PARAMS.subtree_leaves, PARAMS)
        assert node == sublayer.nodes[slot]


def test_every_subtree_zero_op_confirms_at_n64():
    params = TreeParams(S=128, N=64, P=2, N_S=16, L_S=1)
    store = ClientStore.bootstrap_secure(K, params)
    sublayer = store.sublayer(0)
    for op_id in range(params.N_S - 1):
        payload = store.build_confirm(op_id, otp_for(op_id, params))
        node = derive_node_in_cache(payload.otp, payload.proof, op_id, params)
        slot = expected_idx_in_cache(op_id % params.subtree_leaves, params)
        assert node == sublayer.nodes[slot]


def test_build_confirm_rejects_other_subtrees(store):
    with pytest.raises(DomainError):
        store.build_confirm(PARAMS.N_S, otp_for(PARAMS.N_S))
    store.advance_subtree()
    with pytest.raises(DomainError):
        store.build_confirm(0, otp_for(0))


def test_empty_proof_when_cache_is_the_leaf_layer():
    params = TreeParams(S=128, N=16, P=2, N_S=8, L_S=2)
    store = ClientStore.bootstrap_secure(K, params)
    payload = store.build_confirm(1, otp_for(1, params))
    assert len(payload.proof) == 0


def test_build_next_subtree_phase_checks(store):
    with pytest.raises(DomainError):
        store.build_next_subtree(3, otp_for(3))          # not a boundary
    with pytest.raises(DomainError):
        store.build_next_subtree(15, otp_for(15))        # tree boundary


def test_build_next_subtree_payload_is_consistent(store):
    op_id = PARAMS.N_S - 1
    payload = store.build_next_subtree(op_id, otp_for(op_id))
    assert payload.next_sublayer.index == 1
    assert len(payload.proof_otp) == PARAMS.H
    assert len(payload.proof_sr) == PARAMS.H - PARAMS.H_S
    assert subtree_consistency(reduce_mt(payload.next_sublayer.nodes),
                               payload.proof_sr, store.root)


def test_single_subtree_config_never_allows_next_subtree():
    params = TreeParams(S=128, N=8, P=2, N_S=8, L_S=1)
    store = ClientStore.bootstrap_secure(K, params)
    with pytest.raises(DomainError):
        store.build_next_subtree(7, otp_for(7, params))


def test_rotation_stages_and_commit(store):
    op_id = PARAMS.N - 1
    new_root = store.stage_rotation(K)
    stages = store.build_new_root_stages(op_id, new_root, otp_for(op_id))
    assert stages.new_root == new_root
    assert subtree_consistency(reduce_mt(stages.new_sublayer.nodes),
                               stages.proof_sr, new_root)
    old_leaves = list(store.leaves)
    store.commit_rotation()
    assert store.eta == 1 and store.current_subtree == 0
    assert store.leaves != old_leaves
    # The new leaves match a generation-1 authenticator.
    auth = Authenticator(K, PARAMS, eta=1)
    assert store.root == auth.display_root()


def test_rotation_requires_staging_and_matching_root(store):
    with pytest.raises(DomainError):
        store.build_new_root_stages(15, store.root, otp_for(15))
    store.stage_rotation(K)
    with pytest.raises(DomainError):
        store.build_new_root_stages(15, store.root, otp_for(15))


def test_rotation_from_leaf_file():
    auth = Authenticator(K, PARAMS)
    store = ClientStore.bootstrap_insecure(auth.export_leaves(), PARAMS)
    new_root = store.stage_rotation(auth.export_next_leaves())
    assert new_root == auth.new_parent_preview(PARAMS.N - 1)[0]
    with pytest.raises(DomainError):
        store.stage_rotation(auth.export_leaves())       # wrong generation


def test_relative_op_window_tracks_generation(store):
    store.stage_rotation(K)
    store.commit_rotation()
    with pytest.raises(DomainError):
        store.build_confirm(0, otp_for(0))               # old generation id
    payload = store.build_confirm(PARAMS.N, otp_for(0, eta=1))
    assert payload.op_id == PARAMS.N


# -- one tree per generation -------------------------------------------------------

class CountingHash:
    def __init__(self):
        self.calls = 0

    def __call__(self, data: bytes) -> bytes:
        self.calls += 1
        return hashlib.sha3_256(data).digest()


def walk_generation(store, params, eta, on_op):
    """Visit every operation of one generation in order, advancing the
    store's subtree as the protocol would; returns the last op's otp."""
    for rel in range(params.N):
        if rel // params.N_S != store.current_subtree:
            store.advance_subtree()
        otp = otp_for(rel, params, eta)
        on_op(eta * params.N + rel, rel, otp)
    return otp


@pytest.mark.parametrize("params", [TreeParams(128, 16, 2, 8, 1),
                                    TreeParams(128, 64, 4, 16, 0)])
def test_each_generation_hashes_its_tree_once(params):
    # One chain walk per leaf (PRF + P steps) plus one pair hash per node.
    tree = params.leaves * (params.P + 1) + params.leaves - 1
    count = CountingHash()
    store = ClientStore.bootstrap_secure(K, params, base=count)
    assert count.calls == tree
    count.calls = 0
    store.constructor_args()

    def payloads(op_id, rel, otp):
        store.build_confirm(op_id, otp)
        if rel % params.N_S == params.N_S - 1 and rel != params.N - 1:
            store.build_next_subtree(op_id, otp)
    otp = walk_generation(store, params, 0, payloads)
    assert count.calls == 0
    new_root = store.stage_rotation(K)
    assert count.calls == tree
    count.calls = 0
    store.build_new_root_stages(params.N - 1, new_root, otp)
    assert count.calls == 1                  # the stage-1 commitment h(root || otp)


@pytest.mark.parametrize("params", [TreeParams(128, 16, 2, 8, 0),
                                    TreeParams(128, 16, 2, 8, 2),
                                    TreeParams(128, 64, 4, 16, 0),
                                    TreeParams(128, 64, 4, 16, 2)])
def test_cached_views_equal_the_one_shot_functions(params):
    """Every view read from the cached tree equals the leaf-list function
    that builds the tree afresh, and folds to the node it proves: a
    confirm proof to its cached node, hashed from the leaves without the
    tree, and every other proof to the root. Each returned sublayer is
    overwritten after the check, so a view that shared the cache would
    corrupt a later check."""
    def same_layer(layer, want):
        assert layer == want
        layer.nodes[:] = [bytes(16)] * len(layer.nodes)

    def proves_root(layer, proof_sr, root):
        assert fold_proof(reduce_mt(layer.nodes), proof_sr) == root

    w, c = params.subtree_leaves, 1 << (params.H_S - params.L_S)
    store = ClientStore.bootstrap_secure(K, params)
    for eta in (0, 1):
        leaves = all_leaves(K, params, eta)
        root = reduce_mt(leaves)

        def cached_node(b, leaves=leaves):
            """The cached-sublayer node above leaf b."""
            return reduce_mt(leaves[b - b % c:b - b % c + c])

        root_, layer, proof_sr = store.constructor_args()
        assert (root_, proof_sr) == (root, subtree_root_proof(leaves, 0, params))
        proves_root(layer, proof_sr, root)
        same_layer(layer, sublayer_of(leaves, 0, params))
        for s in range(params.subtree_count):
            layer, proof_sr = store.sublayer(s), store.sublayer_proof(s)
            assert layer.nodes == [cached_node(b) for b in range(s * w, (s + 1) * w, c)]
            proves_root(layer, proof_sr, root)
            same_layer(layer, sublayer_of(leaves, s, params))
            assert proof_sr == subtree_root_proof(leaves, s, params)

        def payloads(op_id, rel, otp):
            subtree, leaf, b = rel // params.N_S, rel % w, beta(rel, params)
            proof = store.build_confirm(op_id, otp).proof
            assert proof == proof_to_sublayer(leaves, subtree, leaf, params)
            assert fold_proof(leaves[b], proof) == cached_node(b)
            if rel % params.N_S == params.N_S - 1 and rel != params.N - 1:
                payload = store.build_next_subtree(op_id, otp)
                assert fold_proof(leaves[b], payload.proof_otp) == root
                proves_root(payload.next_sublayer, payload.proof_sr, root)
                same_layer(payload.next_sublayer, sublayer_of(leaves, subtree + 1, params))
                assert payload.proof_otp == gen_proof(leaves, b)
                assert payload.proof_sr == subtree_root_proof(leaves, subtree + 1, params)
        otp = walk_generation(store, params, eta, payloads)

        new_leaves = all_leaves(K, params, eta + 1)
        new_root = store.stage_rotation(K)
        assert new_root == reduce_mt(new_leaves)
        stages = store.build_new_root_stages((eta + 1) * params.N - 1, new_root, otp)
        proves_root(stages.new_sublayer, stages.proof_sr, new_root)
        same_layer(stages.new_sublayer, sublayer_of(new_leaves, 0, params))
        assert stages.proof_sr == subtree_root_proof(new_leaves, 0, params)
        assert fold_proof(leaves[-1], stages.proof_otp) == cached_node(params.leaves - 1)
        assert stages.proof_otp == proof_to_sublayer(
            leaves, params.subtree_count - 1, w - 1, params)
        assert store.leaves == leaves and store.root == root
        store.commit_rotation()
