"""Authenticator device model: OTP queries, displays, generation handling."""

import copy

import pytest

from otpwallet import mnemonic
from otpwallet.authenticator import Authenticator
from otpwallet.hashing import (DEFAULT_BASE_HASH, DomainError, chain_extend,
                               truncated_hash)
from otpwallet.merkle import (
    TreeParams,
    all_leaves,
    alpha,
    beta,
    chain_offset,
    parse_leaf_file,
    reduce_mt,
)

K = bytes(range(16))
PARAMS = TreeParams(S=128, N=16, P=2, N_S=8, L_S=1)


@pytest.fixture
def auth():
    return Authenticator(K, PARAMS)


def test_first_operation_uses_first_layer_first_chain(auth):
    assert alpha(0, PARAMS) == PARAMS.P - 1
    assert beta(0, PARAMS) == 0


def test_otp_range_check(auth):
    with pytest.raises(DomainError):
        auth.get_otp(-1)
    with pytest.raises(DomainError):
        auth.get_otp(PARAMS.N)


def test_otp_extended_to_the_leaf():
    # get_otp(i) hashed a(i)+1 more steps lands on leaf beta(i);
    # exhaustive up to N = 64.
    for params in (PARAMS,
                   TreeParams(S=128, N=64, P=4, N_S=16, L_S=1),
                   TreeParams(S=128, N=64, P=1, N_S=64, L_S=2)):
        auth = Authenticator(K, params)
        leaves = all_leaves(K, params)
        for i in range(params.N):
            otp = auth.get_otp(i)
            a = chain_offset(i, params)
            leaf = chain_extend(otp, params.P - 1 - a, params.P)
            assert leaf == leaves[beta(i, params)]


def test_beta_covers_each_chain_once_per_layer():
    for params in (PARAMS, TreeParams(S=128, N=64, P=4, N_S=16, L_S=1)):
        auth = Authenticator(K, params)
        per_layer = {}
        for i in range(params.N):
            key = (i // params.N_S, chain_offset(i, params))
            per_layer.setdefault(key, []).append(beta(i, params))
        width = params.subtree_leaves
        for (subtree, _), chains in per_layer.items():
            expected = list(range(subtree * width, (subtree + 1) * width))
            assert sorted(chains) == expected


def test_export_leaves_reduce_to_displayed_root(auth):
    leaves, eta = parse_leaf_file(auth.export_leaves(), PARAMS)
    assert eta == 0
    assert reduce_mt(leaves) == auth.display_root()


def test_export_is_deterministic(auth):
    assert auth.export_leaves() == auth.export_leaves()


def test_generation_advance_changes_everything(auth):
    before_root = auth.display_root()
    before_leaves, _ = parse_leaf_file(auth.export_leaves(), PARAMS)
    auth.advance_generation()
    after_leaves, eta = parse_leaf_file(auth.export_leaves(), PARAMS)
    assert eta == 1
    assert auth.display_root() != before_root
    assert not set(before_leaves) & set(after_leaves)


def test_display_seed_round_trips(auth):
    assert mnemonic.decode(auth.display_seed()) == K


def test_no_output_leaks_the_seed_or_deeper_chain_elements(auth):
    # Every emitted value for operation i sits at chain position alpha(i)
    # or above; the PRF outputs of unqueried deeper layers never appear.
    exported = set(parse_leaf_file(auth.export_leaves(), PARAMS)[0])
    otps = {i: auth.get_otp(i) for i in range(PARAMS.N)}
    assert K not in exported
    assert K not in set(otps.values())
    # Leaves are one hash past every OTP.
    assert not exported & set(otps.values())
    # Layer-1 OTP of a chain never equals the layer-2 OTP (deeper secret).
    for i in range(4):
        assert otps[i] != otps[i + 4]


def test_new_parent_preview_requires_tree_boundary(auth):
    with pytest.raises(DomainError):
        auth.new_parent_preview(3)


def test_new_parent_preview_is_stable_and_correct(auth):
    op_id = PARAMS.N - 1
    r1, h1 = auth.new_parent_preview(op_id)
    r2, h2 = auth.new_parent_preview(op_id)
    assert (r1, h1) == (r2, h2)
    assert auth.eta == 0         # preview never advances the generation
    next_gen = Authenticator(K, PARAMS, eta=1)
    assert r1 == next_gen.display_root()
    assert h1 == truncated_hash(r1 + auth.get_otp(op_id))


def _counting(calls: list):
    """The default base hash, logging each call in `calls`."""
    def base(data: bytes) -> bytes:
        calls.append(data)
        return DEFAULT_BASE_HASH(data)
    return base


def test_every_display_and_export_hashes_through_the_devices_current_base():
    calls = []
    base = _counting(calls)
    # The hashes of one generation's leaves, of their reduction to a root,
    # and of the last operation's OTP.
    all_leaves(K, PARAMS, 0, base)
    derive = len(calls)
    reduce_mt(all_leaves(K, PARAMS, 0), base)
    reduce = len(calls) - derive
    Authenticator(K, PARAMS, base=base).get_otp(PARAMS.N - 1)
    otp = len(calls) - derive - reduce
    assert derive and reduce and otp

    auth = Authenticator(K, PARAMS)
    shows = [(auth.display_root, derive + reduce),
             (auth.export_leaves, derive),
             (lambda: auth.new_parent_preview(PARAMS.N - 1),
              derive + reduce + otp + 1),
             (auth.export_next_leaves, derive)]
    before = [show() for show, _ in shows]
    # Swapped in after every display and export has run once.
    auth.base = base
    for (show, hashes), shown in zip(shows, before):
        calls.clear()
        assert show() == shown
        assert len(calls) == hashes


def test_a_copied_device_keeps_its_own_generation():
    auth = Authenticator(K, PARAMS)
    root = auth.display_root()
    twin = copy.copy(auth)
    twin.advance_generation()
    assert twin.display_root() == Authenticator(K, PARAMS, eta=1).display_root()
    assert auth.display_root() == root
    assert parse_leaf_file(auth.export_leaves(), PARAMS) == (
        all_leaves(K, PARAMS, 0), 0)
