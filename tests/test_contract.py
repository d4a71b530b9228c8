"""Wallet state machine driven directly, without the ledger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otpwallet import contract as contract_mod, signing
from otpwallet.client import ClientStore
from otpwallet.contract import ChainEnv, OpType, Revert, WalletContract
from otpwallet.hashing import chain_step, truncated_hash
from otpwallet.merkle import (MerkleProof, SubtreeLayer, TreeParams,
                              build_levels, chain_offset, layer_of)

from harness import (K, T0, World as BaseWorld, chunk_changes,
                     reference_state_lines)

PARAMS = TreeParams(S=128, N=16, P=2, N_S=8, L_S=1)


class World(BaseWorld):
    def __init__(self, params=PARAMS, funding=100):
        super().__init__(params, funding)


@pytest.fixture
def world():
    return World()


# -- constructor ---------------------------------------------------------------

def test_contract_id_is_hash_of_pk_and_root(world):
    expected = truncated_hash(world.keypair.public + world.wallet.root)
    assert world.wallet.contract_id == expected.hex()


def test_forged_sublayer_reverts_deployment():
    w = World.__new__(World)
    w.params = PARAMS
    w.now = T0
    w.keypair = signing.keygen(bytes([6]) * 32)
    w.accounts = {}
    store = ClientStore.bootstrap_secure(K, PARAMS)
    root, sublayer, proof_sr = store.constructor_args()
    forged = SubtreeLayer([truncated_hash(b"junk")] * len(sublayer.nodes), 0)
    with pytest.raises(Revert) as err:
        WalletContract(root, w.keypair.public, forged, proof_sr, PARAMS,
                       ChainEnv(T0, lambda a: 0, lambda f, t, v: None))
    assert err.value.category == "consistency"


def test_a_sublayer_one_level_up_reverts_deployment():
    """The level above the sublayer reduces to the same subtree root, so
    only the size check refuses it."""
    store = ClientStore.bootstrap_secure(K, PARAMS)
    root, sublayer, proof_sr = store.constructor_args()
    up = SubtreeLayer(build_levels(sublayer.nodes)[1], 0)
    with pytest.raises(Revert) as err:
        WalletContract(root, bytes(32), up, proof_sr, PARAMS,
                       ChainEnv(T0, lambda a: 0, lambda f, t, v: None))
    assert err.value.category == "consistency"


def test_a_reverted_deployment_meters_its_hashes():
    store = ClientStore.bootstrap_secure(K, PARAMS)
    root, sublayer, proof_sr = store.constructor_args()
    forged = SubtreeLayer([truncated_hash(b"junk")] * len(sublayer.nodes), 0)
    env = ChainEnv(T0, lambda a: 0, lambda f, t, v: None)
    trace = env.trace
    with pytest.raises(Revert):
        WalletContract(root, bytes(32), forged, proof_sr, PARAMS, env)
    # The sublayer reduced to its subtree root, then folded up proof_sr.
    assert trace.hashes == len(forged.nodes) - 1 + len(proof_sr)


@pytest.mark.parametrize("params, hashes", [
    (PARAMS, 3), (TreeParams(S=128, N=64, P=2, N_S=16, L_S=2), 6)])
def test_a_deployment_meters_its_hashes(params, hashes):
    world = World(params)
    root, sublayer, proof_sr = world.store.constructor_args()
    env = world.env(world.owner)
    WalletContract(root, world.keypair.public, sublayer, proof_sr, params, env)
    # The contract id, the sublayer reduced to its subtree root, and
    # proof_sr folded up to the root.
    assert env.trace.hashes == 1 + len(sublayer.nodes) - 1 + len(proof_sr) \
        == hashes


def test_degenerate_cache_is_the_root_itself():
    params = TreeParams(S=128, N=8, P=1, N_S=8, L_S=0)
    store = ClientStore.bootstrap_secure(K, params)
    root, sublayer, proof_sr = store.constructor_args()
    assert sublayer.nodes == [root] and len(proof_sr) == 0
    kp = signing.keygen(bytes([7]) * 32)
    wallet = WalletContract(root, kp.public, sublayer, proof_sr, params,
                            ChainEnv(T0, lambda a: 0, lambda f, t, v: None))
    assert wallet.root == root


# -- init ------------------------------------------------------------------------

def test_first_init_returns_op_id_zero(world):
    assert world.init() == 0
    assert world.init() == 1


def test_unsigned_init_reverts(world):
    with pytest.raises(Revert) as err:
        world.wallet.init_op("acct:bob", 1, OpType.TRANSFER,
                             world.env(world.owner, signed=False))
    assert err.value.category == "signature"


def test_wrong_key_init_reverts(world):
    intruder = signing.keygen(bytes([9]) * 32)
    env = world.env("acct:adv")
    env.tx_signature = intruder.sign(env.tx_signing_bytes)
    with pytest.raises(Revert) as err:
        world.wallet.init_op("acct:bob", 1, OpType.TRANSFER, env)
    assert err.value.category == "signature"


def test_reserved_slot_refuses_init(world):
    for _ in range(PARAMS.N_S - 1):
        world.init()
    assert world.wallet.next_op_id == PARAMS.N_S - 1
    with pytest.raises(Revert) as err:
        world.init()
    assert err.value.category == "phase"


def test_a_negative_parameter_is_refused_before_the_op_id_is_taken(world):
    """Of every type: a negative daily limit would switch the limit off."""
    for op_type in (OpType.TRANSFER, OpType.SET_DAILY_LIMIT):
        with pytest.raises(Revert) as err:
            world.init(param=-1, op_type=op_type)
        assert err.value.category == "funds"
    assert world.wallet.next_op_id == 0


def test_last_resort_address_must_differ_from_owner(world):
    with pytest.raises(Revert) as err:
        world.init(addr=world.owner, op_type=OpType.SET_LAST_RESORT_ADDRESS)
    assert err.value.category == "owner-address"


# -- confirm -----------------------------------------------------------------------

def test_transfer_moves_tokens(world):
    op = world.init(param=5)
    world.confirm(op)
    assert world.accounts[world.wallet.contract_id] == 95
    assert world.accounts["acct:bob"] == 5
    assert not world.wallet.operations[op].pending


def test_confirm_requires_pending(world):
    op = world.init()
    world.confirm(op)
    with pytest.raises(Revert) as err:
        world.confirm(op)
    assert err.value.category == "pending"
    with pytest.raises(Revert) as err:
        world.confirm(2)                        # in range, never initialized
    assert err.value.category == "pending"


def test_otp_for_other_operation_rejected(world):
    op0, op1 = world.init(), world.init()
    payload = world.store.build_confirm(op1, world.otp(op1))
    # Wrong OTP under the right proof: value mismatch.
    with pytest.raises(Revert) as err:
        world.wallet.confirm_op(world.otp(op0), payload.proof, op1,
                                world.env(world.owner))
    assert err.value.category == "otp"
    # Right OTP under the other op's id: linkage mismatch.
    payload0 = world.store.build_confirm(op0, world.otp(op0))
    with pytest.raises(Revert) as err:
        world.wallet.confirm_op(payload0.otp, payload0.proof, op1,
                                world.env(world.owner))
    assert err.value.category == "otp"


def test_otp_from_a_different_seed_never_confirms(world):
    from otpwallet.authenticator import Authenticator
    stranger = Authenticator(bytes(range(100, 116)), PARAMS)
    for op_id in (world.init(), world.init()):
        foreign = stranger.get_otp(op_id)
        payload = world.store.build_confirm(op_id, foreign)
        with pytest.raises(Revert) as err:
            world.wallet.confirm_op(payload.otp, payload.proof, op_id,
                                    world.env(world.owner))
        assert err.value.category == "otp"


def test_sliding_window_invalidates_earlier_layers(world):
    ops = [world.init(param=1) for _ in range(6)]
    layer2_op = ops[4]
    assert layer_of(layer2_op, PARAMS) == 2
    world.confirm(layer2_op)
    assert world.wallet.current_layer == 2
    for op in ops[:4]:
        assert layer_of(op, PARAMS) == 1
        with pytest.raises(Revert) as err:
            world.confirm(op)
        assert err.value.category == "layer"
    world.confirm(ops[5])                       # same layer still fine


def test_derived_earlier_layer_digest_rejected(world):
    # From a revealed layer-2 OTP anyone can compute the layer-1 element
    # of the same chain; the watermark must refuse it.
    ops = [world.init(param=1) for _ in range(6)]
    world.confirm(ops[4])                       # layer 2, chain 0
    derived = chain_step(world.otp(ops[4]), PARAMS.P - 1)
    assert derived == world.otp(ops[0])         # layer-1 OTP of chain 0
    payload = world.store.build_confirm(ops[0], derived)
    with pytest.raises(Revert) as err:
        world.wallet.confirm_op(payload.otp, payload.proof, ops[0],
                                world.env(world.owner))
    assert err.value.category == "layer"


def test_transfer_exceeding_balance_reverts(world):
    op = world.init(param=101)
    with pytest.raises(Revert) as err:
        world.confirm(op)
    assert err.value.category == "funds"
    assert world.wallet.operations[op].pending  # revert left it pending


def test_a_transfer_over_the_balance_and_the_daily_limit_reverts_on_funds(
        world):
    op = world.init(param=10, op_type=OpType.SET_DAILY_LIMIT, addr="")
    world.confirm(op)
    op = world.init(param=101)
    with pytest.raises(Revert) as err:
        world.confirm(op)
    assert err.value.category == "funds"


def test_daily_limit_enforced_and_rolls_over(world):
    op = world.init(param=10, op_type=OpType.SET_DAILY_LIMIT, addr="")
    world.confirm(op)
    assert world.wallet.daily_limit == 10
    op = world.init(param=8)
    world.confirm(op)
    op = world.init(param=8)
    with pytest.raises(Revert) as err:
        world.confirm(op)
    assert err.value.category == "daily-limit"
    world.now += 86_400                          # next day, allowance resets
    world.confirm(op)
    assert world.accounts["acct:bob"] == 16


def test_stale_subtree_confirm_rejected(world):
    ops = [world.init(param=1) for _ in range(7)]
    for op in ops[:6]:
        world.confirm(op)
    leftover = ops[6]
    world.introduce_subtree()
    # The client itself refuses cross-subtree payloads; drive the contract
    # directly to observe its own check.
    from otpwallet.hashing import DomainError
    from otpwallet.merkle import proof_to_sublayer
    with pytest.raises(DomainError):
        world.store.build_confirm(leftover, world.otp(leftover))
    proof = proof_to_sublayer(world.store.leaves, 0,
                              leftover % PARAMS.subtree_leaves, PARAMS)
    with pytest.raises(Revert) as err:
        world.wallet.confirm_op(world.otp(leftover), proof, leftover,
                                world.env(world.owner))
    assert err.value.category == "subtree"


# -- next_subtree --------------------------------------------------------------------

def test_subtree_introduction_advances_delta(world):
    for _ in range(PARAMS.N_S - 1):
        world.init(param=1)
    assert world.wallet.current_subtree == 0
    world.introduce_subtree()
    assert world.wallet.current_subtree == 1
    assert world.wallet.current_layer == 1
    assert world.wallet.next_op_id == PARAMS.N_S


def test_subtree_introduction_rejected_off_phase(world):
    op_id = world.wallet.next_op_id
    store = world.store
    with pytest.raises(Revert) as err:
        world.wallet.next_subtree(store.sublayer(1), world.otp(op_id),
                                  MerkleProof(()), store.sublayer_proof(1),
                                  world.env(world.owner))
    assert err.value.category == "phase"


def test_subtree_replay_hits_phase_check(world):
    for _ in range(PARAMS.N_S - 1):
        world.init(param=1)
    op_id = world.wallet.next_op_id
    payload = world.store.build_next_subtree(op_id, world.otp(op_id))
    world.wallet.next_subtree(payload.next_sublayer, payload.otp,
                              payload.proof_otp, payload.proof_sr,
                              world.env(world.owner))
    with pytest.raises(Revert) as err:
        world.wallet.next_subtree(payload.next_sublayer, payload.otp,
                                  payload.proof_otp, payload.proof_sr,
                                  world.env(world.owner))
    assert err.value.category == "phase"


def test_a_subtree_otp_off_the_root_meters_its_hashes(world):
    for _ in range(PARAMS.N_S - 1):
        world.init(param=1)
    op_id = world.wallet.next_op_id
    payload = world.store.build_next_subtree(op_id, world.otp(op_id))
    env = world.env(world.owner)
    trace = env.trace
    with pytest.raises(Revert) as err:
        world.wallet.next_subtree(payload.next_sublayer,
                                  truncated_hash(b"not the otp"),
                                  payload.proof_otp, payload.proof_sr, env)
    assert err.value.category == "otp"
    # The chain ran a(opID)+1 steps to the leaf, and the proof H folds.
    assert trace.hashes == chain_offset(op_id, PARAMS) + 1 + PARAMS.H == 5


def test_subtree_refused_at_parent_boundary(world):
    for _ in range(PARAMS.N_S - 1):
        world.init(param=1)
    world.introduce_subtree()
    for _ in range(PARAMS.N_S - 1):
        world.init(param=1)
    assert world.wallet.next_op_id == PARAMS.N - 1
    op_id = world.wallet.next_op_id
    sublayer = world.store.sublayer(1)
    with pytest.raises(Revert) as err:
        world.wallet.next_subtree(sublayer, world.otp(op_id),
                                  MerkleProof(()), MerkleProof(()),
                                  world.env(world.owner))
    assert err.value.category == "phase"


# -- root replacement -------------------------------------------------------------------

def drive_to_tree_boundary(world):
    params = world.params
    while world.wallet.next_op_id % params.N != params.N - 1:
        if world.wallet.next_op_id % params.N_S == params.N_S - 1:
            world.introduce_subtree()
        else:
            world.init(param=1)


def test_three_stage_rotation_replaces_root(world):
    drive_to_tree_boundary(world)
    old_root = world.wallet.root
    assert world.rotate_root()
    assert world.wallet.root != old_root
    assert world.wallet.next_op_id == PARAMS.N
    assert world.wallet.current_subtree == PARAMS.N // PARAMS.N_S
    # Generation-1 OTPs verify against the new state.
    op = world.init(param=2)
    world.confirm(op)
    assert world.accounts["acct:bob"] == 2


def test_two_consecutive_generations_rotate_cleanly(world):
    for generation in (1, 2):
        drive_to_tree_boundary(world)
        assert world.rotate_root()
        assert world.store.eta == generation
        assert world.wallet.next_op_id == generation * PARAMS.N
        op = world.init(param=1)
        world.confirm(op)


def test_rotation_stages_enforce_phase_and_signature(world):
    value = truncated_hash(b"x")
    with pytest.raises(Revert) as err:
        world.wallet.new_root_stage1(value, world.env(world.owner, signed=True))
    assert err.value.category == "phase"
    drive_to_tree_boundary(world)
    with pytest.raises(Revert) as err:
        world.wallet.new_root_stage1(value, world.env(world.owner))
    assert err.value.category == "signature"
    with pytest.raises(Revert) as err:
        world.wallet.new_root_stage2(value, world.env(world.owner))
    assert err.value.category == "signature"


def test_stage3_without_matching_pair_is_a_noop(world):
    drive_to_tree_boundary(world)
    op_id = world.wallet.next_op_id
    new_root = world.store.stage_rotation(K)
    stages = world.store.build_new_root_stages(op_id, new_root,
                                               world.otp(op_id))
    world.wallet.new_root_stage1(stages.h_root_and_otp,
                                 world.env(world.owner, signed=True))
    # Stage 2 never ran: no pair can match, lists stay, root unchanged.
    old_root = world.wallet.root
    ok = world.wallet.new_root_stage3(stages.otp, stages.proof_otp,
                                      stages.new_sublayer, stages.proof_sr,
                                      world.env(world.owner))
    assert not ok
    assert world.wallet.root == old_root
    assert len(world.wallet.l1) == 1 and len(world.wallet.l2) == 0
    # Completing stage 2 lets a retry of stage 3 succeed.
    world.wallet.new_root_stage2(stages.new_root,
                                 world.env(world.owner, signed=True))
    assert world.wallet.new_root_stage3(stages.otp, stages.proof_otp,
                                        stages.new_sublayer, stages.proof_sr,
                                        world.env(world.owner))


def test_overflowing_lists_are_cleared_without_update(world):
    drive_to_tree_boundary(world)
    op_id = world.wallet.next_op_id
    new_root = world.store.stage_rotation(K)
    stages = world.store.build_new_root_stages(op_id, new_root,
                                               world.otp(op_id))
    for i in range(PARAMS.LEN_MAX + 1):
        world.wallet.new_root_stage1(truncated_hash(bytes([i])),
                                     world.env(world.owner, signed=True))
        world.wallet.new_root_stage2(truncated_hash(bytes([i, 1])),
                                     world.env(world.owner, signed=True))
    old_root = world.wallet.root
    ok = world.wallet.new_root_stage3(stages.otp, stages.proof_otp,
                                      stages.new_sublayer, stages.proof_sr,
                                      world.env(world.owner))
    assert not ok
    assert world.wallet.root == old_root
    assert world.wallet.l1 == [] and world.wallet.l2 == []


def test_first_match_wins_over_later_adversary_pair(world):
    drive_to_tree_boundary(world)
    op_id = world.wallet.next_op_id
    otp = world.otp(op_id)
    new_root = world.store.stage_rotation(K)
    stages = world.store.build_new_root_stages(op_id, new_root, otp)
    env = lambda: world.env(world.owner, signed=True)
    world.wallet.new_root_stage1(stages.h_root_and_otp, env())
    world.wallet.new_root_stage2(stages.new_root, env())
    # Adversary (holding the stolen key) appends a matching pair for its
    # own root after intercepting the OTP.
    adv_root = truncated_hash(b"adversary-root")
    world.wallet.new_root_stage1(truncated_hash(adv_root + otp), env())
    world.wallet.new_root_stage2(adv_root, env())
    assert world.wallet.new_root_stage3(stages.otp, stages.proof_otp,
                                        stages.new_sublayer, stages.proof_sr,
                                        world.env(world.owner))
    assert world.wallet.root == new_root        # the user's earlier pair won


def test_stage3_meters_the_climb_each_probe_and_the_new_sublayer(world):
    drive_to_tree_boundary(world)
    op_id = world.wallet.next_op_id
    new_root = world.store.stage_rotation(K)
    stages = world.store.build_new_root_stages(op_id, new_root,
                                               world.otp(op_id))
    args = (stages.otp, stages.proof_otp, stages.new_sublayer, stages.proof_sr)
    world.wallet.new_root_stage1(stages.h_root_and_otp,
                                 world.env(world.owner, signed=True))
    world.wallet.new_root_stage2(truncated_hash(b"not the new root"),
                                 world.env(world.owner, signed=True))
    # The OTP climbs a(opID)+1 chain steps and H_S - L_S folds to its
    # cached node.
    climb = chain_offset(op_id, PARAMS) + 1 + PARAMS.H_S - PARAMS.L_S
    env = world.env(world.owner)
    assert not world.wallet.new_root_stage3(*args, env)
    # One probe for the one candidate, which does not match.
    assert env.trace.hashes == climb + 1 == 4
    world.wallet.new_root_stage2(stages.new_root,
                                 world.env(world.owner, signed=True))
    env = world.env(world.owner)
    assert world.wallet.new_root_stage3(*args, env)
    # Two probes, the second matching; then the new sublayer reduced to its
    # subtree root and proof_sr folded up to the new root.
    assert env.trace.hashes == (climb + 2 + len(stages.new_sublayer.nodes) - 1
                                + len(stages.proof_sr)) == 7


# -- last resort -----------------------------------------------------------------------

def configure_last_resort(world, timeout=1000):
    op = world.init(addr="acct:heir", op_type=OpType.SET_LAST_RESORT_ADDRESS,
                    param=0)
    world.confirm(op)
    op = world.init(param=timeout, op_type=OpType.SET_LAST_RESORT_TIMEOUT,
                    addr="")
    world.confirm(op)


def test_last_resort_timing_boundaries(world):
    configure_last_resort(world)
    start = world.wallet.last_activity
    world.now = start + 1000 - 1
    with pytest.raises(Revert) as err:
        world.wallet.send_to_last_resort(world.env("acct:anyone"))
    assert err.value.category == "timeout"
    world.now = start + 1000
    with pytest.raises(Revert):
        world.wallet.send_to_last_resort(world.env("acct:anyone"))
    world.now = start + 1000 + 1
    amount = world.wallet.send_to_last_resort(world.env("acct:anyone"))
    assert amount == world.accounts["acct:heir"] > 0
    assert world.accounts[world.wallet.contract_id] == 0
    assert world.wallet.destroyed
    with pytest.raises(Revert) as err:
        world.init()
    assert err.value.category == "destroyed"


def test_confirmations_postpone_last_resort(world):
    configure_last_resort(world)
    start = world.wallet.last_activity
    world.now = start + 900
    op = world.init(param=1)
    world.confirm(op)                            # resets the activity clock
    world.now = start + 1001
    with pytest.raises(Revert):
        world.wallet.send_to_last_resort(world.env("acct:anyone"))
    world.now = world.wallet.last_activity + 1001
    assert world.wallet.send_to_last_resort(world.env("acct:anyone")) > 0


def test_unconfigured_last_resort_reverts(world):
    with pytest.raises(Revert) as err:
        world.wallet.send_to_last_resort(world.env("acct:anyone"))
    assert err.value.category == "timeout"


# -- snapshots ---------------------------------------------------------------------------

def test_snapshot_isolates_a_confirmation(world):
    op = world.init()
    original = world.wallet
    lines = original.state_lines()
    world.wallet = original.snapshot()
    world.confirm(op)
    assert not world.wallet.operations[op].pending
    assert original.operations[op].pending
    assert original.state_lines() == lines


def test_snapshot_isolates_a_rotation(world):
    drive_to_tree_boundary(world)
    original = world.wallet
    lines = original.state_lines()
    world.wallet = original.snapshot()
    assert world.rotate_root()
    assert world.wallet.root != original.root
    assert original.state_lines() == lines


def test_a_snapshot_copies_only_the_containers_a_call_changes(monkeypatch):
    monkeypatch.setattr(contract_mod, "CHUNK", 4)
    params = TreeParams(S=128, N=32, P=2, N_S=8, L_S=1)
    world = World(params)
    for _ in range(params.N_S - 1):
        world.init(param=1)
    world.introduce_subtree()
    op = world.init(param=1)                    # ops 0-3, then 4-6, then 8
    wallet = world.wallet
    lines = wallet.state_lines()
    twin = wallet.snapshot()
    assert type(twin) is WalletContract and twin is not wallet
    assert twin.state_lines() == lines
    assert vars(twin).keys() == vars(wallet).keys()
    # Shared: everything. A call rebinds the operation records, L1, L2 and
    # the sublayer instead of writing them.
    assert twin.root is wallet.root and twin.pk is wallet.pk
    assert twin.params is wallet.params
    for name in ("operations", "l1", "l2", "sublayer"):
        assert getattr(twin, name) is getattr(wallet, name)
    # A write on the snapshot replaces the one chunk it writes and shares
    # the others.
    world.wallet = twin
    before = wallet.operations
    world.confirm(op)
    assert not twin.operations[op].pending and before[op].pending
    removed, added = chunk_changes(before, twin.operations)
    assert len(before._chunks) == 3 and removed == [before._chunks[2]]
    assert len(added) == 1 and all(
        twin.operations._chunks[i] is before._chunks[i] for i in (0, 1))
    # An init, a confirmation and a subtree introduction on the snapshot
    # leave the original as it was.
    while twin.next_op_id % params.N_S != params.N_S - 1:
        world.init(param=1)
    world.introduce_subtree()
    assert twin.current_subtree == wallet.current_subtree + 1
    assert wallet.state_lines() == lines
    assert wallet.state_lines() == reference_state_lines(wallet)
    # Stages 1, 2 and 3 on a snapshot that shares a non-empty L1 and L2
    # leave the contract it was taken from as it was.
    drive_to_tree_boundary(world)
    signed = world.env(world.owner, signed=True)
    twin.new_root_stage1(truncated_hash(b"an earlier L1 entry"), signed)
    twin.new_root_stage2(truncated_hash(b"an earlier L2 entry"), signed)
    twin_lines = twin.state_lines()
    world.wallet = twin.snapshot()
    assert world.wallet.l1 is twin.l1 and world.wallet.l2 is twin.l2
    assert world.rotate_root()
    assert world.wallet.root != twin.root
    assert twin.state_lines() == twin_lines
    assert twin.state_lines() == reference_state_lines(twin)
    assert wallet.state_lines() == lines


# -- sealed chunks ----------------------------------------------------------------------------

SEALING = TreeParams(S=128, N=8, P=1, N_S=4, L_S=1)   # 2 subtrees a generation
STEP = st.tuples(st.just("step"), st.sampled_from(["secure", "insecure"]))
# Mostly honest steps, so that sequences seal subtrees and rotate.
CALLS = st.lists(st.one_of(
    STEP, STEP, STEP,
    st.tuples(st.just("init"), st.sampled_from(list(OpType)),
              st.integers(0, 60)),
    st.tuples(st.just("confirm"), st.integers(0, 63)),
), min_size=8, max_size=30)


def _step(world, model, call):
    """Run one call as the ledger does, on a snapshot of the wallet; the
    model of every record follows the calls that land."""
    wallet, params = world.wallet, world.params
    kind = call[0]
    if kind == "step":
        slot = wallet.next_op_id
        if slot % params.N == params.N - 1:
            assert world.rotate_root(call[1])
        elif slot % params.N_S == params.N_S - 1:
            world.introduce_subtree()
        else:
            model[world.init(param=1)] = (OpType.TRANSFER, "acct:bob", 1, True)
    elif kind == "init":
        _, op_type, param = call
        model[world.init("acct:bob", param, op_type)] = (op_type, "acct:bob",
                                                          param, True)
    else:
        op_id = call[1] % max(wallet.next_op_id, 1)
        record = model.get(op_id)
        open_pending = (record is not None and record[3]
                        and op_id // params.N_S == wallet.current_subtree)
        if open_pending:
            world.confirm(op_id)
            model[op_id] = record[:3] + (False,)
            return
        # Sealed, confirmed or never initialised: the contract reverts on
        # its first two checks, in their order, before it reads the OTP.
        with pytest.raises(Revert) as err:
            wallet.confirm_op(bytes(16), MerkleProof(()), op_id,
                              world.env(world.owner))
        assert err.value.category == ("pending" if record is None
                                      or not record[3] else "subtree")
        raise err.value


def _fields(operations) -> dict:
    return {op_id: (r.type, r.addr, r.param, r.pending)
            for op_id, r in operations.items()}


@settings(max_examples=20, deadline=None)
@given(CALLS)
def test_sealed_chunks_render_parse_and_share_as_one_dict_would(calls):
    """Chunks of 3 records, so that the calls fill chunks and start new
    ones; every other call goes on from the contract restored from the
    lines of the last, so that writes also land on restored chunks."""
    world, model = World(SEALING, funding=200), {}
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(contract_mod, "CHUNK", 3)
        for i, call in enumerate(calls):
            original = world.wallet
            lines = original.state_lines()
            world.wallet = original.snapshot()
            assert world.wallet.operations is original.operations
            try:
                _step(world, model, call)
            except Revert:
                world.wallet = original
            assert original.state_lines() == lines
            wallet = world.wallet
            removed, added = chunk_changes(original.operations,
                                           wallet.operations)
            assert len(removed) <= len(added) <= 1
            assert all(len(chunk) <= 3 for chunk in added)
            assert _fields(wallet.operations) == model
            assert len(wallet.operations) == len(model)
            assert wallet.state_lines() == reference_state_lines(wallet)
            twin = WalletContract.from_state_lines(wallet.state_lines(),
                                                   SEALING)
            # Parsed: only the current subtree's records.
            assert all(op_id // SEALING.N_S == twin.current_subtree
                       for chunk in twin.operations._chunks
                       if chunk._records is not None
                       for op_id in chunk._records)
            assert twin.state_lines() == wallet.state_lines()
            assert _fields(twin.operations) == model
            assert vars(twin) == vars(wallet)
            assert wallet.snapshot().operations is wallet.operations
            if i % 2:
                world.wallet = twin


def test_every_chunk_holds_the_ids_of_one_subtree():
    """At the `lifetime` bench workload's parameters, where a subtree holds
    15 records and a chunk up to `CHUNK` = 64, a chunk still ends at each
    subtree boundary, through subtree introductions and a rotation: a
    record write copies at most one subtree's records."""
    params = TreeParams(S=128, N=64, P=1, N_S=16, L_S=2)
    world = World(params, funding=1000)
    while world.wallet.next_op_id < params.N + params.N_S:
        slot = world.wallet.next_op_id
        if slot % params.N == params.N - 1:
            assert world.rotate_root()
        elif slot % params.N_S == params.N_S - 1:
            world.introduce_subtree()
        else:
            world.confirm(world.init(param=1))
        chunks = world.wallet.operations._chunks
        assert [{op_id // params.N_S for op_id in chunk.records()}
                for chunk in chunks] == [{s} for s in range(len(chunks))]


# -- the header layout ------------------------------------------------------------------------

def test_a_contract_holds_the_layouts_fields_and_three_more(world):
    """The header's attributes, with the parameters, the owner's account
    and the operation records: every other attribute would be state that
    `state_lines` leaves out."""
    fields = {attr.split(".")[0] for _, attr, _, _ in contract_mod._LAYOUT}
    assert vars(world.wallet).keys() == fields | {"params", "owner_account",
                                                  "operations"}


def _far_from_deploy(world) -> WalletContract:
    """The world's wallet with every header field but its id, root and key
    away from the value a deploy sets: limits, a spend on a later day, a
    last resort whose address holds `,` and `=`, a later subtree and layer,
    staged L1 and L2 entries at the tree boundary, and then emptied to the
    last resort."""
    for op_type, addr, param in (
            (OpType.SET_DAILY_LIMIT, "acct:bob", 50),
            (OpType.SET_LAST_RESORT_ADDRESS, "acct:x,y=z", 0),
            (OpType.SET_LAST_RESORT_TIMEOUT, "acct:bob", 1000)):
        world.confirm(world.init(addr, param, op_type))
    world.now += 86400
    world.confirm(world.init(param=7))
    drive_to_tree_boundary(world)
    world.confirm(PARAMS.N - 2)                 # at the last layer
    signed = world.env(world.owner, signed=True)
    world.wallet.new_root_stage1(truncated_hash(b"an L1 entry"), signed)
    world.wallet.new_root_stage2(truncated_hash(b"an L2 entry"), signed)
    world.now = world.wallet.last_activity + 1001
    world.wallet.send_to_last_resort(world.env("acct:anyone"))
    return world.wallet


def test_every_header_field_renders_and_parses_back(world):
    fresh = world.wallet.state_lines()
    wallet = _far_from_deploy(world)
    lines = wallet.state_lines()
    assert lines == reference_state_lines(wallet)
    keys = [key for key, *_ in contract_mod._LAYOUT]
    assert [key for key, line, deployed in zip(keys, lines, fresh)
            if line != deployed] == keys[3:]
    assert "lastResortAddr=acct:x,y=z" in lines and wallet.destroyed
    twin = WalletContract.from_state_lines(lines, PARAMS)
    assert vars(twin) == vars(wallet)
    assert twin.state_lines() == lines


@pytest.mark.parametrize("edit", ["swapped", "extra", "missing",
                                  "not-text"])
def test_a_header_is_exactly_the_layouts_lines(world, edit):
    """Two header lines swapped, one line added to the header or one left
    out: the header holds the same fields or one more or less, in lines
    that no save writes. A header line that is not text is a TypeError."""
    world.confirm(world.init())
    lines = world.wallet.state_lines()
    WalletContract.from_state_lines(lines, PARAMS)
    if edit == "swapped":
        lines[6], lines[7] = lines[7], lines[6]
    elif edit == "extra":
        lines.insert(5, "gasPrice=1")
    elif edit == "missing":
        del lines[8]
    else:
        lines[8] = 5
    with pytest.raises(TypeError if edit == "not-text" else ValueError):
        WalletContract.from_state_lines(lines, PARAMS)
