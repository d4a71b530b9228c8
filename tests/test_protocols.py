"""Protocol runs, party behavior, and the displays the user compares."""

import json
import random
import shutil

import pytest

from otpwallet import merkle, signing
from otpwallet.cli import World, main
from otpwallet.client import CONFIRMATION_DEPTH
from otpwallet.contract import OpType
from otpwallet.hashing import random_seed, truncated_hash
from otpwallet.ledger import Ledger, LedgerError, Transaction
from otpwallet.merkle import TreeParams, all_leaves, path, sublayer_in
from otpwallet.protocols import (
    HardwareWallet,
    ProtocolAbort,
    UserModel,
    confirm_operation,
    init_operation,
    render_op,
    run_bootstrap,
    run_new_root,
    run_next_subtree,
    run_operation,
    submit_signed,
)
from otpwallet.scenarios import _adversary

from harness import depths_waited


def test_secure_bootstrap_deploys_and_first_confirm_succeeds():
    system = run_bootstrap("secure", seed=3)
    assert system.contract_id
    assert system.contract.contract_id == system.contract_id
    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 5)
    assert outcome["ok"]
    assert system.ledger.accounts[system.recipient] == 5


def test_insecure_bootstrap_matches_secure_outcome():
    secure = run_bootstrap("secure", seed=4)
    insecure = run_bootstrap("insecure", seed=4)
    assert secure.contract_id == insecure.contract_id
    assert secure.client.leaves == insecure.client.leaves


def test_insecure_bootstrap_aborts_on_forged_root():
    with pytest.raises(ProtocolAbort):
        run_bootstrap("insecure", seed=4, tamper_root=truncated_hash(b"evil"))


@pytest.mark.parametrize("funding", [-5, -1])
def test_a_bootstrap_whose_funding_does_not_land_aborts(funding):
    with pytest.raises(ProtocolAbort, match="funding failed: revert:funds"):
        run_bootstrap("secure", seed=3, funding=funding)


@pytest.mark.parametrize("funding", [0, 1])
def test_a_bootstrap_with_no_funding_to_move_deploys(funding):
    system = run_bootstrap("secure", seed=3, funding=funding)
    assert system.ledger.accounts[system.contract_id] == 0
    assert system.ledger.accounts[system.user_account] == funding


def test_operation_waits_for_confirmation_depth():
    system = run_bootstrap("secure", seed=5)
    init = init_operation(system, OpType.TRANSFER, system.recipient, 1)
    confirm = confirm_operation(system, init["op_id"])
    ledger = system.ledger
    assert (ledger.confirmations(init["txid"])
            - ledger.confirmations(confirm["txid"]) - 1
            >= CONFIRMATION_DEPTH)
    assert list(depths_waited(ledger).values()) == [
        CONFIRMATION_DEPTH]


def test_an_init_orphaned_by_a_reorg_is_mined_again_before_the_wait():
    system = run_bootstrap("secure", seed=3)
    init = init_operation(system, OpType.TRANSFER, system.recipient, 1)
    ledger = system.ledger
    branch = ledger.fork(ledger.head.height - 1)
    for _ in range(2):
        ledger.mine_block(branch=branch)
    ledger.reorg(branch)
    assert ledger.confirmations(init["txid"]) is None
    height = ledger.head.height
    assert confirm_operation(system, init["op_id"])["ok"]
    # One block mines the init again, the depth's blocks bury it, and one
    # block holds the confirmation.
    depth = CONFIRMATION_DEPTH
    assert ledger.head.height - height == 1 + depth + 1 == 14
    assert ledger.confirmations(init["txid"]) == depth + 1
    assert system.confirmed_transfers == [(system.recipient, 1)]


def test_an_init_that_a_reorg_leaves_with_a_spent_nonce_aborts_the_wait():
    system = run_bootstrap("secure", seed=3)
    ledger, owner = system.ledger, system.user_account
    ledger.mine_block()
    branch = ledger.fork(ledger.head.height - 1)
    # The branch spends the owner's next nonce on a transfer.
    nonce = ledger.next_nonce(owner)
    ledger.submit(Transaction(owner, {"fn": "transfer",
                                      "to": system.recipient, "amount": 1},
                              fee=1, nonce=nonce))
    for _ in range(4):
        ledger.mine_block(branch=branch)
    init = init_operation(system, OpType.TRANSFER, system.recipient, 1)
    assert init["ok"] and ledger.receipt(init["txid"]).tx.nonce == nonce
    ledger.reorg(branch)
    with pytest.raises(ProtocolAbort, match=f"{init['txid']} vanished"):
        confirm_operation(system, init["op_id"])
    # The wait mined the orphaned init once more, at a nonce already spent.
    assert [(r.txid, r.status) for r in ledger.head.receipts] == [
        (init["txid"], "invalid-nonce")]
    assert ledger.confirmations(init["txid"]) is None and not ledger.mempool
    assert system.confirmed_transfers == []
    assert init["op_id"] not in system.contract.operations


def test_contract_ids_agree_across_parties():
    system = run_bootstrap("secure", seed=6)
    expected = truncated_hash(system.hw.public + system.client.root).hex()
    assert system.contract_id == expected


def test_tampered_recipient_is_refused_at_the_display():
    system = run_bootstrap("secure", seed=7)
    with pytest.raises(ProtocolAbort):
        run_operation(system, OpType.TRANSFER, system.recipient, 5,
                      tampered_addr="acct:adversary")


def test_tampered_param_is_refused_at_the_display():
    # A compromised client sends param 500 for the user's 5; the wallet
    # displays what it signs, the user compares it whole and refuses.
    system = run_bootstrap("secure", seed=7)
    system.user.expect(render_op(system.recipient, 5, OpType.TRANSFER))
    with pytest.raises(ProtocolAbort):
        submit_signed(system, {"fn": "init_op", "contract": system.contract_id,
                               "addr": system.recipient, "param": 500,
                               "type": OpType.TRANSFER},
                      render_op(system.recipient, 500, OpType.TRANSFER))
    assert not system.ledger.mempool


def test_full_display_shows_everything():
    hw = HardwareWallet(signing.keygen(bytes([1]) * 32))
    shown = []
    tx = Transaction(hw.account, {"fn": "transfer", "to": "b", "amount": 1})
    assert not hw.request_signature(tx, "x" * 500,
                                    lambda s: shown.append(s) or False)
    assert shown == ["x" * 500] and tx.signature is None


def test_user_model_compares_and_transfers_via_mnemonic():
    user = UserModel()
    user.expect("addr=a param=1 type=transfer")
    assert user.approve("addr=a param=1 type=transfer")
    assert not user.approve("addr=b param=1 type=transfer")
    assert not user.approve("")
    value = truncated_hash(b"v")
    assert user.transfer_digest(value) == value


def test_subtree_and_rotation_full_cycle():
    system = run_bootstrap("secure", seed=9)
    params = system.params
    for _ in range(params.N_S - 1):
        assert run_operation(system, OpType.TRANSFER, system.recipient, 1)["ok"]
    assert run_next_subtree(system)["ok"]
    assert system.contract.current_subtree == 1
    for _ in range(params.N_S - 1):
        assert run_operation(system, OpType.TRANSFER, system.recipient, 1)["ok"]
    assert run_new_root(system, "secure")["ok"]
    assert system.authenticator.eta == 1
    assert run_operation(system, OpType.TRANSFER, system.recipient, 1)["ok"]


def test_insecure_rotation_compares_previews():
    system = run_bootstrap("insecure", seed=10)
    params = system.params
    for _ in range(params.N_S - 1):
        assert run_operation(system, OpType.TRANSFER, system.recipient, 1)["ok"]
    assert run_next_subtree(system)["ok"]
    for _ in range(params.N_S - 1):
        assert run_operation(system, OpType.TRANSFER, system.recipient, 1)["ok"]
    assert run_new_root(system, "insecure")["ok"]
    assert system.client.eta == 1


def test_rotation_refused_off_boundary():
    system = run_bootstrap("secure", seed=11)
    with pytest.raises(ProtocolAbort):
        run_new_root(system, "secure")


def test_render_op_puts_the_address_first():
    text = render_op("acct:bob", 5, OpType.TRANSFER)
    assert text.startswith("addr=acct:bob")


def test_bootstrap_builds_the_client_tree_once(monkeypatch, tmp_path):
    builds = []
    real = merkle.build_levels

    def counting(*args, **kwargs):
        builds.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(merkle, "build_levels", counting)
    for mode in ("secure", "insecure"):
        builds.clear()
        run_bootstrap(mode, seed=3)
        assert builds == [8]
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(bytes(range(16)).hex() + "\n")
    state_dir = tmp_path / "wallet"
    assert main(["--state-dir", str(state_dir), "bootstrap",
                 "--seed-file", str(seed_file)]) == 0
    # A load builds no tree; the first proof builds one, the next none.
    builds.clear()
    client = World.load(state_dir).system.client
    assert builds == []
    client.sublayer_proof(0)
    assert builds == [8]
    client.sublayer_proof(1)
    assert builds == [8]


def test_split_steps_replay_run_operation_exactly():
    whole = run_bootstrap("secure", seed=12)
    split = run_bootstrap("secure", seed=12)
    for amount in (1, 2):
        assert run_operation(whole, OpType.TRANSFER, whole.recipient,
                             amount)["ok"]
        init = init_operation(split, OpType.TRANSFER, split.recipient, amount)
        assert confirm_operation(split, init["op_id"])["ok"]
    assert split.ledger.state_hash() == whole.ledger.state_hash()
    assert split.ledger.event_log() == whole.ledger.event_log()
    assert split.confirmed_transfers == whole.confirmed_transfers
    assert depths_waited(split.ledger) == depths_waited(whole.ledger)


def test_otp_is_requested_only_at_confirmation_depth(monkeypatch):
    system = run_bootstrap("secure", seed=13)
    depth = CONFIRMATION_DEPTH
    requested = []
    real = system.authenticator.get_otp

    def recording(rel):
        init_txid = system.initialised[rel][0]
        requested.append(system.ledger.confirmations(init_txid))
        return real(rel)

    monkeypatch.setattr(system.authenticator, "get_otp", recording)
    first = init_operation(system, OpType.TRANSFER, system.recipient, 1)
    second = init_operation(system, OpType.TRANSFER, system.recipient, 2)
    assert requested == []
    start = system.ledger.head.height
    assert confirm_operation(system, first["op_id"])["ok"]
    assert confirm_operation(system, second["op_id"])["ok"]
    assert run_operation(system, OpType.TRANSFER, system.recipient, 3)["ok"]
    assert requested == [depth] * 3
    # The first wait mines the depth - 1 blocks its init lacks; with the
    # first confirm on top, the second init is deep, so the second confirm
    # mines only itself. run_operation mines init, depth, confirm.
    assert system.ledger.head.height == start + (depth - 1 + 1) + 1 + (
        1 + depth + 1)


def test_confirm_of_an_unknown_operation_sends_nothing():
    system = run_bootstrap("secure", seed=14)
    height = system.ledger.head.height
    outcome = confirm_operation(system, 5)
    assert not outcome["ok"] and outcome["status"] == "not-initialised"
    assert system.ledger.head.height == height and not system.ledger.mempool


def test_a_reorg_within_the_depth_cannot_install_an_adversarys_root():
    """Stage 3 of a rotation reveals the OTP. An adversary with the owner's
    key who forks below stage 1 can build its own stages 1, 2 and 3 with
    that OTP, land them in one block and outrun the chain by a few blocks,
    unless stage 3 waited until stages 1 and 2 were CONFIRMATION_DEPTH
    deep."""
    params = TreeParams(S=128, N=8, P=2, N_S=8, L_S=1)
    system = run_bootstrap("secure", seed=5, params=params)
    ledger = system.ledger
    for _ in range(params.N - 1):
        assert run_operation(system, OpType.TRANSFER, system.recipient, 1)["ok"]
    assert run_new_root(system, "secure")["ok"]
    honest_root = system.client.root
    mined = {r.fn: (blk.height, r.tx) for blk in ledger.chain
             for r in blk.receipts if r.fn.startswith("new_root_stage")}
    revealed = mined["new_root_stage3"][1].call       # now public

    adv_levels = merkle.build_levels(all_leaves(
        random_seed(random.Random(31337)), params, system.client.eta))
    adv_root = adv_levels[-1][0]
    branch = ledger.fork(mined["new_root_stage1"][0] - 1)
    stolen = system.hw.keypair
    for fn, key, args in (
            ("new_root_stage1", stolen, {"value": truncated_hash(
                adv_root + revealed["otp"], params.digest_bytes)}),
            ("new_root_stage2", stolen, {"value": adv_root}),
            ("new_root_stage3", None, {
                "otp": revealed["otp"], "proof": revealed["proof"],
                "sublayer": sublayer_in(adv_levels, 0, params),
                "proof_sr": path(adv_levels, 0, params.H_S, params.H)})):
        ledger.submit(_adversary(system, fn, fee=60, key=key, **args))
    for _ in range(5):
        ledger.mine_block(branch=branch)
    # On its branch the attack works: all three stages land in one block.
    assert [r.result for r in ledger.branches[branch][-5].receipts] == [
        "", "", "updated"]
    assert ledger.branches[branch][-1].state.contracts[
        system.contract_id].root == adv_root

    if len(ledger.branches[branch]) > len(ledger.chain):
        ledger.reorg(branch)
    assert system.contract.root == honest_root != adv_root
    # The OTP was revealed only once stages 1 and 2 were deep enough.
    depth = CONFIRMATION_DEPTH
    assert mined["new_root_stage3"][0] - mined["new_root_stage2"][0] > depth


def _containers(obj) -> dict:
    return {name: value for name, value in vars(obj).items()
            if isinstance(value, (list, dict, set))}


def test_a_fork_copies_every_container_a_step_changes():
    system = run_bootstrap("secure", seed=21)
    ledger = system.ledger
    assert run_operation(system, OpType.TRANSFER, system.recipient, 5)["ok"]
    ledger.fork(ledger.head.height - 2)
    ledger.observers.append(lambda tx: None)
    init_operation(system, OpType.TRANSFER, system.recipient, 1)
    ledger.submit(Transaction(system.user_account, {
        "fn": "transfer", "to": system.recipient, "amount": 1},
        nonce=ledger.next_nonce(system.user_account)))
    twin = system.fork()

    pairs = [(system, twin), (ledger, twin.ledger),
             (system.authenticator, twin.authenticator),
             (system.client, twin.client), (system.user, twin.user)]
    for orig, copy in pairs:
        assert copy is not orig
        assert vars(copy).keys() == vars(orig).keys()
        for name, value in _containers(orig).items():
            if orig is system.client and name == "levels":
                continue
            assert getattr(copy, name) is not value, name
            assert getattr(copy, name) == value, name
    for name in ledger.branches:
        assert twin.ledger.branches[name] is not ledger.branches[name]
        assert twin.ledger.tx_heights[name] is not ledger.tx_heights[name]
    assert ledger.mempool and ledger.observers and ledger._verified
    assert system.confirmed_transfers and system.initialised
    # Shared, because no step changes them once made.
    assert twin.client.levels is system.client.levels
    assert twin.hw.keypair is system.hw.keypair
    assert all(a is b for a, b in zip(twin.ledger.chain, ledger.chain))
    assert all(a is b for a, b in zip(twin.ledger.mempool, ledger.mempool))


def test_a_driven_fork_leaves_its_sibling_a_fresh_bootstrap(monkeypatch):
    pristine = run_bootstrap("secure", seed=22)
    driven, sibling = pristine.fork(), pristine.fork()
    ledger, seen = driven.ledger, []
    ledger.observers.append(seen.append)
    assert run_operation(driven, OpType.TRANSFER, driven.recipient, 5)["ok"]
    branch = ledger.fork(ledger.head.height - 1)
    ledger.mine_block(branch=branch)
    ledger.mine_block(branch=branch)
    ledger.reorg(branch)
    assert seen and ledger.mempool and driven.confirmed_transfers

    fresh = run_bootstrap("secure", seed=22)
    for world in (sibling, pristine):
        assert world.ledger.state_hash() == fresh.ledger.state_hash()
        assert world.ledger.event_log() == fresh.ledger.event_log()
        assert world.ledger.accounts == fresh.ledger.accounts
        assert world.ledger.head.state.nonces == fresh.ledger.head.state.nonces
        assert world.ledger.mempool == [] and world.ledger.observers == []
        assert world.client.root == fresh.client.root
        assert (world.confirmed_transfers, world.initialised) == ([], {})

    # The sibling's first init is the driven fork's, byte for byte, yet it
    # is verified again: the forks share no verified-signature memo.
    calls, real = [], signing.verify
    monkeypatch.setattr(signing, "verify",
                        lambda *args: (calls.append(1), real(*args))[1])
    assert run_operation(sibling, OpType.TRANSFER, sibling.recipient, 5)["ok"]
    assert run_operation(fresh, OpType.TRANSFER, fresh.recipient, 5)["ok"]
    assert len(calls) == 2
    assert sibling.ledger.state_hash() == fresh.ledger.state_hash()


def test_a_restored_world_forks_as_the_replayed_world(tmp_path):
    """`System.fork` of a restored CLI world and of the same world replayed
    from its log run an operation to the same state, and leave the worlds
    they fork as they were."""
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(bytes(range(16)).hex() + "\n")
    state_dir = tmp_path / "wallet"
    argv = ["--state-dir", str(state_dir)]
    assert main([*argv, "bootstrap", "--seed-file", str(seed_file)]) == 0
    assert main([*argv, "op", "init", "--type", "transfer", "--addr",
                 "acct:bob", "--param", "5"]) == 0
    replayed_dir = tmp_path / "replayed"
    shutil.copytree(state_dir, replayed_dir)
    world_file = replayed_dir / "world.json"
    data = json.loads(world_file.read_text())
    data["head"]["checkpoint"] = None           # the load replays the log
    world_file.write_text(json.dumps(data))
    restored = World.load(state_dir).system
    replayed = World.load(replayed_dir).system
    assert restored.ledger._below is not None
    recorded = restored.ledger.state_hash()
    forks = [world.fork() for world in (restored, replayed)]
    for fork in forks:
        assert run_operation(fork, OpType.TRANSFER, fork.recipient, 7)["ok"]
        assert fork.ledger.accounts[fork.recipient] == 7
        assert depths_waited(fork.ledger)["1"] >= CONFIRMATION_DEPTH
    assert forks[0].ledger.state_hash() == forks[1].ledger.state_hash()
    assert forks[0].initialised == forks[1].initialised
    for world in (restored, replayed):
        assert world.ledger.state_hash() == recorded
        assert sorted(world.initialised) == [0]
    assert restored.ledger._below is not None   # its copy read the chain

