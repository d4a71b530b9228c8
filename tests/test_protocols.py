"""Protocol runs, party behavior, and the display-truncation regression."""

import pytest

from otpwallet import merkle, signing
from otpwallet.cli import World, main
from otpwallet.contract import OpType
from otpwallet.hashing import truncated_hash
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
)


def test_secure_bootstrap_deploys_and_first_confirm_succeeds():
    system = run_bootstrap("secure", seed=3)
    assert system.contract_id
    assert system.contract.contract_id == system.client.contract_id
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


def test_operation_waits_for_confirmation_depth():
    system = run_bootstrap("secure", seed=5)
    run_operation(system, OpType.TRANSFER, system.recipient, 1)
    assert system.depth_checks
    assert all(c >= system.client.confirmation_depth
               for _, c in system.depth_checks)


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
    system = run_bootstrap("secure", seed=7)
    with pytest.raises(ProtocolAbort):
        run_operation(system, OpType.TRANSFER, system.recipient, 5,
                      tampered_param=500)


def test_display_truncation_regression():
    # Devices showing only a payload prefix: tampering beyond the shown
    # bytes slips through, tampering the leading address still fails.
    # The address sits first as the mitigation.
    system = run_bootstrap("secure", seed=8)
    system.hw.display_limit = len("addr=acct:recipient")
    outcome = run_operation(system, OpType.TRANSFER, system.recipient, 5,
                            tampered_param=400)
    assert outcome["ok"] or outcome["stage"] == "confirm"
    assert system.contract.operations[0].param == 400   # slipped through
    with pytest.raises(ProtocolAbort):
        run_operation(system, OpType.TRANSFER, system.recipient, 5,
                      tampered_addr="acct:adversary")


def test_full_display_shows_everything():
    hw = HardwareWallet(signing.keygen(bytes([1]) * 32))
    assert hw.shown("x" * 500) == "x" * 500
    hw.display_limit = 24
    assert hw.shown("x" * 500) == "x" * 24


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
    builds.clear()
    World.load(state_dir)
    assert len(builds) == 1


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
    assert split.depth_checks == whole.depth_checks


def test_otp_is_requested_only_at_confirmation_depth(monkeypatch):
    system = run_bootstrap("secure", seed=13)
    depth = system.client.confirmation_depth
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
