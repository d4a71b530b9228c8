"""CLI surface: happy path, persistence, exit codes, golden stability."""

import json
from pathlib import Path

import pytest

from otpwallet.cli import World, main, parse_grid, parse_params

SEED_HEX = "000102030405060708090a0b0c0d0e0f"


@pytest.fixture
def state(tmp_path):
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(SEED_HEX + "\n")
    return tmp_path / "wallet", seed_file


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_happy_path_transfer(state, capsys):
    state_dir, seed_file = state
    code, out, _ = run(capsys, "--state-dir", state_dir, "bootstrap",
                       "--mode", "secure", "--params", "128,16,2,8,1",
                       "--seed-file", seed_file)
    assert code == 0
    assert "contractId:" in out and "seed backup:" in out

    code, out, _ = run(capsys, "--state-dir", state_dir, "op", "init",
                       "--type", "transfer", "--addr", "acct:bob",
                       "--param", "5")
    assert code == 0 and "opID: 0" in out

    code, out, _ = run(capsys, "--state-dir", state_dir, "otp", "show",
                       "--op-id", "0")
    assert code == 0
    otp_words = out.splitlines()[1].split(":", 1)[1].strip()

    code, out, _ = run(capsys, "--state-dir", state_dir, "op", "confirm",
                       "--op-id", "0", "--otp", otp_words)
    assert code == 0
    assert "wallet balance: 495" in out


def test_bootstrap_writes_client_store(state, capsys):
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    leaves = (state_dir / "client.leaves").read_text()
    assert leaves.startswith("smartotps-leaves v1")
    sidecar = json.loads((state_dir / "client.json").read_text())
    assert sidecar["confirmationDepth"] == 12
    world = json.loads((state_dir / "world.json").read_text())
    assert world["seed_hex"] == SEED_HEX


def test_bootstrap_refuses_to_overwrite(state, capsys):
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    code, _, err = run(capsys, "--state-dir", state_dir, "bootstrap",
                       "--seed-file", seed_file)
    assert code == 1 and "error: state:" in err


def test_missing_state_is_a_categorized_error(tmp_path, capsys):
    code, _, err = run(capsys, "--state-dir", tmp_path / "nope", "op", "init",
                       "--type", "transfer", "--addr", "a", "--param", "1")
    assert code == 1
    assert err.startswith("error: state:")


def test_protocol_failure_exit_code(state, capsys):
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    run(capsys, "--state-dir", state_dir, "op", "init", "--type", "transfer",
        "--addr", "acct:bob", "--param", "5")
    bogus = "00" * 16
    code, _, err = run(capsys, "--state-dir", state_dir, "op", "confirm",
                       "--op-id", "0", "--otp", bogus)
    assert code == 1
    assert err.startswith("error: protocol:")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["op"])
    assert exc.value.code == 2


def test_full_lifecycle_via_cli(state, capsys):
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)

    def confirm_op(expected_id):
        code, out, _ = run(capsys, "--state-dir", state_dir, "op", "init",
                           "--type", "transfer", "--addr", "acct:bob",
                           "--param", "1")
        assert code == 0 and f"opID: {expected_id}" in out
        code, out, _ = run(capsys, "--state-dir", state_dir, "otp", "show",
                           "--op-id", expected_id)
        otp_hex = out.splitlines()[0].split(":", 1)[1].strip()
        code, _, _ = run(capsys, "--state-dir", state_dir, "op", "confirm",
                         "--op-id", expected_id, "--otp", otp_hex)
        assert code == 0

    for i in range(7):
        confirm_op(i)
    code, out, _ = run(capsys, "--state-dir", state_dir, "subtree", "next")
    assert code == 0 and "current subtree: 1" in out
    for i in range(8, 15):
        confirm_op(i)
    code, out, _ = run(capsys, "--state-dir", state_dir, "root", "rotate",
                       "--mode", "secure")
    assert code == 0 and "generation: 1" in out
    confirm_op(16)


def test_attack_run_exits_zero(state, capsys):
    code, out, _ = run(capsys, "attack", "run", "theorem1")
    assert code == 0
    assert "scenario theorem1: PASS" in out


def test_security_calc_prints_the_sizing(capsys):
    code, out, _ = run(capsys, "security", "calc", "--lambda", "128",
                       "--leaves", "64")
    assert code == 0
    assert "S       = 136" in out and "13 mnemonic words" in out


def test_cost_sweep_emits_csv(capsys):
    code, out, _ = run(capsys, "cost", "sweep", "--grid", "H=7..8,P=1,L=0..2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H,HS,P,L,N,deploy,init_mean,confirm_mean,ot_cost"
    assert len(lines) == 1 + 6


def test_mnemonic_commands_round_trip(capsys):
    code, out, _ = run(capsys, "mnemonic", "encode", SEED_HEX)
    assert code == 0
    words = out.split()
    code, out, _ = run(capsys, "mnemonic", "decode", *words)
    assert code == 0 and out.strip() == SEED_HEX


def test_output_is_byte_stable_for_fixed_seed(tmp_path, capsys):
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(SEED_HEX + "\n")

    def transcript(dirname):
        chunks = []
        for argv in (
            ["--state-dir", tmp_path / dirname, "bootstrap",
             "--seed-file", seed_file],
            ["--state-dir", tmp_path / dirname, "op", "init", "--type",
             "transfer", "--addr", "acct:bob", "--param", "3"],
            ["--state-dir", tmp_path / dirname, "otp", "show", "--op-id", "0"],
            ["--state-dir", tmp_path / dirname, "root", "show"],
            ["security", "calc", "--lambda", "128", "--leaves", "64"],
            ["cost", "sweep", "--grid", "H=7,P=1,L=all"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            chunks.append(out)
        return "".join(chunks)

    assert transcript("w1") == transcript("w2")


def test_seed_env_var_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OTPWALLET_SEED", SEED_HEX)
    code, out1, _ = run(capsys, "--state-dir", tmp_path / "a", "bootstrap")
    code, out2, _ = run(capsys, "--state-dir", tmp_path / "b", "bootstrap")
    assert out1 == out2                          # fully seeded, reproducible
    assert "seed backup:" in out1


def test_param_and_grid_parsing():
    params = parse_params("128,16,2,8,1")
    assert (params.S, params.N, params.P, params.N_S, params.L_S) == \
        (128, 16, 2, 8, 1)
    from otpwallet.cli import CliError
    with pytest.raises(CliError):
        parse_params("x,y")
    assert parse_grid("H=7..9,P=1+2,L=all") == ([7, 8, 9], [1, 2], None)
    assert parse_grid("H=7,P=1,L=0..2") == ([7], [1], [0, 1, 2])


def _otp_hex(capsys, state_dir, op_id):
    _, out, _ = run(capsys, "--state-dir", state_dir, "otp", "show",
                    "--op-id", op_id)
    return out.splitlines()[0].split(":", 1)[1].strip()


def test_confirm_mines_only_the_missing_depth(state, capsys):
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    for op_id in (0, 1):
        code, out, _ = run(capsys, "--state-dir", state_dir, "op", "init",
                           "--type", "transfer", "--addr", "acct:bob",
                           "--param", "1")
        assert code == 0 and f"opID: {op_id}" in out
    heights = []
    for op_id in (0, 1):
        code, _, _ = run(capsys, "--state-dir", state_dir, "op", "confirm",
                         "--op-id", op_id, "--otp",
                         _otp_hex(capsys, state_dir, op_id))
        assert code == 0
        heights.append(World.load(state_dir).system.ledger.head.height)
    # Op 1's init sits under op 0's wait and confirm: 12 deep already.
    assert heights[1] - heights[0] == 1


def test_confirm_of_an_uninitialised_operation_leaves_the_world(state, capsys):
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    run(capsys, "--state-dir", state_dir, "op", "init", "--type", "transfer",
        "--addr", "acct:bob", "--param", "5")
    before = (state_dir / "world.json").read_bytes()
    code, _, err = run(capsys, "--state-dir", state_dir, "op", "confirm",
                       "--op-id", "3", "--otp", "00" * 16)
    assert code == 1 and err.startswith("error: protocol:")
    assert "not-initialised" in err          # refused before mining anything
    assert (state_dir / "world.json").read_bytes() == before


def test_a_save_that_fails_partway_keeps_the_previous_world(state, capsys,
                                                             monkeypatch):
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    before = (state_dir / "world.json").read_bytes()
    real = Path.write_text

    def torn(path, text, *args, **kwargs):
        if path.name.startswith("world.json"):
            real(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")
        return real(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", torn)
    world = World.load(state_dir)
    with pytest.raises(OSError):
        world.commit({"cmd": "init", "type": "transfer", "addr": "acct:bob",
                      "param": 5})
    monkeypatch.undo()
    assert (state_dir / "world.json").read_bytes() == before
    assert World.load(state_dir).data["actions"] == []
