"""CLI surface: happy path, persistence, exit codes, golden stability."""

import argparse
import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from otpwallet import cli, contract as contract_mod, ledger as ledger_mod
from otpwallet.cli import (
    World,
    main,
    parse_args,
    parse_grid,
    parse_params,
)

from otpwallet.client import CONFIRMATION_DEPTH
from otpwallet.protocols import bootstrap_system

from harness import (block_hashes, depths_waited, reference_entries,
                     reference_state_hash)

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


STATE_FILES = ["actions.jsonl", "world.json"]
# The keys of `world.json`'s head, and of the checkpoint it holds, as a save
# writes them.
HEAD_KEYS = ["actions", "checkpoint", "log_bytes", "state_hash"]
CHECKPOINT_HEAD_KEYS = ["accounts", "binding", "confirmed_transfers",
                        "contracts", "digest", "height", "index",
                        "initialised", "nonces", "seq", "timestamp"]


def _files(state_dir) -> list[str]:
    return sorted(p.name for p in state_dir.iterdir())


def _line(action) -> bytes:
    text = json.dumps(action, separators=(",", ":"), sort_keys=True)
    return text.encode() + b"\n"


def _actions(state_dir) -> list:
    return [json.loads(line) for line in
            (state_dir / "actions.jsonl").read_bytes().splitlines()]


def _rewrite_log(state_dir, actions) -> None:
    """Write `actions` as the log and commit its length and count in the
    head, as a consistent edit of the world would."""
    log = b"".join(map(_line, actions))
    (state_dir / "actions.jsonl").write_bytes(log)
    world_file = state_dir / "world.json"
    data = json.loads(world_file.read_text())
    data["head"].update(actions=len(actions), log_bytes=len(log))
    world_file.write_text(json.dumps(data))


def test_bootstrap_writes_the_world_and_its_checkpoint(state, capsys):
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    assert _files(state_dir) == STATE_FILES
    world = json.loads((state_dir / "world.json").read_text())
    assert world["seed_hex"] == SEED_HEX and "actions" not in world
    assert sorted(world["head"]) == HEAD_KEYS
    assert sorted(world["head"]["checkpoint"]) == CHECKPOINT_HEAD_KEYS
    assert (state_dir / "actions.jsonl").read_bytes() == b""
    assert (world["head"]["actions"], world["head"]["log_bytes"]) == (0, 0)


@pytest.mark.parametrize("source, text", [
    ("file", ""), ("file", " \n\t\n"), ("file", None), ("env", " "),
    ("file", "xyz"), ("file", "00ff"), ("file", SEED_HEX + " zz"),
    ("file", SEED_HEX + " 00ff"), ("file", f"{SEED_HEX} {'00' * 32} 00"),
], ids=["empty-file", "blank-file", "missing-file", "blank-env",
        "non-hex-seed", "short-seed", "non-hex-key-seed", "short-key-seed",
        "three-words"])
def test_a_bad_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, source,
                                     text):
    state_dir = tmp_path / "wallet"
    argv = ["--state-dir", state_dir, "bootstrap"]
    if source == "env":
        monkeypatch.setenv("OTPWALLET_SEED", text)
    else:
        seed_file = tmp_path / "seed.txt"
        if text is not None:
            seed_file.write_text(text)
        argv += ["--seed-file", seed_file]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: usage:") and err.count("\n") == 1
    assert not state_dir.exists()


def test_a_negative_funding_is_a_usage_error(state, capsys):
    state_dir, seed_file = state
    code, out, err = run(capsys, "--state-dir", state_dir, "bootstrap",
                         "--funding", "-5", "--seed-file", seed_file)
    assert code == 2 and out == ""
    assert err.startswith("error: usage:") and err.count("\n") == 1
    assert not state_dir.exists()


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
    assert _files(state_dir) == STATE_FILES


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


def test_mnemonic_encode_takes_one_value(capsys):
    """`encode` of two values is a usage error, where it printed the first
    value's words alone; `decode` takes many words."""
    code, out, err = run(capsys, "mnemonic", "encode",
                         "00112233445566778899aabbccddeeff", "ffff")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: usage:") and "Traceback" not in err


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


def test_param_and_grid_parsing(capsys):
    params = parse_params("128,16,2,8,1")
    assert (params.S, params.N, params.P, params.N_S, params.L_S) == \
        (128, 16, 2, 8, 1)
    from otpwallet.cli import CliError
    with pytest.raises(CliError):
        parse_params("x,y")
    assert parse_grid("H=7..9,P=1+2,L=all") == ([7, 8, 9], [1, 2], None)
    assert parse_grid("H=7,P=1,L=0..2") == ([7], [1], [0, 1, 2])
    assert parse_grid("H=0") == ([0], [1], None)
    # An unknown key, a value that is not an integer, an axis that expands
    # to no values, and a value below the axis' least (H and L 0, P 1).
    for grid in ("Q=1", "H=x", "P=1+y", "H=3..", "H=3..1", "P=1..0", "L=2..1",
                 "H=-1", "P=0", "P=-2", "P=1+0", "L=-1", "L=-1..2"):
        with pytest.raises(CliError) as info:
            parse_grid(grid)
        assert info.value.category == "usage"
        code, out, err = run(capsys, "cost", "sweep", "--grid", grid)
        assert code == 2 and out == "" and err.startswith("error: usage:")


def test_otp_show_refuses_operations_outside_the_generation(state, capsys):
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--params",
        "128,4,1,2,1", "--seed-file", seed_file)

    def shows(op_id) -> bool:
        code, out, err = run(capsys, "--state-dir", state_dir, "otp", "show",
                             "--op-id", op_id)
        assert code in (0, 1) and (code == 0) == (err == "") == (out != "")
        assert code == 0 or (err.startswith("error: domain:")
                             and f"operation {op_id} " in err)
        return code == 0

    # At generation 0, -1 would show slot N-1 (the rotation's OTP) and 4 op 0.
    assert [shows(op_id) for op_id in (-1, 0, 3, 4)] == [False, True, True,
                                                          False]
    first = _otp_hex(capsys, state_dir, 0)
    for op_id in (0, 2):
        run(capsys, "--state-dir", state_dir, "op", "init", "--type",
            "transfer", "--addr", "acct:bob", "--param", 1)
        code, _, _ = run(capsys, "--state-dir", state_dir, "op", "confirm",
                         "--op-id", op_id, "--otp",
                         _otp_hex(capsys, state_dir, op_id))
        assert code == 0
        code, _, _ = run(capsys, "--state-dir", state_dir,
                         *(["subtree", "next"] if op_id == 0 else
                           ["root", "rotate"]))
        assert code == 0
    assert [shows(op_id) for op_id in (3, 4, 7, 8)] == [False, True, True,
                                                         False]
    assert _otp_hex(capsys, state_dir, 4) != first


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
    run(capsys, "--state-dir", state_dir, "op", "init", "--type", "transfer",
        "--addr", "acct:bob", "--param", "5")
    log = (state_dir / "actions.jsonl").read_bytes()
    previous = World.load(state_dir).system.ledger.state_hash()
    real_write, real_append = Path.write_text, cli._append

    # A tear at each file, in the order a save writes them, on a restored
    # world and on a replayed one, whose checkpoint is null.
    for name, restored in [(name, restored) for restored in (True, False)
                           for name in ("actions.jsonl", "world.json.tmp")]:
        def torn_append(path, committed, lines, name=name):
            if path.name != name:
                return real_append(path, committed, lines)
            real_append(path, committed, lines[: len(lines) // 2])
            raise OSError("disk full")

        def torn(path, text, *args, name=name, **kwargs):
            if path.name == name:
                real_write(path, text[: len(text) // 2], *args, **kwargs)
                raise OSError("disk full")
            return real_write(path, text, *args, **kwargs)

        if not restored:
            _drop_checkpoint(state_dir)
        replays = _count_replays(monkeypatch)
        world = World.load(state_dir)
        assert replays == ([] if restored else [1]), (name, restored)
        # A replay saved a fresh head before the tear.
        before = (state_dir / "world.json").read_bytes()
        if name.endswith(".jsonl"):
            monkeypatch.setattr(cli, "_append", torn_append)
        else:
            monkeypatch.setattr(Path, "write_text", torn)
        with pytest.raises(OSError):
            world.commit({"cmd": "init", "type": "transfer",
                          "addr": "acct:bob", "param": 5})
        monkeypatch.undo()
        assert (state_dir / "world.json").read_bytes() == before, name
        assert (state_dir / "actions.jsonl").read_bytes()[: len(log)] == log
        # The old head binds, as the log holds its committed bytes, so the
        # next loads restore, after a replay's load too, which saved it.
        replays = _count_replays(monkeypatch)
        loaded = World.load(state_dir)
        assert loaded.log_actions == 1
        assert loaded.system.ledger.state_hash() == previous
        World.load(state_dir)
        monkeypatch.undo()
        assert replays == [], (name, restored)


def test_a_torn_append_is_ignored_then_cut(state, capsys):
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    run(capsys, "--state-dir", state_dir, "op", "init", "--type", "transfer",
        "--addr", "acct:bob", "--param", "5")
    shown = run(capsys, "--state-dir", state_dir, "root", "show")
    log = state_dir / "actions.jsonl"
    with open(log, "ab") as f:
        f.write(b'{"cmd":')
    assert run(capsys, "--state-dir", state_dir, "root", "show") == shown
    assert shown[0] == 0
    code, _, _ = run(capsys, "--state-dir", state_dir, "op", "init", "--type",
                     "transfer", "--addr", "acct:bob", "--param", "5")
    head = json.loads((state_dir / "world.json").read_text())["head"]
    assert code == 0 and (head["actions"], head["log_bytes"]) == (
        2, len(log.read_bytes()))
    assert len(_actions(state_dir)) == 2


@pytest.mark.parametrize("damage", ["one-byte-short", "deleted"])
def test_a_log_shorter_than_its_commit_is_a_state_error(history, capsys,
                                                         damage):
    state_dir = history
    log = state_dir / "actions.jsonl"
    if damage == "deleted":
        log.unlink()
    else:
        log.write_bytes(log.read_bytes()[:-1])
    before = {p.name: p.read_bytes() for p in state_dir.iterdir()}
    code, out, err = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: state:") and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == before


def test_actions_appended_to_a_created_world_save_and_restore(tmp_path,
                                                              monkeypatch):
    """As the benchmark writes a deep world: actions applied and appended
    to `data["actions"]`, then saved once."""
    state_dir = tmp_path / "wallet"
    world = World.create(state_dir, "secure", parse_params("128,16,2,8,1"),
                         bytes.fromhex(SEED_HEX), bytes(range(32)), 1000)
    world.system = world.build_system()
    bootstrap_system(world.system, "secure", 1000)
    for _ in range(2):
        action = {"cmd": "init", "type": "transfer", "addr": "acct:bob",
                  "param": 1}
        world.apply(action)
        world.data["actions"].append(action)
    otp = world.system.authenticator.get_otp(0).hex()
    action = {"cmd": "confirm", "op_id": 0, "otp": otp}
    world.apply(action)
    world.data["actions"].append(action)
    appended = list(world.data["actions"])
    world.save()
    # The save appended every action to the log and emptied the list.
    assert _actions(state_dir) == appended and world.data["actions"] == []
    assert world.log_actions == 3
    replays = _count_replays(monkeypatch)
    restored = World.load(state_dir)
    assert replays == []
    # A restore parses no logged action.
    assert restored.data["actions"] == [] and restored.log_actions == 3
    assert ({**restored.data, "actions": None}
            == {**world.data, "actions": None})
    assert (restored.system.ledger.state_hash()
            == world.system.ledger.state_hash())


@pytest.fixture
def history(state, capsys):
    """A world with a confirmed transfer and a pending one."""
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    for op_id in (0, 1):
        run(capsys, "--state-dir", state_dir, "op", "init", "--type",
            "transfer", "--addr", "acct:bob", "--param", "5")
    run(capsys, "--state-dir", state_dir, "op", "confirm", "--op-id", 0,
        "--otp", _otp_hex(capsys, state_dir, 0))
    return state_dir


def _count(monkeypatch, obj, name) -> list:
    calls = []
    real = getattr(obj, name)
    monkeypatch.setattr(obj, name,
                        lambda *a, **k: (calls.append(1), real(*a, **k))[1])
    return calls


def _count_replays(monkeypatch) -> list:
    return _count(monkeypatch, World, "replay")


def test_a_command_encodes_only_the_actions_it_appends(history, monkeypatch,
                                                       capsys):
    """A read encodes no log line and a write one per action it adds; every
    load hashes the log's bytes once, and no command hashes or encodes the
    whole log again."""
    state_dir = history
    otp = _otp_hex(capsys, state_dir, 1)
    encoded = _count(monkeypatch, cli, "_log_line")
    hashed, dumped = [], []
    real_sha256, real_dumps = hashlib.sha256, json.dumps
    monkeypatch.setattr(hashlib, "sha256", lambda data=b"", **kwargs: (
        hashed.append(data), real_sha256(data, **kwargs))[1])
    monkeypatch.setattr(json, "dumps", lambda obj, **kwargs: (
        dumped.append(obj), real_dumps(obj, **kwargs))[1])
    for argv, lines in (
            (["root", "show"], 0), (["otp", "show", "--op-id", 1], 0),
            (["op", "init", "--type", "transfer", "--addr", "acct:bob",
              "--param", 5], 1),
            (["op", "confirm", "--op-id", 1, "--otp", otp], 1)):
        log = (state_dir / "actions.jsonl").read_bytes()
        logged = _actions(state_dir)
        for calls in (encoded, hashed, dumped):
            calls.clear()
        code, _, _ = run(capsys, "--state-dir", state_dir, *argv)
        assert code == 0 and len(encoded) == lines, argv
        assert hashed.count(log) == 1, argv
        grown = (state_dir / "actions.jsonl").read_bytes()
        assert len(grown) > len(log) if lines else grown == log
        assert grown == log or grown not in hashed
        assert logged not in dumped and _actions(state_dir) not in dumped


def test_an_intact_head_loads_without_replay(history, monkeypatch):
    state_dir = history
    replays = _count_replays(monkeypatch)
    world = World.load(state_dir)
    assert replays == []
    recorded = json.loads((state_dir / "world.json").read_text())["head"]
    assert world.system.ledger.state_hash() == recorded["state_hash"]
    assert recorded["actions"] == 3


def _checkpoint(state_dir) -> dict:
    """The checkpoint that `world.json`'s head holds."""
    return json.loads((state_dir / "world.json").read_text())["head"][
        "checkpoint"]


def _rebind_doc(state_dir, edit) -> None:
    """Rewrite `world.json` with its checkpoint as `edit` leaves it."""
    world_file = state_dir / "world.json"
    data = json.loads(world_file.read_text())
    edit(data["head"]["checkpoint"])
    world_file.write_text(json.dumps(data))


def _drop_checkpoint(state_dir) -> None:
    """Set the checkpoint of `world.json`'s head to null, so that the next
    load replays."""
    world_file = state_dir / "world.json"
    data = json.loads(world_file.read_text())
    data["head"]["checkpoint"] = None
    world_file.write_text(json.dumps(data))


def _flip_digest(state_dir) -> None:
    """Edit one byte of the head digest in the checkpoint of `world.json`,
    which still parses."""
    world_file = state_dir / "world.json"
    data = bytearray(world_file.read_bytes())
    data[data.index(b'"digest":"') + len(b'"digest":"')] ^= 1
    world_file.write_bytes(bytes(data))


@pytest.mark.parametrize("damage", ["one-byte-edit", "deleted",
                                    "rebound-non-text-line",
                                    "rebound-unrecorded-operation",
                                    "rebound-params-without-LEN_MAX",
                                    "log-digest-layout"])
def test_a_checkpoint_that_does_not_bind_loads_by_replay(history, monkeypatch,
                                                         damage):
    """A head checkpoint that is not one a save writes, or none: a null
    checkpoint. `log-digest-layout` is the layout that saves wrote before
    the binding."""
    state_dir = history
    world_file = state_dir / "world.json"
    recorded = json.loads(world_file.read_text())["head"]["state_hash"]
    if damage == "one-byte-edit":
        _flip_digest(state_dir)
    elif damage == "rebound-non-text-line":
        _rebind_doc(state_dir, lambda doc: doc["contracts"][0].append(5))
    elif damage == "rebound-unrecorded-operation":
        # The contract holds no record of an operation 7.
        _rebind_doc(state_dir, lambda doc: doc["initialised"].append(
            [7, "00" * 8]))
    elif damage == "rebound-params-without-LEN_MAX":
        # A contract stored as older saves stored it, with its params.
        params = json.loads(world_file.read_text())["params"]
        del params["LEN_MAX"]
        _rebind_doc(state_dir, lambda doc: doc["contracts"].append(
            {"params": params, "lines": doc["contracts"].pop()}))
    elif damage == "log-digest-layout":
        # Each contract with its params, and the log's digest alone.
        data = json.loads(world_file.read_text())
        log = (state_dir / "actions.jsonl").read_bytes()

        def older(doc):
            del doc["binding"], doc["seq"]
            doc.update(log_digest=hashlib.sha256(log).hexdigest(), contracts=[
                {"params": data["params"], "lines": lines}
                for lines in doc["contracts"]])
        _rebind_doc(state_dir, older)
    else:
        _drop_checkpoint(state_dir)
    replays = _count_replays(monkeypatch)
    world = World.load(state_dir)
    assert replays == [1]
    assert world.system.ledger.state_hash() == recorded
    assert sorted(world.system.initialised) == [0, 1]
    # The replay saved the current layout, which the next load restores.
    assert sorted(_checkpoint(state_dir)) == CHECKPOINT_HEAD_KEYS
    World.load(state_dir)
    assert replays == [1]


def _swap_init_txids(doc) -> None:
    (a, ta), (b, tb) = doc["initialised"]
    doc["initialised"] = [[a, tb], [b, ta]]


# A checkpoint field that the state hash does not cover -> an edit of it.
# Unbound, each would let a confirm go out early, because op 1's init looks
# deeper than it is or is taken for op 0's, or would mine a block that
# replays to another state.
UNHASHED_EDITS = {
    "height": lambda doc: doc.update(height=doc["height"] + 1000),
    "timestamp": lambda doc: doc.update(timestamp=doc["timestamp"] + 1000),
    "seq": lambda doc: doc.update(seq=doc["seq"] + 1),
    "index": lambda doc: doc["index"].update(
        {doc["initialised"][1][1]: -100}),
    "initialised": _swap_init_txids,
}


@pytest.mark.parametrize("field", sorted(UNHASHED_EDITS))
def test_a_checkpoint_field_outside_the_state_hash_is_bound(
        state, monkeypatch, capsys, field):
    """The checkpoint's binding covers what its state hash does not, so a
    one-field edit loads by exactly one replay, which shows the intact
    world; each confirm after it still waits until its init is
    `CONFIRMATION_DEPTH` blocks deep."""
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    for _ in range(2):
        run(capsys, "--state-dir", state_dir, "op", "init", "--type",
            "transfer", "--addr", "acct:bob", "--param", "5")
    shows = [["root", "show"], ["otp", "show", "--op-id", 0],
             ["otp", "show", "--op-id", 1]]
    intact = [run(capsys, "--state-dir", state_dir, *argv) for argv in shows]
    recorded = json.loads((state_dir / "world.json").read_text())["head"][
        "state_hash"]
    _rebind_doc(state_dir, UNHASHED_EDITS[field])
    replays = _count_replays(monkeypatch)
    assert World.load(state_dir).system.ledger.state_hash() == recorded
    assert replays == [1]
    assert [run(capsys, "--state-dir", state_dir, *argv)
            for argv in shows] == intact
    for op_id in (1, 0):
        code, _, err = run(capsys, "--state-dir", state_dir, "op", "confirm",
                           "--op-id", op_id, "--otp",
                           _otp_hex(capsys, state_dir, op_id))
        assert code == 0 and err == ""
    assert replays == [1]
    waited = depths_waited(World.load(state_dir).system.ledger)
    assert sorted(waited) == ["0", "1"]
    assert min(waited.values()) >= CONFIRMATION_DEPTH, waited


def test_an_init_txid_outside_the_chain_loads_by_replay(state, monkeypatch,
                                                       capsys):
    """An `initialised` row binds only when the restored txid index holds
    its init txid: a row re-bound to a made-up txid loads by one replay,
    after which the pending operation confirms."""
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    run(capsys, "--state-dir", state_dir, "op", "init", "--type", "transfer",
        "--addr", "acct:bob", "--param", "5")
    otp = _otp_hex(capsys, state_dir, 0)
    _rebind_doc(state_dir, lambda doc: doc.update(
        initialised=[[0, "0000000000000000"]]))
    replays = _count_replays(monkeypatch)
    code, out, err = run(capsys, "--state-dir", state_dir, "op", "confirm",
                         "--op-id", 0, "--otp", otp)
    assert code == 0 and err == "" and replays == [1]
    assert "confirmed opID 0" in out


def _rebound(state_dir, edit) -> None:
    """Rewrite `world.json` with its checkpoint as `edit` leaves it, and its
    binding recomputed, as a consistent edit of the checkpoint would."""
    log = (state_dir / "actions.jsonl").read_bytes()

    def rebound(doc):
        edit(doc)
        doc["binding"] = cli._binding(hashlib.sha256(log), doc)
    _rebind_doc(state_dir, rebound)


def _as_strings(values: dict) -> None:
    values.update((key, str(value)) for key, value in values.items())


# A number in the checkpoint -> an edit that stores it (every value of a
# map) as a JSON string, which the state lines render as the number.
STRING_EDITS = {
    "balance": lambda doc: _as_strings(doc["accounts"]),
    "nonce": lambda doc: _as_strings(doc["nonces"]),
    "height": lambda doc: doc.update(height=str(doc["height"])),
    "timestamp": lambda doc: doc.update(timestamp=str(doc["timestamp"])),
    "seq": lambda doc: doc.update(seq=str(doc["seq"])),
    "index": lambda doc: _as_strings(doc["index"]),
}


@pytest.mark.parametrize("field", sorted(STRING_EDITS))
def test_a_checkpoint_number_stored_as_a_string_loads_by_replay(
        history, monkeypatch, capsys, field):
    """A balance, nonce, height, timestamp, counter or index height stored
    as a string, with the binding recomputed: the state hash and the
    binding do not tell it from the number, so only the restore's type
    check refuses it. `root show` replays once and shows the intact world,
    the next write commits, and the load after it restores."""
    state_dir = history
    intact = run(capsys, "--state-dir", state_dir, "root", "show")
    before = _checkpoint(state_dir)
    _rebound(state_dir, STRING_EDITS[field])
    assert _checkpoint(state_dir) != before
    replays = _count_replays(monkeypatch)
    assert run(capsys, "--state-dir", state_dir, "root", "show") == intact
    assert intact[0] == 0 and replays == [1]
    code, out, err = run(capsys, "--state-dir", state_dir, "op", "init",
                         "--type", "transfer", "--addr", "acct:bob",
                         "--param", "5")
    assert code == 0 and err == "" and out == "opID: 2\n"
    World.load(state_dir)
    assert replays == [1]


def _sealed_world(state_dir) -> World:
    """A world at `128,16,1,4,1` past three subtree introductions and a
    rotation, with a transfer pending in each subtree and one in the open
    subtree of the next generation, saved once."""
    world = World.create(state_dir, "secure", parse_params("128,16,1,4,1"),
                         bytes.fromhex(SEED_HEX), bytes(range(32)), 1000)
    world.system = world.build_system()
    bootstrap_system(world.system, "secure", 1000)
    init = {"cmd": "init", "type": "transfer", "addr": "acct:bob", "param": 1}
    for slot in range(17):
        action = ({"cmd": "rotate", "mode": "secure"} if slot == 15 else
                  {"cmd": "subtree"} if slot % 4 == 3 else init)
        world.apply(action)
        world.data["actions"].append(action)
        if slot == 4:
            otp = world.system.authenticator.get_otp(4).hex()
            action = {"cmd": "confirm", "op_id": 4, "otp": otp}
            world.apply(action)
            world.data["actions"].append(action)
    world.save()
    return world


def test_a_restore_parses_only_the_open_subtree(tmp_path, monkeypatch,
                                                capsys):
    """Each load of a command builds at most `N_S` operation records: the
    sealed subtrees' lines stay text, and the restored world still reads
    every record and hashes to the recorded state."""
    state_dir = tmp_path / "wallet"
    saved = _sealed_world(state_dir).system
    assert saved.contract.current_subtree == 4
    assert sorted(saved.initialised) == [16]
    replays, built, per_load = _count_replays(monkeypatch), [], []
    real_record, real_load = contract_mod.OperationRecord, World.load.__func__
    monkeypatch.setattr(contract_mod, "OperationRecord", lambda *args: (
        built.append(1), real_record(*args))[1])

    def load(cls, *args, **kwargs):
        start = len(built)
        world = real_load(cls, *args, **kwargs)
        per_load.append(len(built) - start)
        return world

    monkeypatch.setattr(World, "load", classmethod(load))
    for argv in (["root", "show"],
                 ["op", "init", "--type", "transfer", "--addr", "acct:bob",
                  "--param", 1]):
        code, _, err = run(capsys, "--state-dir", state_dir, *argv)
        assert code == 0 and err == "", argv
    assert replays == [] and len(per_load) == 2
    assert all(count <= 4 for count in per_load), per_load
    monkeypatch.undo()
    restored = World.load(state_dir).system
    assert sorted(restored.initialised) == [16, 17]
    assert dict(restored.contract.operations) == {
        **saved.contract.operations,
        17: contract_mod.OperationRecord("acct:bob", 1, True,
                                         contract_mod.OpType.TRANSFER)}


def test_a_sealed_row_loads_by_replay(tmp_path, monkeypatch, capsys):
    """An `initialised` row of a sealed subtree, as older saves kept, does
    not bind: the world loads by one replay to the recorded state and saves
    the current layout, so the next command restores."""
    state_dir = tmp_path / "wallet"
    saved = _sealed_world(state_dir).system
    recorded = saved.ledger.state_hash()
    # Operation 16's init txid, which the restored txid index holds.
    ((txid, *_),) = saved.initialised.values()
    _rebind_doc(state_dir, lambda doc: doc["initialised"].insert(
        0, [0, txid]))
    replays = _count_replays(monkeypatch)
    assert World.load(state_dir).system.ledger.state_hash() == recorded
    assert replays == [1]
    assert _checkpoint(state_dir)["initialised"] == [[16, txid]]
    code, _, err = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 0 and err == "" and replays == [1]


def test_a_checkpoint_with_two_header_lines_swapped_loads_by_replay(
        history, monkeypatch, capsys):
    """A restore renders the contract's header again, so two header lines
    swapped in the checkpoint leave its state hash as recorded; but the
    header is exactly the layout's lines, so the world loads by one replay
    to the recorded state, which saves the lines as written, and the next
    command restores."""
    state_dir = history
    recorded = json.loads((state_dir / "world.json").read_text())["head"][
        "state_hash"]
    written = _checkpoint(state_dir)["contracts"][0]

    def swap(doc):
        lines = doc["contracts"][0]
        lines[6], lines[7] = lines[7], lines[6]
    _rebind_doc(state_dir, swap)
    swapped = _checkpoint(state_dir)["contracts"][0]
    assert swapped != written and sorted(swapped) == sorted(written)
    replays = _count_replays(monkeypatch)
    assert World.load(state_dir).system.ledger.state_hash() == recorded
    assert replays == [1]
    assert _checkpoint(state_dir)["contracts"][0] == written
    code, _, err = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 0 and err == "" and replays == [1]


def test_a_restore_reads_each_position_off_the_contract(history, monkeypatch,
                                                        capsys):
    """The generation and the client's subtree come from the restored
    contract, which the state hash covers, so head keys that claim others
    change nothing."""
    state_dir = history
    _rebind_doc(state_dir, lambda doc: doc.update(
        eta=1, current_subtree=1))
    replays = _count_replays(monkeypatch)
    code, out, _ = run(capsys, "--state-dir", state_dir, "root", "show")
    roots = [line.split(":", 1)[1].strip() for line in out.splitlines()]
    assert code == 0 and len(roots) == 2 and roots[0] == roots[1]
    code, out, err = run(capsys, "--state-dir", state_dir, "otp", "show",
                         "--op-id", 0)
    assert code == 0 and err == "" and replays == []
    world = World.load(state_dir)
    assert (world.system.authenticator.eta, world.system.client.eta,
            world.system.client.current_subtree) == (0, 0, 0)


def test_a_checkpoint_in_the_older_layout_loads_to_the_recorded_state(
        history, monkeypatch, capsys):
    """A checkpoint that also stores the generation, the client's subtree
    and the contract id, with each initialised operation's type, address
    and parameter in its row. Those rows do not bind, so the world loads by
    one replay, which saves the new layout."""
    state_dir = history
    system = World.load(state_dir).system
    recorded = system.ledger.state_hash()
    doc = _checkpoint(state_dir)
    assert sorted(doc) == CHECKPOINT_HEAD_KEYS
    assert doc["initialised"] == [
        [op_id, txid] for op_id, (txid, *_) in system.initialised.items()]
    _rebind_doc(state_dir, lambda doc: doc.update(
        eta=0, current_subtree=0,
        contract_id=system.contract_id,
        initialised=[[op_id, txid, op_type.value, addr, param]
                     for op_id, (txid, op_type, addr, param)
                     in system.initialised.items()]))

    replays = _count_replays(monkeypatch)
    code, _, _ = run(capsys, "--state-dir", state_dir, "root", "show")
    loaded = World.load(state_dir)
    assert code == 0 and replays == [1]
    assert loaded.system.ledger.state_hash() == recorded
    assert loaded.system.initialised == system.initialised
    assert loaded.system.confirmed_transfers == system.confirmed_transfers
    assert depths_waited(loaded.system.ledger) == depths_waited(system.ledger)
    assert sorted(_checkpoint(state_dir)) == CHECKPOINT_HEAD_KEYS


@pytest.mark.parametrize("damage", ["deleted", "one-byte-edit"])
def test_a_replayed_load_writes_a_fresh_head(history, monkeypatch, capsys,
                                             damage):
    state_dir = history
    world_file = state_dir / "world.json"
    if damage == "deleted":
        _drop_checkpoint(state_dir)
    else:
        _flip_digest(state_dir)
    replays = _count_replays(monkeypatch)
    shown = [run(capsys, "--state-dir", state_dir, "root", "show")
             for _ in range(3)]
    assert replays == [1]
    assert shown[0][0] == 0 and shown[0] == shown[1] == shown[2]
    assert json.loads(world_file.read_text())["head"]["actions"] == 3
    assert _files(state_dir) == STATE_FILES


@pytest.mark.parametrize("damage", [
    "legacy", "version-1", "version-2", "version-3", "no-version", "not-json",
    "not-an-object", "no-actions", "no-funding", "no-hw_seed_hex", "no-mode",
    "no-params", "no-seed_hex", "actions-int", "params-list", "seed_hex-list",
    "mode-unknown", "action-without-cmd", "action-int", "init-without-type",
    "init-of-unknown-type", "confirm-of-non-hex-otp",
    "rotate-of-unknown-mode", "init-with-extra-key", "confirm-of-short-otp",
    "params-empty", "params-S-str", "seed_hex-not-hex", "seed_hex-short",
    "hw_seed_hex-short", "head-log_bytes-str", "head-extra-key",
    "funding-negative", "params-outside-domain", "head-log_bytes-negative"])
def test_a_world_without_a_version_2_head_is_a_state_error(history, capsys,
                                                            damage):
    """Nothing to check a replay against, a key set other than a save
    writes, a key of another type, a value outside its domain, a missing log
    or a malformed action: the command writes nothing."""
    state_dir = history
    world_file = state_dir / "world.json"
    data = json.loads(world_file.read_text())
    logged, actions = _actions(state_dir), _actions(state_dir)
    replaced = {"params-list": ("params", [1]),
                "seed_hex-list": ("seed_hex", [1]),
                "mode-unknown": ("mode", "bogus"), "params-empty": ("params", {}),
                "params-S-str": ("params", {**data["params"], "S": "128"}),
                "seed_hex-not-hex": ("seed_hex", "zz"),
                "seed_hex-short": ("seed_hex", "00"),
                "hw_seed_hex-short": ("hw_seed_hex", "00"),
                "funding-negative": ("funding", -5),
                "params-outside-domain": ("params", {**data["params"],
                                                     "S": 100})}
    malformed = {"action-without-cmd": {"x": 1}, "action-int": 5,
                 "init-without-type": {"cmd": "init"},
                 "init-of-unknown-type": {**actions[0], "type": "bogus"},
                 "confirm-of-non-hex-otp": {"cmd": "confirm", "op_id": 0,
                                            "otp": "zz"},
                 "rotate-of-unknown-mode": {"cmd": "rotate", "mode": "bogus"}}
    if damage == "legacy":                  # as written before checkpoints
        del data["head"]
    elif damage == "version-1":             # its head hashed every block
        data["version"] = 1
    elif damage == "version-2":             # its txids left out the fee
        data["version"] = 2
    elif damage == "version-3":             # its log sat in world.json
        data.update(version=3, actions=actions)
        del data["head"]["log_bytes"]
    elif damage == "no-actions":
        (state_dir / "actions.jsonl").unlink()
    elif damage.startswith("no-"):
        del data[damage[3:]]
    elif damage in replaced:
        key, value = replaced[damage]
        data[key] = value
    elif damage == "head-log_bytes-str":
        data["head"]["log_bytes"] = str(data["head"]["log_bytes"])
    elif damage == "head-log_bytes-negative":   # the log is longer
        data["head"]["log_bytes"] = -1
    elif damage == "head-extra-key":
        data["head"]["memo"] = "x"
    # The log edits below are re-bound in the head.
    elif damage == "actions-int":           # the log is the number 5
        actions = [5]
    elif damage in malformed:
        actions[1] = malformed[damage]
    elif damage == "init-with-extra-key":   # replays to the recorded state
        actions[0]["memo"] = "x"
    elif damage == "confirm-of-short-otp":
        actions[2]["otp"] = actions[2]["otp"][:2]
    text = {"not-json": world_file.read_text()[:-1],
            "not-an-object": "[]"}.get(damage, json.dumps(data))
    world_file.write_text(text)
    if actions != logged:
        _rewrite_log(state_dir, actions)
    before = {p.name: p.read_bytes() for p in state_dir.iterdir()}
    for argv in (["root", "show"], ["op", "init", "--type", "transfer",
                                    "--addr", "acct:bob", "--param", "5"]):
        code, out, err = run(capsys, "--state-dir", state_dir, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: state:") and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == before


@pytest.mark.parametrize("damage, message", [
    ("head-counts-one-more", "the action log holds 3 actions, not the 4"),
    ("unparsed-line-committed", "the action log does not parse"),
    ("committed-mid-line", "the action log does not parse: the last line "
                           "has no newline"),
    ("two-actions-on-one-line", "the action log holds 3 actions on 2 lines")])
def test_a_log_of_another_count_is_a_state_error(history, capsys, damage,
                                                 message):
    """A load counts the log's lines against the head before it restores,
    and parses a log of another count first, so a line that does not parse
    is reported as such, and so is a line that holds two actions, which
    the head's count of three would otherwise accept; the command writes
    nothing."""
    state_dir = history
    world_file = state_dir / "world.json"
    data = json.loads(world_file.read_text())
    if damage == "head-counts-one-more":
        data["head"]["actions"] += 1
    elif damage == "committed-mid-line":
        data["head"]["log_bytes"] -= 1
    elif damage == "two-actions-on-one-line":   # the same byte count
        log = state_dir / "actions.jsonl"
        log.write_bytes(log.read_bytes().replace(b"}\n{", b"},{", 1))
    else:
        log = state_dir / "actions.jsonl"
        log.write_bytes(log.read_bytes() + b'{"cmd":\n')
        data["head"]["log_bytes"] = log.stat().st_size
    world_file.write_text(json.dumps(data))
    before = {p.name: p.read_bytes() for p in state_dir.iterdir()}
    code, out, err = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: state: " + message), err
    assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == before


def test_a_log_that_cannot_be_read_is_a_state_error(history, capsys):
    """`actions.jsonl` is a directory: the command names the log it cannot
    read and writes nothing."""
    state_dir = history
    log = state_dir / "actions.jsonl"
    log.unlink()
    log.mkdir()
    world = (state_dir / "world.json").read_bytes()
    code, out, err = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: state: cannot read {log}: "), err
    assert (state_dir / "world.json").read_bytes() == world
    assert log.is_dir() and not any(log.iterdir())


def test_client_files_of_an_older_world_are_ignored(history, monkeypatch,
                                                    capsys):
    """A world whose head bound its client's files and a separate
    checkpoint file by their digests loads by one checked replay, then
    restores."""
    state_dir = history
    world_file = state_dir / "world.json"
    data = json.loads(world_file.read_text())
    del data["head"]["checkpoint"]
    data["head"]["sha256"] = {
        "client.leaves": "0" * 64, "client.json": "0" * 64,
        "checkpoint.json": "0" * 64}
    world_file.write_text(json.dumps(data))
    for name in ("client.leaves", "client.json"):
        (state_dir / name).write_text("stale\n")
    replays = _count_replays(monkeypatch)
    shown = [run(capsys, "--state-dir", state_dir, "root", "show")
             for _ in range(2)]
    assert replays == [1] and shown[0][0] == 0 and shown[0] == shown[1]
    head = json.loads(world_file.read_text())["head"]
    assert head["state_hash"] == data["head"]["state_hash"]
    assert sorted(head) == HEAD_KEYS


def _older_layout(state_dir) -> bytes:
    """Lay the world out by hand as saves wrote it before the checkpoint
    moved into `world.json`: the checkpoint, with the log's digest under
    `actions_sha256`, in its own compact file `checkpoint.json`, and a head
    that binds it by its SHA-256 in a `world.json` of sorted keys. Returns
    the checkpoint file's bytes."""
    world_file = state_dir / "world.json"
    data = json.loads(world_file.read_text())
    checkpoint = data["head"].pop("checkpoint")
    del checkpoint["binding"]
    checkpoint["actions_sha256"] = hashlib.sha256(
        (state_dir / "actions.jsonl").read_bytes()).hexdigest()
    text = json.dumps(checkpoint, separators=(",", ":")).encode()
    (state_dir / "checkpoint.json").write_bytes(text)
    data["head"]["sha256"] = hashlib.sha256(text).hexdigest()
    world_file.write_text(json.dumps(data, separators=(",", ":"),
                                     sort_keys=True))
    return text


def test_a_world_in_the_older_layout_loads_by_one_replay(history, monkeypatch,
                                                         capsys):
    """Its `checkpoint.json` is neither read nor deleted: the world loads by
    one checked replay to the recorded state, whose save writes the
    checkpoint into `world.json`, and the next command restores."""
    state_dir = history
    world_file = state_dir / "world.json"
    recorded = json.loads(world_file.read_text())["head"]["state_hash"]
    old = _older_layout(state_dir)
    read = []
    real_read_text, real_open = Path.read_text, open
    monkeypatch.setattr(Path, "read_text", lambda path, *a, **k: (
        read.append(path.name), real_read_text(path, *a, **k))[1])
    monkeypatch.setattr(cli, "open", lambda path, *a, **k: (
        read.append(Path(path).name), real_open(path, *a, **k))[1],
        raising=False)
    replays = _count_replays(monkeypatch)
    shown = [run(capsys, "--state-dir", state_dir, "root", "show")
             for _ in range(2)]
    assert replays == [1] and shown[0][0] == 0 and shown[0] == shown[1]
    assert "world.json" in read and "checkpoint.json" not in read
    monkeypatch.undo()
    head = json.loads(world_file.read_text())["head"]
    assert sorted(head) == HEAD_KEYS and head["state_hash"] == recorded
    assert sorted(head["checkpoint"]) == CHECKPOINT_HEAD_KEYS
    assert (state_dir / "checkpoint.json").read_bytes() == old


def test_a_replay_off_the_recorded_state_saves_nothing(history, capsys):
    state_dir = history
    actions = _actions(state_dir)
    actions[0]["param"] = 6
    _rewrite_log(state_dir, actions)
    before = {p.name: p.read_bytes() for p in state_dir.iterdir()}
    code, _, err = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 1 and err.startswith("error: state:")
    assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == before


def test_a_key_seed_that_is_not_the_owners_refuses_every_write(history,
                                                               capsys):
    """With `hw_seed_hex` edited, a read command derives no key and shows
    what it showed; a write is a state error before it mines or saves, so
    it leaves both files as they were."""
    state_dir = history
    code, shown, _ = run(capsys, "--state-dir", state_dir, "root", "show")
    otp = _otp_hex(capsys, state_dir, 1)
    world_file = state_dir / "world.json"
    data = json.loads(world_file.read_text())
    data["hw_seed_hex"] = "11" * 32
    world_file.write_text(json.dumps(data))
    before = {p.name: p.read_bytes() for p in state_dir.iterdir()}
    assert run(capsys, "--state-dir", state_dir, "root", "show") == (
        0, shown, "")
    for argv in (["op", "init", "--type", "transfer", "--addr", "acct:bob",
                  "--param", 5],
                 ["op", "confirm", "--op-id", 1, "--otp", otp]):
        code, out, err = run(capsys, "--state-dir", state_dir, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: state:") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == before


def test_an_edited_action_log_is_a_state_error(history, capsys):
    state_dir = history
    assert json.loads((state_dir / "world.json").read_text())["version"] == 4
    log = state_dir / "actions.jsonl"
    text = log.read_bytes()
    assert text.startswith(b'{"addr":"acct:bob","cmd":"init","param":5,')
    log.write_bytes(text.replace(b'"param":5', b'"param":6', 1))
    code, _, err = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 1 and err.startswith("error: state:")


def test_a_fund_action_is_unknown(history, capsys):
    state_dir = history
    _rewrite_log(state_dir, _actions(state_dir) + [{
        "cmd": "fund", "from": "acct:adversary", "to": "acct:bob",
        "amount": 1}])
    code, _, err = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 1 and err.startswith("error: state: unknown action")


# A command line, and the exit code its parse gives (None when it parses)
# and whether the parser's output lists every command.
PARSES = [
    ([], 2, True), (["--help"], 0, True), (["bogus"], 2, True),
    (["op"], 2, False), (["op", "--help"], 0, False), (["op", "init"], 2, False),
    (["root", "show", "--help"], 0, False), (["root", "show", "extra"], 2, True),
    (["--state-dir"], 2, True), (["--state-dir", "-x", "root", "show"], 2, True),
    (["--state", "d", "root", "show"], None, False),
    (["--state-dir=d", "root", "show"], None, False),
    (["--state-dir", "d", "otp", "show", "--op-id", "x"], 2, False),
    (["--", "root", "show"], 2, True), (["-h", "root", "show"], 0, True),
    (["mnemonic", "encode", "00", "--bogus"], 2, True),
    (["root", "--state-dir", "d", "show"], 2, False),
]


@pytest.mark.parametrize("argv, code, lists",
                         PARSES, ids=[f"argv{i}" for i in range(len(PARSES))])
def test_the_partial_parser_behaves_like_the_full_one(argv, code, lists,
                                                      capsys, monkeypatch):
    """Help, usage errors and the top-level option's forms: each command
    line exits with its code, or parses to `root show` in `d`."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        args = parse_args(argv)
        assert code is None
        assert (args.fn, args.state_dir) == (cli.cmd_root_show, "d")
    except SystemExit as exc:
        assert exc.code == code
    captured = capsys.readouterr()
    assert ("{bootstrap,op,otp,subtree,root,attack,cost,security,mnemonic}"
            in captured.out + captured.err) == lists


MODES = ("secure", "insecure")
SCENARIO_NAMES = ["depletion", "dos-pending", "fork-replay", "theorem1",
                  "theorem2", "theorem3", "theorem4", "theorem5", "theorem6"]
REQUIRED_INT = (None, int, None, True, None, None)
# Each parser path -> the help its parent's listing gives it (None: not
# listed), the handler it sets, and each argument besides -h: its option
# strings, dest, default, type, choices, required, nargs and help.
PARSER_PATHS = {
    (): (None, None, [
        (["--state-dir"], "state_dir", None, None, None, False, None,
         "wallet state directory (env OTPWALLET_STATE)"),
        ([], "command", None, None,
         ["bootstrap", "op", "otp", "subtree", "root", "attack", "cost",
          "security", "mnemonic"], True, "A...", None)]),
    ("bootstrap",): ("deploy a fresh wallet", "cmd_bootstrap", [
        (["--mode"], "mode", "secure", None, MODES, False, None, None),
        (["--params"], "params", None, None, None, False, None,
         "S,N,P,NS,LS (env OTPWALLET_PARAMS)"),
        (["--seed-file"], "seed_file", None, None, None, False, None,
         "file with hex seed (and optional hex key seed)"),
        (["--funding"], "funding", 1000, int, None, False, None, None)]),
    ("op",): ("two-stage wallet operations", None, [
        ([], "op_command", None, None, ["init", "confirm"], True, "A...",
         None)]),
    ("op", "init"): ("initialize (first factor)", "cmd_op_init", [
        (["--type"], "type", None, None,
         ["daily-limit", "lr-address", "lr-timeout", "transfer"], True, None,
         None),
        (["--addr"], "addr", "", None, None, False, None, None),
        (["--param"], "param", 0, int, None, False, None, None)]),
    ("op", "confirm"): ("confirm with an OTP (second factor)",
                        "cmd_op_confirm", [
        (["--op-id"], "op_id", *REQUIRED_INT),
        (["--otp"], "otp", None, None, None, True, None,
         "hex digest or mnemonic words (quoted)")]),
    ("otp",): ("authenticator displays", None, [
        ([], "otp_command", None, None, ["show"], True, "A...", None)]),
    ("otp", "show"): (None, "cmd_otp_show", [
        (["--op-id"], "op_id", *REQUIRED_INT)]),
    ("subtree",): ("subtree lifecycle", None, [
        ([], "subtree_command", None, None, ["next"], True, "A...", None)]),
    ("subtree", "next"): ("introduce the next subtree", "cmd_subtree_next",
                          []),
    ("root",): ("parent-root lifecycle", None, [
        ([], "root_command", None, None, ["rotate", "show"], True, "A...",
         None)]),
    ("root", "rotate"): ("replace the parent root", "cmd_root_rotate", [
        (["--mode"], "mode", "secure", None, MODES, False, None, None)]),
    ("root", "show"): (None, "cmd_root_show", []),
    ("attack",): ("adversary scenarios", None, [
        ([], "attack_command", None, None, ["run"], True, "A...", None)]),
    ("attack", "run"): (None, "cmd_attack_run", [
        ([], "scenario", None, None, SCENARIO_NAMES + ["all"], True, None,
         None),
        (["--seed"], "seed", 0, int, None, False, None, None)]),
    ("cost",): ("cost model", None, [
        ([], "cost_command", None, None, ["sweep"], True, "A...", None)]),
    ("cost", "sweep"): (None, "cmd_cost_sweep", [
        (["--grid"], "grid", "H=7..10,P=1,L=all", None, None, False, None,
         'e.g. "H=7..10,P=1+2,L=all"')]),
    ("security",): ("security bounds", None, [
        ([], "security_command", None, None, ["calc"], True, "A...", None)]),
    ("security", "calc"): (None, "cmd_security_calc", [
        (["--lambda"], "lambda_bits", *REQUIRED_INT),
        (["--leaves"], "leaves", *REQUIRED_INT)]),
    ("mnemonic",): ("mnemonic codec", "cmd_mnemonic", [
        ([], "direction", None, None, ["encode", "decode"], True, None, None),
        ([], "value", None, None, None, True, "+",
         "hex string (encode) or words (decode)")]),
}


def _parser_paths(parser, path=(), listed=None):
    """(path, the help its parent lists for it, its parser) for the parser
    and each parser under it, depth first."""
    yield path, listed, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            for name, sub in action.choices.items():
                yield from _parser_paths(sub, (*path, name), helps.get(name))


def test_the_parser_of_every_command_is_pinned():
    """Every parser path, from bare `otpwallet` to `mnemonic`: its listed
    help, the handler it sets and every argument it takes."""
    seen = {}
    for path, listed, parser in _parser_paths(cli.build_parser()):
        fn = parser._defaults.get("fn")
        arguments = [
            (a.option_strings, a.dest, a.default, a.type,
             list(a.choices) if isinstance(a.choices, dict) else a.choices,
             a.required, a.nargs, a.help)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        seen[path] = (listed, fn and fn.__name__, arguments)
        assert fn is None or fn is getattr(cli, fn.__name__), path
    assert len(seen) == 19
    assert seen == PARSER_PATHS


def test_a_process_builds_one_parser(state, monkeypatch, capsys):
    """The commands of a process share one parser of every command, which
    the first of them builds."""
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    cli._parser.cache_clear()
    built = _count(monkeypatch, cli, "build_parser")
    code, out, _ = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 0 and "contract root:" in out
    code, _, _ = run(capsys, "--state-dir", state_dir, "op", "init", "--type",
                     "transfer", "--addr", "acct:bob", "--param", "5")
    assert code == 0
    code, out, _ = run(capsys, "--state-dir", state_dir, "op", "confirm",
                       "--op-id", 0, "--otp", _otp_hex(capsys, state_dir, 0))
    assert code == 0 and "confirmed opID 0" in out
    assert built == [1]


def test_the_environment_a_parser_reads_holds_for_each_call(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    """OTPWALLET_STATE and OTPWALLET_PARAMS, changed between two commands
    of one process, apply to the second."""
    monkeypatch.setenv(cli.SEED_ENV, SEED_HEX)
    for name, spec in (("a", "128,16,2,8,1"), ("b", "128,8,2,4,1"),
                       ("c", "128,16,2,8,1")):
        monkeypatch.setenv(cli.STATE_ENV, str(tmp_path / name))
        monkeypatch.setenv(cli.PARAMS_ENV, spec)
        assert run(capsys, "bootstrap")[0] == 0
        assert run(capsys, "root", "show")[0] == 0
        assert World.load(tmp_path / name).params() == parse_params(spec)


def test_consecutive_parses_share_nothing():
    first = parse_args(["op", "init", "--type", "transfer", "--addr",
                        "acct:x", "--param", "5"])
    second = parse_args(["op", "init", "--type", "transfer"])
    assert (first.addr, first.param) == ("acct:x", 5)
    assert (second.addr, second.param) == ("", 0)
    words = parse_args(["mnemonic", "decode", "abandon", "ability"])
    more = parse_args(["mnemonic", "decode", "able"])
    assert words.value == ["abandon", "ability"] and more.value == ["able"]
    assert words.value is not more.value


def test_importing_the_cli_leaves_mpmath_out():
    """Only the cost and security commands import the security calculator,
    and with it mpmath."""
    code = "import sys, otpwallet.cli; sys.exit('mpmath' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _one_state_line(err: str) -> bool:
    return (re.fullmatch(r"error: state: [^\n]*\n", err) is not None
            and "Traceback" not in err)


def test_an_os_error_is_one_state_line(state, monkeypatch, capsys):
    """A `world.json` that is a directory, and a save that finds the disk
    full, exit 1 with one `error: state:` line; the failed save leaves
    `world.json` as it was."""
    state_dir, seed_file = state
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    before = (state_dir / "world.json").read_bytes()
    real_write = Path.write_text

    def full(path, text, *args, **kwargs):
        if path.name == "world.json.tmp":
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(path, text, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(Path, "write_text", full)
        code, _, err = run(capsys, "--state-dir", state_dir, "op", "init",
                           "--type", "transfer", "--addr", "acct:bob",
                           "--param", "5")
    assert code == 1 and _one_state_line(err) and "No space left" in err
    assert (state_dir / "world.json").read_bytes() == before

    damaged = state_dir.parent / "damaged"
    shutil.copytree(state_dir, damaged)
    (damaged / "world.json").unlink()
    (damaged / "world.json").mkdir()
    code, out, err = run(capsys, "--state-dir", damaged, "root", "show")
    assert code == 1 and out == "" and _one_state_line(err)


def test_a_write_after_a_replay_saves_the_replay_and_its_commit(
        history, monkeypatch, capsys):
    """The load's replay saves a fresh head, which appends nothing, and the
    commit saves again with its one action."""
    state_dir = history
    _drop_checkpoint(state_dir)
    logged = _actions(state_dir)
    saves = _count(monkeypatch, World, "save")
    replays = _count_replays(monkeypatch)
    code, _, _ = run(capsys, "--state-dir", state_dir, "op", "init", "--type",
                     "transfer", "--addr", "acct:bob", "--param", "5")
    assert code == 0 and replays == [1] and len(saves) == 2
    assert _actions(state_dir)[:-1] == logged
    World.load(state_dir)                    # the save left a fresh head
    assert replays == [1]


def test_a_failed_write_after_a_replay_leaves_a_head_that_restores(
        history, monkeypatch, capsys):
    """A write on a null checkpoint replays once, and the replay saves a
    head that binds, though the commit is refused before it mines: the
    log is as it was, and the next command restores."""
    state_dir = history
    log = (state_dir / "actions.jsonl").read_bytes()
    recorded = json.loads((state_dir / "world.json").read_text())["head"][
        "state_hash"]
    _drop_checkpoint(state_dir)
    replays = _count_replays(monkeypatch)
    code, out, err = run(capsys, "--state-dir", state_dir, "op", "confirm",
                         "--op-id", 99, "--otp", "00" * 16)
    assert code == 1 and out == "" and replays == [1]
    assert err.startswith("error: protocol:") and "not-initialised" in err
    assert sorted(_checkpoint(state_dir)) == CHECKPOINT_HEAD_KEYS
    assert (state_dir / "actions.jsonl").read_bytes() == log
    code, _, err = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 0 and err == "" and replays == [1]
    assert World.load(state_dir).system.ledger.state_hash() == recorded


def test_no_action_is_pending_after_a_load_or_a_save(history, monkeypatch):
    """`data["actions"]` lists only the actions applied since the committed
    log, so it is empty after a restore, a replay and a save, and the
    committed count is the log's line count each time."""
    state_dir = history

    def committed(world) -> bool:
        lines = (state_dir / "actions.jsonl").read_bytes().count(b"\n")
        return world.data["actions"] == [] and world.log_actions == lines

    replays = _count_replays(monkeypatch)
    restored = World.load(state_dir)
    _drop_checkpoint(state_dir)
    replayed = World.load(state_dir)
    assert replays == [1] and committed(restored) and committed(replayed)
    replayed.commit({"cmd": "init", "type": "transfer", "addr": "acct:bob",
                     "param": 5})
    assert committed(replayed) and replayed.log_actions == 4


def _receipts(state_dir) -> int:
    return sum(len(blk.receipts)
               for blk in World.load(state_dir).system.ledger.chain)


def test_a_save_encodes_only_the_new_blocks(history, monkeypatch, capsys):
    state_dir = history
    before = _receipts(state_dir)
    encoded = _count(monkeypatch, ledger_mod, "encode_call")
    code, _, _ = run(capsys, "--state-dir", state_dir, "op", "init", "--type",
                     "transfer", "--addr", "acct:bob", "--param", "5")
    encodes = len(encoded)              # `_receipts` replays the log
    mined = _receipts(state_dir) - before
    assert code == 0 and mined >= 1 and encodes == mined


def _relayout(state_dir, layout: str) -> str:
    """`world.json` with its checkpoint in the older layout that held the
    block entries too: the head object, then a `blocks` array of every
    block's entry. Written compact with the blocks last, indented, or
    spaced with the blocks first."""
    data = json.loads((state_dir / "world.json").read_text())
    head = data["head"]["checkpoint"]
    blocks = [json.loads(line) for line in reference_entries(
        World.load(state_dir).system.ledger).splitlines()]
    if layout == "spaced":
        data["head"]["checkpoint"] = {"blocks": blocks, "head": head}
        return json.dumps(data, separators=(" , ", " : "))
    data["head"]["checkpoint"] = {"head": head, "blocks": blocks}
    if layout == "indented":
        return json.dumps(data, indent=1)
    return json.dumps(data, separators=(",", ":"))


@pytest.mark.parametrize("layout", ["indented", "blocks-last", "spaced"])
def test_a_rebound_checkpoint_in_another_layout_loads_by_replay(
        history, monkeypatch, capsys, layout):
    state_dir = history
    world_file = state_dir / "world.json"
    text = _relayout(state_dir, layout)
    with pytest.raises(ledger_mod.LedgerError):
        ledger_mod.Ledger.from_checkpoint(
            json.loads(text)["head"]["checkpoint"],
            World.load(state_dir).params(), list)
    world_file.write_text(text)
    recorded = json.loads(world_file.read_text())["head"]["state_hash"]

    replays = _count_replays(monkeypatch)
    code, _, _ = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 0 and replays == [1]

    # The replay saved the head in the layout `checkpoint` writes, and the
    # next load restores it.
    restored = World.load(state_dir)
    assert replays == [1]
    assert restored.system.ledger.state_hash() == recorded
    assert sorted(_checkpoint(state_dir)) == CHECKPOINT_HEAD_KEYS
    assert _files(state_dir) == STATE_FILES


def _written(monkeypatch) -> list:
    names = []
    real = Path.write_text
    monkeypatch.setattr(Path, "write_text", lambda path, text, *a, **k: (
        names.append(path.name), real(path, text, *a, **k))[1])
    return names


def test_a_write_replaces_exactly_the_two_files(history, monkeypatch,
                                               capsys):
    """... the log and `world.json`: a write, on a restored world or after
    a replay, appends its one action to the log, opens no other file in
    place for writing, and replaces `world.json` through its one temp file
    and its one rename per save: the commit's, after the replay's."""
    state_dir = history
    log = state_dir / "actions.jsonl"
    real_open, real_replace = open, os.replace
    for restored in (True, False):
        if not restored:
            _drop_checkpoint(state_dir)
        before = log.read_bytes()
        replays = _count_replays(monkeypatch)
        written = _written(monkeypatch)
        opened = []
        monkeypatch.setattr(cli, "open", lambda path, mode="r", *a, **k: (
            opened.append((Path(path).name, mode)),
            real_open(path, mode, *a, **k))[1], raising=False)
        renamed = []
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            renamed.append((Path(src).name, Path(dst).name)),
            real_replace(src, dst))[1])
        code, _, _ = run(capsys, "--state-dir", state_dir, "op", "init",
                         "--type", "transfer", "--addr", "acct:bob",
                         "--param", "5")
        monkeypatch.undo()
        saves = 1 if restored else 2
        assert code == 0 and replays == ([] if restored else [1])
        assert written == ["world.json.tmp"] * saves
        assert renamed == [("world.json.tmp", "world.json")] * saves
        assert [(name, mode) for name, mode in opened if mode != "rb"] == [
            ("actions.jsonl", "ab")] * saves
        assert _files(state_dir) == STATE_FILES
        assert log.read_bytes() == before + _line({
            "cmd": "init", "type": "transfer", "addr": "acct:bob",
            "param": 5})


def test_an_unknown_operation_type_is_a_usage_error(history, capsys):
    state_dir = history
    before = {p.name: p.read_bytes() for p in state_dir.iterdir()}
    with pytest.raises(SystemExit) as exc:
        main(["--state-dir", str(state_dir), "op", "init", "--type", "bogus"])
    assert exc.value.code == 2
    assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == before


# -- a restored ledger reads its head, not its chain ---------------------------

def test_a_restore_and_a_read_command_decode_no_block(history, monkeypatch,
                                                      capsys):
    state_dir = history
    replays = _count_replays(monkeypatch)
    world = World.load(state_dir)
    code, _, _ = run(capsys, "--state-dir", state_dir, "root", "show")
    assert code == 0 and replays == []
    assert len(world.system.ledger.chain) == world.system.ledger.head.height + 1
    assert replays == [1]               # reading the chain replays the log


def test_a_write_hashes_one_digest_per_block_it_mines(history, monkeypatch,
                                                      capsys):
    state_dir = history
    height = World.load(state_dir).system.ledger.head.height
    digests = block_hashes(monkeypatch)
    code, _, _ = run(capsys, "--state-dir", state_dir, "op", "init", "--type",
                     "transfer", "--addr", "acct:bob", "--param", "5")
    monkeypatch.undo()
    mined = World.load(state_dir).system.ledger.head.height - height
    assert code == 0 and mined >= 1 and len(digests) == mined


def test_confirmations_on_a_restored_world_decode_nothing(history,
                                                          monkeypatch):
    state_dir = history
    restored = World.load(state_dir).system
    replays = _count_replays(monkeypatch)
    confs = {op_id: restored.ledger.confirmations(txid)
             for op_id, (txid, *_) in restored.initialised.items()}
    assert replays == []
    monkeypatch.undo()
    _drop_checkpoint(state_dir)
    replayed = World.load(state_dir).system.ledger
    assert confs == {op_id: replayed.confirmations(txid)
                     for op_id, (txid, *_) in restored.initialised.items()}
    assert sorted(confs) == [0, 1] and confs[1] >= 0


@pytest.mark.parametrize("mode", cli.MODES)
def test_no_command_reads_the_chain_below_a_restored_head(tmp_path,
                                                          monkeypatch, capsys,
                                                          mode):
    """Every command that loads a world, after a bootstrap and with a
    rotation in the mode, restores it and never calls the chain reader.
    One chain read then replays the log once and gives the replayed
    world's event log, signature audit and state hash."""
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(SEED_HEX + "\n")
    state_dir = tmp_path / "wallet"
    assert run(capsys, "--state-dir", state_dir, "bootstrap", "--mode", mode,
               "--params", "128,4,1,2,1", "--seed-file", seed_file)[0] == 0
    reads = _count(monkeypatch, ledger_mod.Ledger, "_materialize")
    replays = _count_replays(monkeypatch)
    # Slot 1 ends the first subtree and slot 3 the generation.
    for op_id, step in ((0, ["subtree", "next"]),
                        (2, ["root", "rotate", "--mode", mode])):
        assert run(capsys, "--state-dir", state_dir, "op", "init", "--type",
                   "transfer", "--addr", "acct:bob", "--param", 1)[0] == 0
        assert run(capsys, "--state-dir", state_dir, "op", "confirm",
                   "--op-id", op_id, "--otp",
                   _otp_hex(capsys, state_dir, op_id))[0] == 0
        assert run(capsys, "--state-dir", state_dir, "root", "show")[0] == 0
        assert run(capsys, "--state-dir", state_dir, *step)[0] == 0
    assert reads == [] and replays == []

    ledger = World.load(state_dir).system.ledger
    read = (ledger.event_log(), ledger.audit_signatures(), ledger.state_hash())
    assert reads == [1] and replays == [1]
    monkeypatch.undo()
    _drop_checkpoint(state_dir)
    replayed = World.load(state_dir).system.ledger
    assert read == (replayed.event_log(), replayed.audit_signatures(),
                    replayed.state_hash())
    assert read[1] == [] and len(read[0]) == 10


@pytest.fixture
def other_world(tmp_path, capsys):
    """A world of another seed, with one pending transfer."""
    seed_file = tmp_path / "other-seed.txt"
    seed_file.write_text("ff" * 16 + "\n")
    state_dir = tmp_path / "other"
    run(capsys, "--state-dir", state_dir, "bootstrap", "--seed-file", seed_file)
    run(capsys, "--state-dir", state_dir, "op", "init", "--type", "transfer",
        "--addr", "acct:bob", "--param", "5")
    return state_dir


@pytest.mark.parametrize("edit", ["another-replay", "a-rejected-confirm",
                                  "another-seed"])
def test_a_consistently_tampered_log_fails_when_read(history, other_world,
                                                     monkeypatch, edit):
    """A log edited, at its committed length, to another replay or to one
    that fails, whose digest the checkpoint of `world.json` re-binds: the
    head still binds, and reading the chain fails. So does a chain read
    from another seed's world."""
    state_dir = history
    actions = _actions(state_dir)
    if edit == "another-replay":
        actions[0]["param"] = 6
    elif edit == "a-rejected-confirm":
        actions[2]["otp"] = "00" * 16
    log = b"".join(map(_line, actions))
    (state_dir / "actions.jsonl").write_bytes(log)
    _rebind_doc(state_dir, lambda doc: doc.update(
        binding=cli._binding(hashlib.sha256(log), doc)))

    replays = _count_replays(monkeypatch)
    ledger = World.load(state_dir).system.ledger     # binds by the head alone
    assert replays == []
    if edit == "another-seed":
        other = World.load(other_world)
        ledger = ledger_mod.Ledger.from_checkpoint(
            _checkpoint(state_dir), other.params(), other._chain_reader())
    for read in (lambda: ledger.chain, ledger.event_log,
                 ledger.audit_signatures):
        with pytest.raises(ledger_mod.LedgerError):
            read()


def test_a_forged_head_fails_when_the_chain_is_read(history, monkeypatch):
    """A checkpoint whose state was edited (one account +400), with the
    head's `state_hash` re-bound to the edited ledger's: the head binds
    and restores, and a read below it replays the log, which lands on the
    state the log holds, not the recorded one."""
    state_dir = history
    world_file = state_dir / "world.json"
    data = json.loads(world_file.read_text())
    actual = data["head"]["state_hash"]
    checkpoint = data["head"]["checkpoint"]
    account = sorted(checkpoint["accounts"])[0]
    checkpoint["accounts"][account] += 400
    forged = ledger_mod.Ledger.from_checkpoint(
        checkpoint, World.load(state_dir).params(), list).state_hash()
    data["head"]["state_hash"] = forged
    world_file.write_text(json.dumps(data))

    replays = _count_replays(monkeypatch)
    ledger = World.load(state_dir).system.ledger     # binds by the head alone
    assert replays == [] and ledger.accounts[account] == (
        checkpoint["accounts"][account])
    for read in (lambda: ledger.chain, ledger.event_log,
                 ledger.audit_signatures):
        with pytest.raises(ledger_mod.LedgerError) as raised:
            read()
        assert f"replays to state {actual}, not the recorded {forged}" in str(
            raised.value)
    assert replays == [1, 1, 1]


@pytest.mark.parametrize("damage", ["intact", "torn-append", "ten-bytes-short",
                                    "deleted", "lowered-length"])
def test_a_world_with_a_block_archive_restores_and_keeps_it(history,
                                                             monkeypatch,
                                                             capsys, damage):
    """A world laid out as saves wrote it while the block archive existed:
    a `blocks.jsonl` of every block's entry, and a checkpoint that also
    holds the head's parent digest, the archive's length and the depth
    checks. No file reads the archive any more, so whole, torn, short,
    deleted or committed at a lowered length, commands restore the world
    without replay and leave the archive as it is; reading the chain
    replays the log instead."""
    state_dir = history
    ledger = World.load(state_dir).system.ledger
    entries = reference_entries(ledger)
    parent = bytes(16)
    for entry in entries.splitlines()[:-1]:
        parent = ledger_mod.truncated_hash(parent + entry)
    archive = state_dir / "blocks.jsonl"
    archive.write_bytes({"torn-append": entries + b'[1600000000,[[["',
                         "ten-bytes-short": entries[:-10]}.get(damage, entries))
    committed = len(entries) - 10 * (damage == "lowered-length")
    _rebind_doc(state_dir, lambda doc: doc.update(
        parent=parent.hex(), archive_bytes=committed,
        depth_checks=[[int(op_id), depth] for op_id, depth
                      in depths_waited(ledger).items()]))
    if damage == "deleted":
        archive.unlink()
    kept = _files(state_dir), {p.name: p.read_bytes()
                               for p in state_dir.glob("blocks.jsonl")}
    replays = _count_replays(monkeypatch)
    for argv in (["root", "show"], ["otp", "show", "--op-id", 1],
                 ["op", "confirm", "--op-id", 1, "--otp",
                  _otp_hex(capsys, state_dir, 1)],
                 ["op", "init", "--type", "transfer", "--addr", "acct:bob",
                  "--param", 5]):
        assert run(capsys, "--state-dir", state_dir, *argv)[0] == 0, argv
    assert replays == []
    assert kept == (_files(state_dir), {p.name: p.read_bytes() for p
                                        in state_dir.glob("blocks.jsonl")})
    assert sorted(_checkpoint(state_dir)) == CHECKPOINT_HEAD_KEYS
    restored = World.load(state_dir).system.ledger
    assert restored.audit_signatures() == [] and replays == [1]
    assert restored.state_hash() == reference_state_hash(restored)
