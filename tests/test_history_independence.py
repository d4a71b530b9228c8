"""History-independence of a CLI command, checked by counting its work.

Two worlds, written once per session at the same position in their
generation but at different depths, run `root show` and `op init` in
process. Test-local wrappers count the bytes each command reads from and
writes to each state file, the bytes it JSON-decodes from each and the
bytes it JSON-encodes, the bytes it hashes with SHA-256 and the operation
records it builds. The counters that no longer grow with history are
asserted equal at both depths; the action log is asserted decoded not at
all, a read command encodes nothing, and SHA-256 reads only the log. The others are not asserted: `world.json`, whose head
checkpoint lists every `op` line and the oracle lists, is read, decoded
and written whole, and the whole action log is read and hashed. Not yet
counted: `truncated_hash` input."""

import hashlib
import json
import random
import shutil
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from otpwallet import cli, contract as contract_mod, ledger as ledger_mod
from otpwallet.cli import World, main, parse_params
from otpwallet.protocols import bootstrap_system

from harness import write_history

PARAMS = "128,64,2,16,1"
N_S = parse_params(PARAMS).N_S
FUNDING = 10 ** 6
# 580 = 9 * 64 + 4: the same slot of the same subtree as 68, so both worlds
# hold the same open records and initialised rows.
DEPTHS = (68, 580)
COMMANDS = {
    "root show": ["root", "show"],
    "op init": ["op", "init", "--type", "transfer", "--addr", "acct:bob",
                "--param", "1"],
}


@pytest.fixture(scope="module")
def worlds(tmp_path_factory) -> dict:
    dirs = {}
    for slots in DEPTHS:
        rng = random.Random(11)
        state_dir = tmp_path_factory.mktemp(f"depth{slots}") / "wallet"
        world = World.create(state_dir, "secure", parse_params(PARAMS),
                             rng.randbytes(16), rng.randbytes(32), FUNDING)
        world.system = world.build_system()
        bootstrap_system(world.system, "secure", FUNDING)
        write_history(world, slots, rng)
        world.save()
        dirs[slots] = state_dir
    return dirs


class _Counted:
    """A file of the state dir whose reads and writes are counted."""

    def __init__(self, f, name, counts):
        self.f, self.name, self.counts = f, name, counts

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def read(self, *args):
        data = self.f.read(*args)
        self.counts["read", self.name] += len(data)
        return data

    def write(self, data):
        self.counts["written", self.name] += len(data)
        self.counts["lines", self.name] += data.count(b"\n")
        return self.f.write(data)

    def truncate(self, *args):
        return self.f.truncate(*args)

    def seek(self, *args):
        return self.f.seek(*args)


def _name(path) -> str:
    return Path(path).name.removesuffix(".tmp")


class _CountedHash:
    """A SHA-256 object that counts the bytes it is fed."""

    def __init__(self, h, counts):
        self.h, self.counts = h, counts

    def update(self, data):
        self.counts["sha256"] += len(data)
        self.h.update(data)

    def copy(self):
        return _CountedHash(self.h.copy(), self.counts)

    def hexdigest(self):
        return self.h.hexdigest()


# The package function that JSON-decodes each state file.
DECODERS = {"load": "world.json", "_parse_log": "actions.jsonl"}


def count_work(monkeypatch, state_dir: Path, argv: list) -> Counter:
    """Run one command in process and count its work."""
    counts = Counter()
    real_open, real_loads = open, json.loads
    real_dumps, real_to_json = json.dumps, ledger_mod._to_json
    real_read, real_write = Path.read_text, Path.write_text
    real_record = contract_mod.OperationRecord

    def counted_open(path, mode="r", *args, **kwargs):
        return _Counted(real_open(path, mode, *args, **kwargs), _name(path),
                        counts)

    def read_text(path, *args, **kwargs):
        text = real_read(path, *args, **kwargs)
        counts["read", _name(path)] += len(text.encode())
        return text

    def write_text(path, text, *args, **kwargs):
        counts["written", _name(path)] += len(text.encode())
        return real_write(path, text, *args, **kwargs)

    def sha256(data=b""):
        counts["sha256"] += len(data)
        return _CountedHash(hashlib.sha256(data), counts)

    def dumps(obj, *args, **kwargs):
        text = real_dumps(obj, *args, **kwargs)
        counts["encoded"] += len(text)
        return text

    def to_json(obj):
        text = real_to_json(obj)
        counts["encoded"] += len(text)
        return text

    def record(*args):
        counts["records"] += 1
        return real_record(*args)

    def loads(data, *args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        counts["decoded", DECODERS.get(caller, caller)] += len(data)
        return real_loads(data, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(cli, "open", counted_open, raising=False)
        patched.setattr(Path, "read_text", read_text)
        patched.setattr(Path, "write_text", write_text)
        patched.setattr(cli, "hashlib", SimpleNamespace(sha256=sha256))
        patched.setattr(json, "dumps", dumps)
        patched.setattr(ledger_mod, "_to_json", to_json)
        patched.setattr(contract_mod, "OperationRecord", record)
        patched.setattr(json, "loads", loads)
        assert main(["--state-dir", str(state_dir), *argv]) == 0
    return counts


@pytest.fixture(scope="module")
def work(worlds, tmp_path_factory) -> dict:
    """(command, depth) -> the counted work of the command on a fresh copy
    of the world, and the world as the command left it: its `world.json`
    text and its log's length."""
    out = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for slots, state_dir in worlds.items():
            for command, argv in COMMANDS.items():
                copy = tmp_path_factory.mktemp("run") / "wallet"
                shutil.copytree(state_dir, copy)
                replays = []
                real_replay = World.replay
                monkeypatch.setattr(World, "replay", lambda world: (
                    replays.append(1), real_replay(world))[1])
                counts = count_work(monkeypatch, copy, argv)
                monkeypatch.undo()
                assert replays == [], (command, slots)
                out[command, slots] = counts, (
                    (copy / "world.json").read_text(),
                    (copy / "actions.jsonl").stat().st_size)
    return out


def test_a_restore_decodes_no_log_byte_at_any_depth(work):
    """Only `world.json`, which holds the head checkpoint, is JSON-decoded,
    by the function that reads it; the log is not."""
    for (command, slots), (counts, _) in work.items():
        decoded = {key[1] for key, n in counts.items()
                   if key[0] == "decoded" and n}
        assert decoded == {"world.json"}, (command, slots)


def test_the_counters_see_each_file_a_write_writes(work):
    """`op init` appends to the log and replaces `world.json`, and each
    write is counted."""
    for slots in DEPTHS:
        counts, (world, _) = work["op init", slots]
        assert counts["written", "world.json"] == len(world.encode())
        assert counts["written", "actions.jsonl"] > 0, slots


def test_sha256_reads_only_the_log(work):
    """A load hashes the log's committed bytes, and a save only the lines
    it appends, so each command feeds SHA-256 the log it leaves, once."""
    for (command, slots), (counts, (_, log_bytes)) in work.items():
        assert counts["sha256"] == log_bytes, (command, slots)


def test_a_read_command_encodes_no_json_at_any_depth(work):
    """`root show` encodes nothing; `op init` encodes its log line, the
    entries of the blocks it mines (for their digests) and `world.json`,
    which grows with history (its head checkpoint lists every `op` line)."""
    for slots in DEPTHS:
        assert work["root show", slots][0]["encoded"] == 0, slots
        assert work["op init", slots][0]["encoded"] > 0, slots


def test_a_command_builds_the_same_records_at_both_depths(work):
    for command in COMMANDS:
        built = [work[command, slots][0]["records"] for slots in DEPTHS]
        assert built[0] == built[1] <= N_S, command


def test_the_written_head_indexes_the_same_rows_at_both_depths(work):
    """Only the initialised rows' txids, at most `N_S` of them."""
    kept = [len(json.loads(work["op init", slots][1][0])["head"][
        "checkpoint"]["index"]) for slots in DEPTHS]
    assert kept[0] == kept[1] <= N_S


def test_a_write_appends_the_same_blocks_at_both_depths(work, worlds):
    """`op init` mines the same number of blocks and appends the same one
    log line at both depths; `root show` writes nothing."""
    appended = [work["op init", slots][0] for slots in DEPTHS]
    assert [a["lines", "actions.jsonl"] for a in appended] == [1, 1]
    assert (appended[0]["written", "actions.jsonl"]
            == appended[1]["written", "actions.jsonl"])
    mined = [json.loads(work["op init", slots][1][0])["head"]["checkpoint"][
        "height"] - json.loads((worlds[slots] / "world.json").read_text())[
        "head"]["checkpoint"]["height"] for slots in DEPTHS]
    assert mined[0] == mined[1] >= 1, mined
    for slots in DEPTHS:
        counts, _ = work["root show", slots]
        assert not [key for key in counts if key[0] in ("written", "lines")]
