"""Tree-size independence of a CLI command, checked by counting its work.

Three freshly bootstrapped worlds, at N = 64, 1024 and 4096 with the same
P, run CLI commands in process; the last one's 2 048 leaves fill more than
one span of `merkle._hash_level`. Test-local wrappers count, per command,
the leaf chains derived (`merkle._chain_ends`), the pair hashes (each
`merkle.pair_hash` call, and each pair of a level `merkle._hash_level`
hashes), the client trees built (`merkle.build_levels`) and the owner-key
derivations (`signing._derive`, a key pair from a seed). A load builds
nothing; `otp show` and `op init` derive no leaf and hash no pair at any
N; no read command derives the key; `root show` is the authenticator's one
derivation of the leaves, on purpose; and the first proof, in `op
confirm`, builds the client's tree once."""

from collections import Counter

import pytest

from otpwallet import merkle, signing
from otpwallet.cli import World, main, parse_params

SEED_HEX = "000102030405060708090a0b0c0d0e0f"
SPECS = ("128,64,2,16,1", "128,1024,2,16,1", "128,4096,2,16,1")
INIT = ["op", "init", "--type", "transfer", "--addr", "acct:bob",
        "--param", "1"]


def _counting(monkeypatch, counts: Counter) -> None:
    chain_ends, pair_hash = merkle._chain_ends, merkle.pair_hash
    hash_level = merkle._hash_level
    build_levels = merkle.build_levels
    derive = signing._derive

    def chains(k, first, count, *args):
        counts["leaves"] += count
        return chain_ends(k, first, count, *args)

    def pairs(*args):
        counts["pairs"] += 1
        return pair_hash(*args)

    def level_pairs(level, *args):
        counts["pairs"] += len(level) // 2
        return hash_level(level, *args)

    def trees(*args):
        counts["trees"] += 1
        return build_levels(*args)

    def keys(seed):
        counts["keys"] += 1
        return derive(seed)

    monkeypatch.setattr(merkle, "_chain_ends", chains)
    monkeypatch.setattr(merkle, "pair_hash", pairs)
    monkeypatch.setattr(merkle, "_hash_level", level_pairs)
    monkeypatch.setattr(merkle, "build_levels", trees)
    monkeypatch.setattr(signing, "_derive", keys)


@pytest.fixture(scope="module", params=SPECS)
def work(request, tmp_path_factory) -> tuple[int, dict]:
    """(N/P, command -> its counts) for one world, run in this order: a
    bare load, `otp show`, `root show`, `op init` and `op confirm`."""
    tmp = tmp_path_factory.mktemp("n")
    seed_file = tmp / "seed.txt"
    seed_file.write_text(SEED_HEX + "\n")
    state_dir = tmp / "wallet"
    assert main(["--state-dir", str(state_dir), "bootstrap", "--params",
                 request.param, "--seed-file", str(seed_file)]) == 0
    mp, work = pytest.MonkeyPatch(), {}
    try:
        counts = work["load"] = Counter()
        _counting(mp, counts)
        World.load(state_dir)
        for name, argv in (("otp show", ["otp", "show", "--op-id", "0"]),
                           ("root show", ["root", "show"]),
                           ("op init", INIT)):
            mp.undo()
            counts = work[name] = Counter()
            _counting(mp, counts)
            assert main(["--state-dir", str(state_dir), *argv]) == 0
        mp.undo()
        otp = World.load(state_dir).system.authenticator.get_otp(0).hex()
        counts = work["op confirm"] = Counter()
        _counting(mp, counts)
        assert main(["--state-dir", str(state_dir), "op", "confirm",
                     "--op-id", "0", "--otp", otp]) == 0
    finally:
        mp.undo()
    return parse_params(request.param).leaves, work


def test_a_load_builds_no_tree_and_derives_no_key(work):
    _, counts = work
    assert counts["load"] == Counter()


@pytest.mark.parametrize("command", ["otp show", "op init"])
def test_a_command_without_a_proof_derives_no_leaf(work, command):
    _, counts = work
    assert (counts[command]["leaves"], counts[command]["pairs"],
            counts[command]["trees"]) == (0, 0, 0)


@pytest.mark.parametrize("command", ["otp show", "root show"])
def test_a_read_command_derives_no_key(work, command):
    _, counts = work
    assert counts[command]["keys"] == 0


def test_root_show_derives_the_leaves_once(work):
    leaves, counts = work
    assert counts["root show"] == Counter(leaves=leaves, pairs=leaves - 1)


def test_a_write_derives_the_key_once(work):
    _, counts = work
    assert counts["op init"]["keys"] == counts["op confirm"]["keys"] == 1


def test_the_first_proof_builds_the_tree_once(work):
    leaves, counts = work
    assert counts["op confirm"]["trees"] == 1
    assert counts["op confirm"]["leaves"] == leaves
