"""The CLI's head checkpoint: a restored world is the replayed world."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otpwallet.cli import World, main
from otpwallet.contract import OpType, WalletContract
from otpwallet.ledger import LedgerError, Transaction, encode_call
from otpwallet.merkle import TreeParams
from otpwallet.protocols import (
    run_bootstrap,
    run_new_root,
    run_next_subtree,
    run_operation,
)

from harness import depths_waited, reference_decode_call

SEED_HEX = "000102030405060708090a0b0c0d0e0f"
PARAMS = "128,4,1,2,1"          # a subtree every 2 slots, a rotation every 4
N, N_S = 4, 2
STATE_FILES = ("actions.jsonl", "world.json")


def _actions(state_dir: Path) -> list:
    return [json.loads(line) for line in
            (state_dir / "actions.jsonl").read_bytes().splitlines()]


def cli(state_dir: Path, *argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["--state-dir", str(state_dir), *map(str, argv)])
    return code, out.getvalue()


def load(state_dir: Path, replay: bool) -> World:
    """The world as a command sees it, restored or forced to replay by
    setting the head's checkpoint to null."""
    if replay:
        world_file = state_dir / "world.json"
        data = json.loads(world_file.read_text())
        data["head"]["checkpoint"] = None
        world_file.write_text(json.dumps(data))
    return World.load(state_dir)


class Session:
    """Drives one state directory and keeps the ids of pending operations."""

    def __init__(self, state_dir: Path, mode: str):
        self.dir = state_dir
        seed_file = state_dir.parent / "seed.txt"
        seed_file.write_text(SEED_HEX + "\n")
        code, _ = cli(state_dir, "bootstrap", "--mode", mode, "--params",
                      PARAMS, "--seed-file", seed_file)
        assert code == 0
        self.pending: list[int] = []

    def confirm(self, op_id: int, honest: bool) -> list:
        otp = "00" * 16
        if honest:
            # The authenticator refuses ids outside the current generation
            # (a pending id from before a rotation); that confirm is bogus.
            code, shown = cli(self.dir, "otp", "show", "--op-id", op_id)
            if code == 0:
                otp = shown.splitlines()[0].split(":", 1)[1].strip()
        return ["op", "confirm", "--op-id", op_id, "--otp", otp]

    def argv(self, intent) -> list:
        """The command line an intent stands for in the current world. A
        step is the next command of an honest user: confirm the last
        pending operation, else rotate or introduce a subtree at a reserved
        slot, else start a transfer."""
        kind = intent[0]
        if kind == "step":
            slot = World.load(self.dir).system.contract.next_op_id % N
            if self.pending:
                return self.confirm(self.pending.pop(), honest=True)
            if slot == N - 1:
                return ["root", "rotate", "--mode", intent[1]]
            if slot % N_S == N_S - 1:
                return ["subtree", "next"]
            return ["op", "init", "--type", "transfer", "--addr", "acct:bob",
                    "--param", 1]
        if kind == "init":
            _, op_type, addr, param = intent
            return ["op", "init", "--type", op_type, "--addr", addr,
                    "--param", param]
        if kind == "confirm":
            _, k, honest = intent
            op_id = self.pending.pop(k % len(self.pending)) if self.pending else k
            return self.confirm(op_id, honest)
        if kind == "subtree":
            return ["subtree", "next"]
        if kind == "rotate":
            return ["root", "rotate", "--mode", intent[1]]
        return ["root", "show"]

    def run(self, argv: list) -> tuple[int, str]:
        code, out = cli(self.dir, *argv)
        if code == 0 and out.startswith("opID: "):
            self.pending.append(int(out.split()[1]))
        return code, out


MODES = st.sampled_from(["secure", "insecure"])
STEP = st.tuples(st.just("step"), MODES)
INTENTS = st.one_of(
    STEP,
    st.tuples(st.just("init"),
              st.sampled_from(["transfer", "daily-limit", "lr-timeout",
                               "lr-address"]),
              st.sampled_from(["acct:bob", "acct:carol"]),
              st.integers(0, 600)),
    st.tuples(st.just("confirm"), st.integers(0, 7), st.booleans()),
    st.just(("subtree",)),
    st.tuples(st.just("rotate"), MODES),
    st.just(("show",)),
)
# Mostly honest steps, so that sequences reach subtrees and rotations.
SEQUENCES = st.lists(st.one_of(STEP, INTENTS), min_size=1, max_size=16)


def assert_same_client(a: World, b: World) -> None:
    assert a.system.contract_id == b.system.contract_id
    for world in a, b:
        assert world.system.client.eta == world.system.authenticator.eta
    ca, cb = a.system.client, b.system.client
    # A restored client builds its tree on its first read, here.
    assert ca.root == cb.root
    assert ca.levels == cb.levels
    assert ca.eta == cb.eta
    assert ca.current_subtree == cb.current_subtree
    assert ca.params == cb.params


def assert_same_world(a: World, b: World) -> None:
    la, lb = a.system.ledger, b.system.ledger
    assert la.state_hash() == lb.state_hash()
    assert la.event_log() == lb.event_log()
    assert a.system.contract.state_lines() == b.system.contract.state_lines()
    assert la.audit_signatures() == [] and lb.audit_signatures() == []
    assert_same_client(a, b)
    assert a.system.initialised == b.system.initialised
    assert a.system.confirmed_transfers == b.system.confirmed_transfers
    assert depths_waited(la) == depths_waited(lb)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["secure", "insecure"]),
       SEQUENCES, INTENTS)
def test_a_restored_world_is_the_replayed_world(mode, intents, last):
    with tempfile.TemporaryDirectory() as tmp:
        session = Session(Path(tmp) / "restored", mode)
        for intent in intents:
            session.run(session.argv(intent))

        replayed_dir = Path(tmp) / "replayed"
        shutil.copytree(session.dir, replayed_dir)
        restored = load(session.dir, replay=False)
        replayed = load(replayed_dir, replay=True)
        # A restore parses no logged action; a replay parses them all.
        assert ({**replayed.data, "actions": None}
                == {**restored.data, "actions": None})
        assert restored.data["actions"] == []
        assert replayed.data["actions"] == _actions(session.dir)
        assert_same_world(restored, replayed)

        # The next command behaves the same, down to the files it writes.
        argv = session.argv(last)
        assert cli(session.dir, *argv) == cli(replayed_dir, *argv)
        assert sorted(p.name for p in session.dir.iterdir()) == list(STATE_FILES)
        for name in STATE_FILES:
            assert ((session.dir / name).read_bytes()
                    == (replayed_dir / name).read_bytes()), name


def test_load_restores_without_replaying(tmp_path, monkeypatch):
    replays = []
    real = World.replay
    monkeypatch.setattr(World, "replay",
                        lambda world: (replays.append(1), real(world))[1])
    for bootstrap in ("secure", "insecure"):
        session = Session(tmp_path / bootstrap, bootstrap)
        # Two generations: transfers, subtrees, a secure and an insecure
        # rotation, then a transfer and a subtree in the third generation.
        for mode in ["secure"] * 6 + ["insecure"] * 6 + ["secure"] * 3:
            assert session.run(session.argv(("step", mode)))[0] == 0
        replays.clear()
        restored = load(session.dir, replay=False)
        assert replays == []
        client = restored.system.client
        assert (client.eta, client.current_subtree) == (2, 1)
        replayed = load(session.dir, replay=True)
        assert replays == [1]
        assert_same_world(restored, replayed)


def test_a_restored_ledger_forks_below_its_head_as_the_replayed_ledger(
        tmp_path):
    """After a read below the restored head, a fork below it, a reorg to
    the branch and a block of the orphaned transactions and a new transfer
    give the state of the same moves on the replayed ledger: the restored
    submission counter orders the transfer after the orphans."""
    session = Session(tmp_path / "w", "secure")
    for _ in range(3):
        session.run(session.argv(("step", "secure")))
    replayed_dir = tmp_path / "replayed"
    shutil.copytree(session.dir, replayed_dir)
    restored = load(session.dir, replay=False).system
    replayed = load(replayed_dir, replay=True).system
    assert restored.ledger._below is not None
    assert restored.ledger.event_log() == replayed.ledger.event_log()
    for system in (restored, replayed):
        ledger = system.ledger
        top = ledger.head.height
        branch = ledger.fork(top - 3)
        for _ in range(4):
            ledger.mine_block(branch=branch)
        ledger.reorg(branch)
        # The orphaned transactions, and a transfer at their fee, which is
        # mined after them by its later submission.
        (fee,) = {tx.fee for tx in ledger.mempool}
        user = system.user_account
        ledger.submit(Transaction(user, {"fn": "transfer", "to": "acct:carol",
                                         "amount": 3}, fee,
                                  nonce=ledger.next_nonce(user)))
        ledger.mine_block()
        assert ledger.accounts["acct:carol"] == 3
    assert restored.ledger.state_hash() == replayed.ledger.state_hash()
    assert restored.ledger.event_log() == replayed.ledger.event_log()


def test_contract_state_lines_parse_back():
    params = TreeParams(S=128, N=16, P=2, N_S=8, L_S=1)
    system = run_bootstrap("secure", 3, params)
    run_operation(system, OpType.SET_LAST_RESORT_ADDRESS, "acct:x,=y", 0)
    run_operation(system, OpType.TRANSFER, "acct:bob", 7)
    while system.contract.next_op_id % params.N_S != params.N_S - 1:
        run_operation(system, OpType.SET_DAILY_LIMIT, "", 40)
    run_next_subtree(system)
    for _ in range(params.N_S - 1):
        run_operation(system, OpType.TRANSFER, "acct:bob", 1)
    assert run_new_root(system, "secure")["ok"]
    contract = system.contract
    twin = WalletContract.from_state_lines(contract.state_lines(), params)
    assert twin.state_lines() == contract.state_lines()
    assert vars(twin) == vars(contract)


def test_every_chain_call_survives_the_codec():
    params = TreeParams(S=128, N=16, P=2, N_S=8, L_S=1)
    system = run_bootstrap("insecure", 5, params)
    for _ in range(params.N_S - 1):
        run_operation(system, OpType.TRANSFER, "acct:bob", 1)
    run_next_subtree(system)
    calls = [r.tx.call for blk in system.ledger.chain for r in blk.receipts]
    assert {c["fn"] for c in calls} >= {"deploy_wallet", "transfer", "init_op",
                                         "confirm_op", "next_subtree"}
    for call in calls:
        assert reference_decode_call(encode_call(call)) == call
    with pytest.raises(LedgerError):
        encode_call({"fn": "transfer", "to": "b", "amount": True})
    with pytest.raises(LedgerError):
        encode_call({"fn": "transfer", "to": "b", "amount": 1, "memo": "x"})
