"""Ledger simulator: ordering, forks, confirmations, determinism."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otpwallet import scenarios, signing
from otpwallet.authenticator import Authenticator
from otpwallet.client import ClientStore
from otpwallet.contract import OpType
from otpwallet.ledger import (
    CALL_ARGS,
    Block,
    Ledger,
    LedgerError,
    Transaction,
    payload_size,
)
from otpwallet.merkle import (MerkleProof, SubtreeLayer, TreeParams,
                              build_levels, lsb, with_lsb)

from harness import (block_hashes, reference_chain, reference_digests,
                     reference_entries, reference_head, reference_state_hash)


def pay(frm, to, amount, fee, nonce):
    return Transaction(frm, {"fn": "transfer", "to": to, "amount": amount},
                       fee=fee, nonce=nonce)


def reader(chain: list, reads: list | None = None):
    """A reader that returns `chain`, logging each call in `reads`."""
    def read():
        if reads is not None:
            reads.append(len(chain))
        return chain
    return read


def restore(ledger, keep=(), reads=None) -> Ledger:
    """The ledger restored from its checkpoint, with a reader of its
    canonical chain as it is now."""
    return Ledger.from_checkpoint(ledger.checkpoint(keep),
                                  reader(list(ledger.chain), reads))


def forged(ledger, change, keep=()) -> Ledger:
    """The ledger restored from its checkpoint after `change` edits the
    parsed head and a copy of the canonical chain, stateless blocks whose
    receipt lists are copies too, that its reader returns."""
    doc = json.loads(json.dumps(ledger.checkpoint(keep)))
    blocks = [Block(blk.height, blk.timestamp, list(blk.receipts), None)
              for blk in ledger.chain]
    change(doc, blocks)
    return Ledger.from_checkpoint(doc, reader(blocks))


def edited(blocks, height, **fields) -> None:
    """Replace the first receipt of the block at `height` by one whose
    fields, or its transaction's, are set from `fields`."""
    receipt = blocks[height].receipts[0]
    tx_fields = {k: fields.pop(k) for k in list(fields)
                 if k in ("sender", "call", "fee", "signature", "nonce")}
    blocks[height].receipts[0] = dataclasses.replace(
        receipt, tx=dataclasses.replace(receipt.tx, **tx_fields), **fields)


@pytest.fixture
def ledger():
    return Ledger(initial_accounts={"a": 100, "b": 100, "adv": 100})


class WalletChain:
    """A ledger with one deployed wallet, driven by signed transactions."""

    def __init__(self):
        self.params = TreeParams(S=128, N=16, P=2, N_S=8, L_S=1)
        self.kp = signing.keygen(bytes([9]) * 32)
        self.owner = signing.account_of(self.kp.public)
        self.ledger = Ledger(initial_accounts={self.owner: 100, "acct:bob": 0})
        self.store = ClientStore.bootstrap_secure(bytes(range(16)), self.params)
        self.auth = Authenticator(bytes(range(16)), self.params,
                                  eta=self.store.eta)
        root, sublayer, proof_sr = self.store.constructor_args()
        self.submit({"fn": "deploy_wallet", "root": root, "pk": self.kp.public,
                     "sublayer": sublayer, "proof_sr": proof_sr,
                     "params": self.params})
        self.cid = self.ledger.mine_block().receipts[0].result
        self.submit({"fn": "transfer", "to": self.cid, "amount": 50})
        self.ledger.mine_block()

    def submit(self, call, sign=False):
        tx = Transaction(self.owner, call, nonce=self.ledger.next_nonce(self.owner))
        if sign:
            tx.signature = self.kp.sign(tx.signing_bytes())
        return self.ledger.submit(tx)

    def init(self, param, op_type=OpType.TRANSFER):
        return self.submit({"fn": "init_op", "contract": self.cid,
                            "addr": "acct:bob", "param": param,
                            "type": op_type}, sign=True)

    def confirm(self, op_id):
        payload = self.store.build_confirm(op_id, self.auth.get_otp(op_id))
        return self.submit({"fn": "confirm_op", "contract": self.cid,
                            "otp": payload.otp, "proof": payload.proof,
                            "op_id": op_id})


def test_fee_priority_orders_conflicting_transactions(ledger):
    # Both spend from the same pool; the higher-fee one executes first.
    ledger.accounts["pool"] = 10
    ledger.submit(Transaction("a", {"fn": "transfer", "to": "x", "amount": 60},
                              fee=1, nonce=0))
    ledger.submit(Transaction("adv", {"fn": "transfer", "to": "y", "amount": 60},
                              fee=9, nonce=0))
    ledger.accounts["a"] = 100
    blk = ledger.mine_block()
    assert [r.tx.sender for r in blk.receipts] == ["adv", "a"]
    assert blk.receipts[0].status == "ok"


def test_tie_breaks_by_submission_order(ledger):
    ledger.submit(pay("a", "x", 1, 5, 0))
    ledger.submit(pay("b", "x", 1, 5, 0))
    blk = ledger.mine_block()
    assert [r.tx.sender for r in blk.receipts] == ["a", "b"]


def test_empty_mempool_mines_empty_block(ledger):
    blk = ledger.mine_block()
    assert blk.receipts == () and blk.height == 1


def test_nonce_replay_rejected(ledger):
    tx = pay("a", "b", 5, 1, 0)
    ledger.submit(tx)
    ledger.mine_block()
    with pytest.raises(LedgerError):
        ledger.submit(pay("a", "b", 5, 1, 0))
    ledger.submit(pay("a", "b", 5, 1, 1))        # next nonce fine
    with pytest.raises(LedgerError):
        ledger.submit(pay("a", "b", 5, 1, 1))    # duplicate while pending
    with pytest.raises(LedgerError):
        ledger.submit(pay("a", "b", 5, 1, 3))    # gap


def _two_pass_refusal(ledger, tx) -> str | None:
    """The refusal text of `submit`'s nonce checks made as two passes over
    the mempool, in their order: a used nonce, a duplicate pending nonce, a
    gap past the pending count; None when it accepts."""
    expected = ledger.head.state.nonces.get(tx.sender, 0)
    pending = sum(1 for t in ledger.mempool if t.sender == tx.sender)
    if tx.nonce < expected:
        return f"nonce {tx.nonce} already used by {tx.sender} (next {expected})"
    if any(t.sender == tx.sender and t.nonce == tx.nonce
           for t in ledger.mempool):
        return f"duplicate nonce {tx.nonce} in mempool"
    if tx.nonce > expected + pending:
        return f"nonce gap for {tx.sender}: {tx.nonce}"
    return None


def test_submit_checks_nonces_in_one_pass_as_in_two(ledger):
    """Two senders interleaved in the mempool: a used nonce, a duplicate
    pending nonce and a gap each raise the two-pass check's text, in its
    order, and a refusal leaves the mempool and the counter as they were."""
    ledger.submit(pay("a", "b", 1, 1, 0))
    ledger.submit(pay("b", "a", 1, 1, 0))
    ledger.mine_block()
    for nonce in (1, 2):
        for sender in ("a", "b"):
            ledger.submit(pay(sender, "adv", 1, 1, nonce))
    # Entries that no accepted submission makes, set directly to reach
    # each precedence: a's used nonce 0, and b's nonce 5 past a gap.
    ledger.mempool.insert(1, pay("a", "adv", 1, 1, 0))
    ledger.mempool.append(pay("b", "adv", 1, 1, 5))
    outcomes = {}
    for sender in ("a", "b", "adv"):
        for nonce in range(7):
            twin, tx = ledger.copy(), pay(sender, "adv", 1, 1, nonce)
            before, seq = list(twin.mempool), twin._seq
            want = outcomes[sender, nonce] = _two_pass_refusal(twin, tx)
            if want is None:
                assert twin.submit(tx) == tx.txid
                assert twin.mempool[-1] is tx and twin._seq == seq + 1
                continue
            with pytest.raises(LedgerError) as err:
                twin.submit(tx)
            assert str(err.value) == want
            assert len(twin.mempool) == len(before)
            assert all(t is u for t, u in zip(twin.mempool, before))
            assert twin._seq == seq
    # Each refusal, and each precedence: used before duplicate, duplicate
    # before gap.
    assert outcomes["a", 0] == "nonce 0 already used by a (next 1)"
    assert outcomes["a", 1] == "duplicate nonce 1 in mempool"
    assert outcomes["b", 5] == "duplicate nonce 5 in mempool"
    assert outcomes["b", 6] == "nonce gap for b: 6"
    assert outcomes["adv", 1] == "nonce gap for adv: 1"
    assert outcomes["adv", 0] is None and outcomes["a", 3] is None


def test_reverted_tx_still_consumes_its_nonce(ledger):
    ledger.submit(pay("a", "b", 1000, 1, 0))     # more than a has
    blk = ledger.mine_block()
    assert blk.receipts[0].status == "revert:funds"
    assert ledger.head.state.nonces["a"] == 1
    assert ledger.accounts["a"] == 100           # rolled back


def test_timestamps_advance_by_delta(ledger):
    t0 = ledger.head.timestamp
    ledger.mine_block()
    assert ledger.head.timestamp == t0 + 15
    ledger.mine_block(100)
    assert ledger.head.timestamp == t0 + 115
    ledger.mine_block(15 + 1000)
    assert ledger.head.timestamp == t0 + 115 + 15 + 1000
    branch = ledger.fork(1)
    assert ledger.mine_block(7, branch).timestamp == t0 + 15 + 7


def test_confirmations_count_blocks_on_top(ledger):
    txid = ledger.submit(pay("a", "b", 1, 1, 0))
    ledger.mine_block()
    assert ledger.confirmations(txid) == 0
    for _ in range(12):
        ledger.mine_block()
    assert ledger.confirmations(txid) == 12
    assert ledger.confirmations("nonexistent") is None


def test_fork_and_reorg_drop_and_return_transactions(ledger):
    tx = pay("a", "b", 5, 1, 0)
    txid = ledger.submit(tx)
    ledger.mine_block()
    assert ledger.accounts["b"] == 105
    branch = ledger.fork(0)
    ledger.mine_block(branch=branch)
    ledger.mine_block(branch=branch)
    ledger.reorg(branch)
    assert ledger.confirmations(txid) is None
    assert ledger.accounts["b"] == 100           # state follows the branch
    assert ledger.mempool == [tx] and ledger.mempool[0] is tx
    ledger.mine_block()
    assert ledger.confirmations(txid) == 0
    assert ledger.accounts["b"] == 105


def test_reorg_to_shorter_branch_refused(ledger):
    ledger.mine_block()
    ledger.mine_block()
    branch = ledger.fork(1)
    with pytest.raises(LedgerError):
        ledger.reorg(branch)


def test_fork_with_no_new_txs_restores_forked_state(ledger):
    ledger.submit(pay("a", "b", 5, 1, 0))
    ledger.mine_block()                          # height 1 carries the tx
    snapshot = dict(ledger.accounts)
    ledger.mine_block()                          # height 2, empty
    branch = ledger.fork(1)
    ledger.mine_block(branch=branch)
    ledger.mine_block(branch=branch)
    ledger.reorg(branch)
    assert ledger.accounts == snapshot


def test_conservation_across_blocks_and_reorgs(ledger):
    total = ledger.total_tokens()
    ledger.submit(pay("a", "b", 30, 2, 0))
    ledger.mine_block()
    branch = ledger.fork(0)
    ledger.mine_block(branch=branch)
    ledger.mine_block(branch=branch)
    ledger.reorg(branch)
    ledger.mine_block()
    assert ledger.total_tokens() == total


def test_observer_sees_submissions_and_can_front_run(ledger):
    seen = []

    def observer(tx):
        seen.append(tx.txid)
        if tx.sender == "a":
            ledger.submit(pay("adv", "x", 1, 99, 0))

    ledger.observers.append(observer)
    ledger.submit(pay("a", "y", 1, 1, 0))
    blk = ledger.mine_block()
    assert len(seen) == 1                        # no recursive observation
    assert [r.tx.sender for r in blk.receipts] == ["adv", "a"]


def test_deterministic_replay_produces_identical_state_hash():
    def drive():
        led = Ledger(initial_accounts={"a": 50, "b": 0})
        led.submit(pay("a", "b", 10, 3, 0))
        led.mine_block()
        branch = led.fork(0)
        led.mine_block(branch=branch)
        led.mine_block(branch=branch)
        led.reorg(branch)
        led.mine_block(42)
        return led.state_hash(), "\n".join(led.event_log())

    assert drive() == drive()


def test_payload_size_rules():
    """Selector 4, account id 20, integer 4, enum tag 1, parameters 0,
    bytes and digests by length, a sublayer's index 4."""
    d, cid = bytes(16), "c" * 32
    proof = MerkleProof((d, d))
    layer = SubtreeLayer([d, d], 1)
    calls = [
        ({"fn": "transfer", "to": "acct:bob", "amount": 5}, 4 + 20 + 4),
        ({"fn": "deploy_wallet", "root": d, "pk": bytes(32), "sublayer": layer,
          "proof_sr": proof, "params": TreeParams()},
         4 + 16 + 32 + 36 + 32 + 0),
        ({"fn": "init_op", "contract": cid, "addr": "acct:bob", "param": 7,
          "type": OpType.TRANSFER}, 4 + 20 + 20 + 4 + 1),
        ({"fn": "confirm_op", "contract": cid, "otp": d, "proof": proof,
          "op_id": 3}, 4 + 20 + 16 + 32 + 4),
        ({"fn": "next_subtree", "contract": cid, "sublayer": layer, "otp": d,
          "proof_otp": MerkleProof((d,) * 4), "proof_sr": proof},
         4 + 20 + 36 + 16 + 64 + 32),
        ({"fn": "new_root_stage1", "contract": cid, "value": d}, 4 + 20 + 16),
        ({"fn": "new_root_stage2", "contract": cid, "value": bytes(32)},
         4 + 20 + 32),
        ({"fn": "new_root_stage3", "contract": cid, "otp": d, "proof": proof,
          "sublayer": layer, "proof_sr": MerkleProof(())},
         4 + 20 + 16 + 32 + 36 + 0),
        ({"fn": "send_to_last_resort", "contract": cid}, 4 + 20),
    ]
    assert sorted(call["fn"] for call, _ in calls) == sorted(CALL_ARGS)
    assert [payload_size(call) for call, _ in calls] == [n for _, n in calls]


def test_signature_audit_flags_a_tampered_record():
    w = WalletChain()
    w.init(1)
    w.ledger.mine_block()
    assert w.ledger.audit_signatures() == []
    # Doctor the recorded transaction; the post-run checker must notice.
    w.ledger.chain[-1].receipts[0].tx.signature = bytes(64)
    assert w.ledger.audit_signatures() != []


def count_verifies(monkeypatch) -> list:
    """Every real signature check, counted through the module attribute the
    ledger looks up at call time."""
    calls, real = [], signing.verify
    monkeypatch.setattr(signing, "verify",
                        lambda *args: (calls.append(1), real(*args))[1])
    return calls


def test_each_owner_signature_is_verified_once(monkeypatch):
    w = WalletChain()
    calls = count_verifies(monkeypatch)
    for param in (1, 2, 3):
        w.init(param)
    w.ledger.mine_block()
    assert [r.status for r in w.ledger.chain[-1].receipts] == ["ok"] * 3
    assert len(calls) == 3
    for _ in range(2):
        assert w.ledger.audit_signatures() == []
    assert len(calls) == 3


def init_tx(w) -> Transaction:
    """The owner's next init_op, unsigned."""
    return Transaction(w.owner, {"fn": "init_op", "contract": w.cid,
                                 "addr": "acct:bob", "param": 1,
                                 "type": OpType.TRANSFER},
                       nonce=w.ledger.next_nonce(w.owner))


@pytest.mark.parametrize("signed, verifies", [(True, 1), (False, 2)])
def test_a_reorg_reverifies_only_a_signature_that_failed(monkeypatch, signed,
                                                         verifies):
    """A reorg re-executes the orphaned init; a failed verify is not
    remembered, so a bad signature is checked again."""
    w = WalletChain()
    calls = count_verifies(monkeypatch)
    tx = init_tx(w)
    tx.signature = w.kp.sign(tx.signing_bytes()) if signed else bytes(64)
    w.ledger.submit(tx)
    first = w.ledger.mine_block().receipts[0].status
    assert first == ("ok" if signed else "revert:signature")
    branch = w.ledger.fork(w.ledger.head.height - 1)
    w.ledger.mine_block(branch=branch)
    w.ledger.mine_block(branch=branch)
    w.ledger.reorg(branch)
    assert w.ledger.mempool == [tx]
    assert w.ledger.mine_block().receipts[0].status == first
    assert w.ledger.audit_signatures() == []
    assert len(calls) == verifies


@pytest.mark.parametrize("tamper", ["other-call", "other-key"])
def test_signature_audit_flags_a_receipt_that_does_not_verify(tamper):
    """A signature that verified for its own transaction proves nothing for
    another call or another key."""
    w = WalletChain()
    w.init(1)
    w.ledger.mine_block()
    assert w.ledger.audit_signatures() == []
    receipt = w.ledger.chain[-1].receipts[0]
    if tamper == "other-call":
        receipt.tx = Transaction(w.owner, {**receipt.tx.call, "param": 2},
                                 nonce=receipt.tx.nonce,
                                 signature=receipt.tx.signature)
    else:
        receipt.tx.signature = signing.keygen(bytes([8]) * 32).sign(
            receipt.tx.signing_bytes())
    assert w.ledger.audit_signatures() == [
        f"{receipt.txid}: signature does not verify"]


def test_a_restored_ledger_verifies_every_archived_signature(monkeypatch):
    w = WalletChain()
    for param in (1, 2):
        w.init(param)
        w.ledger.mine_block()
    calls = count_verifies(monkeypatch)
    restored = restore(w.ledger)
    assert restored.audit_signatures() == []
    assert len(calls) == 2
    # A signature swapped in the chain read below the head changes its
    # block's digest, so the read fails.
    swapped = forged(w.ledger, lambda head, blocks: edited(
        blocks, 3, signature=bytes(64)))
    assert swapped.state_hash() == w.ledger.state_hash()
    with pytest.raises(LedgerError):
        swapped.audit_signatures()
    assert len(calls) == 2


def test_a_call_that_is_not_an_object_is_a_ledger_error(ledger):
    ledger.submit(pay("a", "b", 5, 1, 0))
    ledger.mine_block()
    with pytest.raises(LedgerError):
        ledger.submit(Transaction("a", 5, nonce=1))
    restored = forged(ledger, lambda head, blocks: edited(
        blocks, 1, call=5))                         # the call read back
    for read in (restored.event_log, restored.audit_signatures):
        with pytest.raises(LedgerError):
            read()


def test_a_signature_that_is_not_bytes_reverts():
    w = WalletChain()
    tx = init_tx(w)
    tx.signature = "00" * 64
    w.ledger.submit(tx)
    assert w.ledger.mine_block().receipts[0].status == "revert:signature"


def test_canonical_tx_text_is_frozen():
    # The signed text is a wire format; keep it pinned.
    tx = Transaction("acct:a", {"fn": "init_op", "contract": "cc",
                                "addr": "acct:b", "param": 7,
                                "type": OpType.TRANSFER},
                     fee=2, nonce=1)
    assert tx.signing_bytes() == (
        b'["acct:a",1,2,{"addr":"acct:b","contract":"cc","fn":"init_op",'
        b'"param":7,"type":"transfer"}]')


def test_calls_that_differ_only_in_key_order_share_a_txid():
    call = {"fn": "init_op", "contract": "cc", "addr": "acct:b", "param": 7,
            "type": OpType.TRANSFER}
    reordered = dict(reversed(call.items()))
    assert list(reordered) != list(call)
    txs = [Transaction("acct:a", c, fee=2, nonce=1) for c in (call, reordered)]
    assert txs[0].signing_bytes() == txs[1].signing_bytes()
    assert txs[0].txid == txs[1].txid
    assert Transaction("acct:a", call, fee=3, nonce=1).txid != txs[0].txid


def test_a_signed_init_repriced_after_signing_reverts():
    """The fee is signed: a relay that raises it voids the signature."""
    w = WalletChain()
    signed = init_tx(w)
    signed.fee = 1
    signed.signature = w.kp.sign(signed.signing_bytes())
    repriced = Transaction(signed.sender, signed.call, 60, signed.signature,
                           signed.nonce)
    assert repriced.txid != signed.txid
    w.ledger.submit(repriced)
    assert w.ledger.mine_block().receipts[0].status == "revert:signature"


# -- history isolation: blocks share state but never see later changes -------

def block_view(blk, cid):
    contract = blk.state.contracts[cid]
    return (dict(blk.state.accounts), dict(blk.state.nonces),
            contract.state_lines(),
            {i: r.pending for i, r in contract.operations.items()})


def test_later_blocks_and_forks_leave_earlier_block_state_unchanged():
    w = WalletChain()
    led = w.ledger
    w.init(5)
    init_block = led.mine_block()
    led.mine_block()
    views = {blk.height: block_view(blk, w.cid) for blk in led.chain[1:]}
    assert views[init_block.height][3] == {0: True}

    # Confirm on a branch from the init block: main must not see it.
    branch = led.fork(init_block.height)
    w.confirm(0)
    fork_head = led.mine_block(branch=branch)
    fork_view = block_view(fork_head, w.cid)
    assert fork_view[3] == {0: False}
    for blk in led.chain[1:]:
        assert block_view(blk, w.cid) == views[blk.height]

    # Confirm on main too, then keep mining: history stays as recorded.
    w.confirm(0)
    led.mine_block()
    for _ in range(3):
        led.mine_block()
    assert not led.contract(w.cid).operations[0].pending
    assert led.accounts["acct:bob"] == 5
    for blk in led.chain[1:init_block.height + 2]:
        assert block_view(blk, w.cid) == views[blk.height]
    assert block_view(fork_head, w.cid) == fork_view


def test_reverted_contract_call_restores_contract_and_accounts_exactly():
    w = WalletChain()
    led = w.ledger
    w.init(3, OpType.SET_DAILY_LIMIT)
    led.mine_block()
    w.confirm(0)
    led.mine_block()
    w.init(5)                                    # above the daily limit
    led.mine_block()
    before = led.head
    lines, accounts = led.contract(w.cid).state_lines(), dict(led.accounts)

    # A new day: confirm_op rolls the day index over, then reverts on the
    # limit; the rollover must not survive the revert.
    w.confirm(1)
    blk = led.mine_block(86400)
    assert blk.receipts[0].status == "revert:daily-limit"
    assert led.contract(w.cid).state_lines() == lines
    assert led.accounts == accounts
    assert led.head.state.nonces[w.owner] == before.state.nonces[w.owner] + 1
    # Nothing was copied that survives the revert: the block shares the
    # parent's contract object.
    assert led.contract(w.cid) is before.state.contracts[w.cid]


def state_record(blk):
    """A block's accounts, nonces and contract state lines, copied."""
    state = blk.state
    return (dict(state.accounts), dict(state.nonces),
            {cid: c.state_lines() for cid, c in state.contracts.items()})


def test_no_mined_block_state_is_written_in_place():
    w = WalletChain()
    led = w.ledger
    records = [(blk, state_record(blk)) for blk in led.chain]

    def mine(**kwargs):
        blk = led.mine_block(**kwargs)
        records.append((blk, state_record(blk)))
        return blk

    w.submit({"fn": "transfer", "to": "acct:bob", "amount": 3})
    mine()
    mine()
    w.init(5)
    mine()
    mine()
    w.confirm(0)
    assert mine().receipts[0].status == "ok"
    w.submit({"fn": "transfer", "to": "acct:bob", "amount": 10 ** 6})
    assert mine().receipts[0].status == "revert:funds"
    nonce = led.next_nonce(w.owner)
    led.submit(pay(w.owner, "acct:bob", 1, 1, nonce))
    led.submit(pay(w.owner, "acct:bob", 1, 5, nonce + 1))
    assert [r.status for r in mine().receipts] == ["invalid-nonce", "ok"]
    # A fork from before the confirm grows longer, with a transfer of its
    # own, and takes over; the orphaned transactions are mined again.
    branch = led.fork(records[4][0].height)
    led.submit(pay("acct:bob", w.owner, 2, 1, 0))
    assert mine(branch=branch).receipts[0].status == "ok"
    for _ in range(5):
        mine(branch=branch)
    led.reorg(branch)
    w.init(1)
    mine()
    mine()

    for blk, record in records:
        assert state_record(blk) == record
    empty = 0
    for chain in led.branches.values():
        for parent, blk in zip(chain, chain[1:]):
            if not blk.receipts:
                assert blk.state is parent.state
                empty += 1
            else:
                assert blk.state is not parent.state
    assert empty >= 6


def test_a_call_copies_only_the_maps_it_can_write():
    """A plain transfer writes no contract and an `init_op` moves no
    balance, so each block keeps its parent's map of the other kind."""
    w = WalletChain()
    led = w.ledger
    parent = led.head
    w.submit({"fn": "transfer", "to": "acct:bob", "amount": 3})
    transfer = led.mine_block()
    assert transfer.state.contracts is parent.state.contracts
    assert transfer.state.accounts is not parent.state.accounts
    w.init(5)
    init = led.mine_block()
    assert init.receipts[0].status == "ok"
    assert init.state.accounts is transfer.state.accounts
    assert init.state.contracts is not transfer.state.contracts


def scan_chain(led, txid):
    """Reference lookup: the first executed receipt on the canonical chain."""
    for blk in led.chain:
        for r in blk.receipts:
            if r.txid == txid and r.status != "invalid-nonce":
                return led.head.height - blk.height, r
    return None, None


def test_index_lookups_agree_with_a_chain_scan_across_fork_and_reorg(ledger):
    txids = []

    def check():
        for txid in txids + ["missing"]:
            confs, receipt = scan_chain(ledger, txid)
            assert ledger.confirmations(txid) == confs
            assert ledger.receipt(txid) is receipt

    # a:1 outbids a:0, so it is first executed with a wrong nonce.
    txids.append(ledger.submit(pay("a", "b", 1, 1, 0)))
    late = pay("a", "b", 2, 9, 1)
    txids.append(ledger.submit(late))
    blk = ledger.mine_block()
    assert [r.status for r in blk.receipts] == ["invalid-nonce", "ok"]
    check()
    ledger.submit(Transaction(late.sender, late.call, late.fee, nonce=late.nonce))
    ledger.mine_block()
    txids.append(ledger.submit(pay("b", "a", 3, 1, 0)))
    ledger.mine_block()
    ledger.mine_block()
    check()

    branch = ledger.fork(1)
    txids.append(ledger.submit(pay("adv", "a", 4, 1, 0)))
    for _ in range(4):
        ledger.mine_block(branch=branch)
    check()                                      # main is still canonical
    ledger.reorg(branch)
    check()                                      # a:1 and b:0 orphaned
    assert ledger.confirmations(txids[1]) is None
    ledger.mine_block()                          # re-mined on the new chain
    ledger.mine_block()
    check()
    assert ledger.confirmations(txids[1]) == 1


def test_txid_is_hashed_once_per_transaction(ledger, monkeypatch):
    import otpwallet.ledger as ledger_mod

    calls = []
    real = ledger_mod.truncated_hash

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ledger_mod, "truncated_hash", counting)
    tx = pay("a", "b", 1, 1, 0)
    txid = tx.txid
    assert tx.txid == txid
    ledger.submit(tx)
    ledger.submit(pay("b", "a", 1, 1, 0))
    for _ in range(3):
        ledger.mine_block()
        ledger.confirmations(txid)
    assert ledger.receipt(txid).txid == txid
    assert len(calls) == 2


def test_signed_bytes_are_built_once_per_transaction(monkeypatch):
    import otpwallet.ledger as ledger_mod

    w = WalletChain()
    calls = []
    real = ledger_mod.encode_call
    monkeypatch.setattr(ledger_mod, "encode_call",
                        lambda call: (calls.append(1), real(call))[1])
    # Signed, hashed into the txid, handed to the contract, audited, hashed
    # into the block digest and written to a checkpoint.
    w.init(1)
    w.ledger.mine_block()
    assert w.ledger.chain[-1].receipts[0].status == "ok"
    assert w.ledger.audit_signatures() == []
    w.ledger.state_hash()
    w.ledger.checkpoint()
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(8))
def test_cached_lines_and_entries_match_a_fresh_encoding(seed):
    """Mine, fork, reorg and restore at random; the state hash, the
    entries and the checkpoint head, built from the blocks' caches and
    digests, always equal a reference built from scratch. A restored
    ledger leaves the chain below its head unread while it mines and
    checkpoints, and looks up its kept txids, until a fork reads it."""
    rng = random.Random(seed)
    ledger = Ledger(initial_accounts={"a": 50, "b": 50, "adv": 50})
    low = 0                     # no state below a restored head
    unread = False              # a restored chain not read yet
    moves = ["submit"] * 3 + ["mine"] * 3 + ["fork", "reorg", "restore"]
    # A random run, then a fixed tail: restore, fork at the restored head,
    # outgrow main on the branch and reorg to it.
    tail = ["submit", "mine", "restore", "mine", "submit", "fork-low",
            "submit", "mine-branch", "mine-branch", "reorg", "mine"]
    for move in [rng.choice(moves) for _ in range(60)] + tail:
        # The txids of the head block, as the reference reads it.
        keep = [r.txid for r in reference_chain(ledger)[-1].receipts
                if r.status != "invalid-nonce"]
        if move == "fork-low":
            branch = ledger.fork(low)
            unread = False
        elif move == "mine-branch":
            ledger.mine_block(branch=branch)
        elif move == "submit":
            sender = rng.choice(["a", "b", "adv"])
            ledger.submit(pay(sender, rng.choice(["a", "b", "c"]),
                              rng.randint(0, 40), rng.randint(0, 3),
                              ledger.next_nonce(sender)))
        elif move == "mine":
            ledger.mine_block(rng.choice([None, 7]),
                              rng.choice(sorted(ledger.branches)))
        elif move == "fork" and ledger.head.height > low:
            ledger.fork(rng.randint(low, ledger.head.height - 1))
            unread = False
        elif move == "reorg":
            longer = sorted(name for name, chain in ledger.branches.items()
                            if chain[-1].height > ledger.head.height)
            if longer:
                ledger.reorg(rng.choice(longer))
        elif move == "restore" and not ledger.mempool:
            ledger = Ledger.from_checkpoint(
                ledger.checkpoint(keep), reader(list(reference_chain(ledger))))
            low, unread = ledger.head.height, True
        assert ledger.state_hash() == reference_state_hash(ledger)
        if not ledger.mempool:
            assert json.dumps(ledger.checkpoint(keep), separators=(",", ":")
                              ) == reference_head(ledger, keep)
        assert (ledger._below is not None) == unread
    assert ledger.canonical == branch and ledger.head.height > low + 1
    assert [blk.height for blk in ledger.chain] == list(
        range(ledger.head.height + 1))
    assert [blk.entry().encode() for blk in ledger.chain] == (
        reference_entries(ledger).splitlines())


def test_decoding_an_archive_checks_its_digest_and_index(ledger):
    """The chain that a reader returns below a restored head, which the
    block archive held before the action log replaced it, is checked
    against the head's digest and txid index."""
    txids = [ledger.submit(pay("a", "b", 5, 1, 0)),
             ledger.submit(pay("b", "a", 1, 2, 0))]
    ledger.mine_block()
    ledger.mine_block()

    restored = restore(ledger, keep=txids)
    assert [restored.confirmations(t) for t in txids] == [1, 1]
    assert restored.event_log() == ledger.event_log()
    assert restored.receipt(txids[0]).txid == txids[0]

    def damaged(read):
        return Ledger.from_checkpoint(ledger.checkpoint(txids), read)

    def unreadable():
        raise LedgerError("the action log does not replay")

    def later(blocks):
        blocks[2] = Block(2, blocks[2].timestamp + 1, [], None)

    other = Ledger(initial_accounts={"a": 100, "b": 100, "adv": 100})
    other.submit(pay("a", "b", 6, 1, 0))
    other.mine_block()
    other.mine_block()
    for bad in [forged(ledger, change, txids) for change in (
        lambda h, b: h["index"].update({txids[1]: 2}),         # a kept height
        lambda h, b: h["index"].update(f00d=1),                 # a kept txid
        lambda h, b: edited(b, 1, sender="adv"),
        lambda h, b: edited(b, 1, nonce=1),
        lambda h, b: edited(b, 1, fee=7),
        lambda h, b: edited(b, 1, call={**b[1].receipts[0].tx.call,
                                        "amount": 6}),
        lambda h, b: edited(b, 1, status="revert:funds"),
        lambda h, b: edited(b, 1, result="edited"),
        lambda h, b: edited(b, 1, signature=bytes(64)),
        lambda h, b: later(b),                                  # a timestamp
        lambda h, b: b.pop(),                                   # the base block
        lambda h, b: b.clear(),                                 # no block
        lambda h, b: h.update(digest="00" * 16),
    )] + [damaged(reader(list(other.chain))),                   # another chain
          damaged(unreadable)]:
        bad.mine_block()
        for _ in range(2):          # a failed read leaves it unread
            with pytest.raises(LedgerError):
                bad.event_log()
        with pytest.raises(LedgerError):
            bad.fork(bad.head.height - 1)


def test_a_checkpoint_head_in_another_layout_is_a_ledger_error(ledger):
    """The older layout, which held the block entries as a `blocks` array
    after the head, a head without its index, and objects that are not a
    head at all: a list, and the checkpoint file's digest that an older
    head held."""
    ledger.submit(pay("a", "b", 5, 1, 0))
    ledger.mine_block()
    head = ledger.checkpoint()
    entries = [json.loads(line) for line in reference_entries(ledger).splitlines()]
    unindexed = {key: value for key, value in head.items() if key != "index"}
    for doc in ({"head": head, "blocks": entries}, [], unindexed, "00" * 32):
        with pytest.raises(LedgerError):
            Ledger.from_checkpoint(doc, reader(list(ledger.chain)))


def test_an_index_miss_decodes_the_archive_unless_the_tx_is_pending():
    """On a restored ledger, a kept txid, a txid in the mempool and one
    mined since the restore read nothing below the head. Any other txid
    calls the chain reader once, and then each answers as on the ledger
    that was never restored."""
    w = WalletChain()
    deploy = w.ledger.chain[1].receipts[0].txid
    inits = [w.init(param) for param in (1, 2)]
    w.ledger.mine_block()
    w.ledger.mine_block()
    height = w.ledger.head.height
    reads = []
    restored = restore(w.ledger, keep=inits[:1], reads=reads)
    for ledger in (w.ledger, restored):
        pending = ledger.submit(Transaction(
            w.owner, {"fn": "transfer", "to": "acct:bob", "amount": 1},
            nonce=ledger.next_nonce(w.owner)))
        assert ledger.confirmations(pending) is None
        assert ledger.receipt(pending) is None
    assert reads == []
    for ledger in (w.ledger, restored):
        ledger.mine_block()
    for txid in (inits[0], pending):
        assert restored.confirmations(txid) == w.ledger.confirmations(txid)
    assert restored.receipt(pending).status == "ok" and reads == []
    for txid in (inits[1], deploy, "f00d"):
        assert restored.confirmations(txid) == w.ledger.confirmations(txid)
        assert reads == [height + 1]
    for txid in (*inits, deploy, pending):
        mine, theirs = restored.receipt(txid), w.ledger.receipt(txid)
        assert (mine.txid, mine.status, mine.result) == (
            theirs.txid, theirs.status, theirs.result)
    assert reads == [height + 1]


def resized(d, size):
    """`d` cut or zero-padded to `size` bytes, keeping its parity bit."""
    return with_lsb((d + bytes(size))[:size], lsb(d)) if size else b""


@pytest.mark.parametrize("size", [0, 8, 40])
def test_wrong_size_digests_revert_without_halting_the_chain(size):
    w = WalletChain()
    led = w.ledger
    for _ in range(w.params.N_S - 1):            # up to the subtree boundary
        w.init(1)
    led.mine_block()
    tokens = led.total_tokens()
    sub_op = led.contract(w.cid).next_op_id
    good = w.store.build_next_subtree(sub_op, w.auth.get_otp(sub_op))
    confirm = w.store.build_confirm(0, w.auth.get_otp(0))
    root, sublayer, proof_sr = w.store.constructor_args()

    def bad_proof(proof):
        return MerkleProof(tuple(resized(s, size) for s in proof.siblings))

    def bad_layer(layer):
        return SubtreeLayer([resized(layer.nodes[0], size)] + layer.nodes[1:],
                            layer.index)

    def next_subtree(sublayer, proof_otp):
        return {"fn": "next_subtree", "contract": w.cid, "sublayer": sublayer,
                "otp": good.otp, "proof_otp": proof_otp,
                "proof_sr": good.proof_sr}

    def deploy(sublayer, proof_sr):
        return {"fn": "deploy_wallet", "root": root, "pk": w.kp.public,
                "sublayer": sublayer, "proof_sr": proof_sr,
                "params": w.params}

    calls = [
        ({"fn": "confirm_op", "contract": w.cid, "otp": confirm.otp,
          "proof": bad_proof(confirm.proof), "op_id": 0}, "revert:otp"),
        (next_subtree(good.next_sublayer, bad_proof(good.proof_otp)),
         "revert:otp"),
        (next_subtree(bad_layer(good.next_sublayer), good.proof_otp),
         "revert:consistency"),
        (deploy(bad_layer(sublayer), proof_sr), "revert:consistency"),
        (deploy(sublayer, bad_proof(proof_sr)), "revert:consistency"),
    ]
    # Any account may send these; none of them is signed.
    for nonce, (call, _) in enumerate(calls):
        led.submit(Transaction("acct:bob", call, nonce=nonce))
    blk = led.mine_block()
    assert [r.status for r in blk.receipts] == [want for _, want in calls]
    assert led.head is blk
    assert led.total_tokens() == tokens
    assert led.contract(w.cid).next_op_id == sub_op


def test_a_replayed_deploy_reverts_and_leaves_the_spent_otps_spent():
    """Anyone can resubmit the owner's public `deploy_wallet` call. It must
    not reset the contract: otherwise a key thief inits an operation at
    id 0 again and confirms it with op 0's OTP and proof, which the chain
    already shows."""
    w = WalletChain()
    led = w.ledger
    w.init(5)
    led.mine_block()
    w.confirm(0)
    confirmed = led.mine_block().receipts[0]
    assert confirmed.status == "ok"
    deploy = led.chain[1].receipts[0].tx.call
    led.submit(Transaction("adv", deploy, nonce=0))
    assert led.mine_block().receipts[0].status == "revert:phase"
    # The thief holds the owner key, and copies the confirm from the chain.
    w.submit({"fn": "init_op", "contract": w.cid, "addr": "adv", "param": 40,
              "type": OpType.TRANSFER}, sign=True)
    led.mine_block()
    led.submit(Transaction("adv", confirmed.tx.call, nonce=1))
    assert led.mine_block().receipts[0].status == "revert:pending"
    assert led.accounts.get("adv", 0) == 0
    assert led.contract(w.cid).operations[1].pending


def test_a_front_run_sublayer_one_level_up_reverts():
    """`next_subtree` is unsigned. A front-runner who copies the honest
    call's OTP and proofs but sends the level above the honest sublayer,
    half its nodes, reduces to the same subtree root; the size check alone
    refuses it, and the honest call lands."""
    w = WalletChain()
    led = w.ledger
    for _ in range(w.params.N_S - 1):            # up to the subtree boundary
        w.init(1)
    led.mine_block()
    sub_op = led.contract(w.cid).next_op_id
    good = w.store.build_next_subtree(sub_op, w.auth.get_otp(sub_op))
    honest = {"fn": "next_subtree", "contract": w.cid,
              "sublayer": good.next_sublayer, "otp": good.otp,
              "proof_otp": good.proof_otp, "proof_sr": good.proof_sr}
    w.submit(honest)
    up = build_levels(good.next_sublayer.nodes)[1]
    assert len(up) == len(good.next_sublayer.nodes) // 2
    led.submit(Transaction("acct:bob", {
        **honest, "sublayer": SubtreeLayer(up, good.next_sublayer.index)},
        fee=60, nonce=0))
    blk = led.mine_block()
    assert [r.tx.sender for r in blk.receipts] == ["acct:bob", w.owner]
    assert [r.status for r in blk.receipts] == ["revert:consistency", "ok"]
    assert led.contract(w.cid).sublayer.nodes == good.next_sublayer.nodes


def test_malformed_calls_revert_without_halting_the_chain():
    """A signed call that lacks a key of its schema, or carries one it has
    not, is refused at submit; a well-formed call the contract rejects
    reverts. Neither halts the chain."""
    w = WalletChain()
    led = w.ledger
    tokens = led.total_tokens()
    for call in [
        {"fn": "transfer", "amount": 1},
        {"fn": "transfer", "to": "b", "amount": 1, "contract": w.cid},
        {"fn": "init_op", "contract": w.cid, "addr": "acct:bob",
         "type": OpType.TRANSFER},
        {"fn": "send_to_last_resort"},
    ]:
        with pytest.raises(LedgerError):
            w.submit(call, sign=True)
        assert led.mempool == []
    w.submit({"fn": "send_to_last_resort", "contract": w.cid}, sign=True)
    blk = led.mine_block()
    assert [r.status for r in blk.receipts] == ["revert:timeout"]
    assert led.head is blk and not led.mempool
    assert led.total_tokens() == tokens
    assert led.mine_block().height == blk.height + 1


def test_submit_refuses_a_call_without_a_function(ledger):
    with pytest.raises(LedgerError):
        ledger.submit(Transaction("a", {"to": "b", "amount": 1}, nonce=0))
    assert ledger.mempool == []
    assert ledger.mine_block().receipts == ()


def test_submit_refuses_mistyped_calls():
    """A call whose values have other types, or whose keys are not its
    schema's, does not encode. It never reaches the mempool, so it can
    neither halt the chain nor keep it from being checkpointed."""
    w = WalletChain()
    led = w.ledger
    confirm = w.store.build_confirm(0, w.auth.get_otp(0))

    def confirm_op(**change):
        return {"fn": "confirm_op", "contract": w.cid, "otp": confirm.otp,
                "proof": confirm.proof, "op_id": 0, **change}

    calls = [
        {"fn": "bogus"},
        {"fn": ["transfer"], "to": "b", "amount": 1},
        {"fn": "transfer", "to": "b", "amount": "1"},
        {"fn": "transfer", "to": "b", "amount": True},
        {"fn": "transfer", "to": "b", "amount": 1, "memo": "x"},
        {"fn": "init_op", "contract": w.cid, "addr": "acct:bob",
         "param": "1", "type": OpType.TRANSFER},
        confirm_op(op_id="0"),
        confirm_op(otp=confirm.otp.hex()),
        confirm_op(proof=list(confirm.proof.siblings)),
        confirm_op(proof=MerkleProof(("00",))),
        confirm_op(contract=[w.cid]),
        {"fn": "next_subtree", "contract": w.cid,
         "sublayer": SubtreeLayer([bytes(16)], b"0")},
    ]
    height = led.head.height
    for call in calls:
        with pytest.raises(LedgerError):
            led.submit(Transaction(w.owner, call,
                                   nonce=led.next_nonce(w.owner)))
        assert led.mempool == []
    assert led.mine_block().height == height + 1
    assert led.head.receipts == ()


ARGUMENT_VALUES = st.sampled_from(
    [0, 1, -1, True, "acct:bob", "00", b"", bytes(16), None, [1],
     OpType.TRANSFER, MerkleProof(()), SubtreeLayer([bytes(16)], 0)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(sorted(CALL_ARGS) + ["bogus"]),
    st.one_of(
        st.dictionaries(st.sampled_from(["to", "amount", "addr", "param",
                                         "type", "otp", "op_id", "value",
                                         "contract", "memo"]),
                        ARGUMENT_VALUES, max_size=4),
        st.sampled_from([{"fn": "transfer", "to": "acct:bob", "amount": 1},
                         {"fn": "init_op", "contract": "", "addr": "acct:bob",
                          "param": 1, "type": OpType.TRANSFER},
                         {"fn": "new_root_stage1", "contract": "",
                          "value": bytes(16)},
                         {"fn": "send_to_last_resort", "contract": ""}])),
    st.integers(0, 3), st.sampled_from([None, "owner", "text"])),
    max_size=12))
def test_every_accepted_transaction_checkpoints_and_restores(txs):
    """Whatever `submit` accepts, ok or reverted, is written to a checkpoint
    and restores from it, reading back the same chain. A signature that is
    not bytes counts as none, on chain and in the chained digest."""
    w = WalletChain()
    led = w.ledger
    for fn, args, fee, sign in txs:
        call = {"fn": fn, **args}
        if "contract" in args and type(args["contract"]) is str:
            call["contract"] = w.cid
        tx = Transaction(w.owner, call, fee, nonce=led.next_nonce(w.owner))
        try:
            if sign == "owner":
                tx.signature = w.kp.sign(tx.signing_bytes())
            elif sign == "text":
                tx.signature = "00" * 64
            led.submit(tx)
        except LedgerError:
            assert tx not in led.mempool
        if fee == 0:
            led.mine_block()
    led.mine_block()
    restored = restore(led)
    assert restored.state_hash() == led.state_hash()
    assert restored.event_log() == led.event_log()
    assert restored.audit_signatures() == led.audit_signatures() == []


# -- chained digests ------------------------------------------------------------


def _scenario_ledger(monkeypatch, name: str, seed: int) -> Ledger:
    """The ledger a scenario finishes on, with every block it digests
    hashed during the run: the kept bootstraps are dropped first."""
    scenarios._pristine.cache_clear()
    kept, finish = [], scenarios._finish
    monkeypatch.setattr(scenarios, "_finish", lambda result, system, baseline:
                        finish(result, kept.append(system) or system, baseline))
    assert scenarios.run_scenario(name, seed).passed
    return kept[-1].ledger


def _assert_digests_match(ledger) -> list:
    """Every cached digest on every branch is the reference's; returns the
    distinct digested blocks."""
    digested = {}
    for chain in ledger.branches.values():
        for blk, digest in zip(chain, reference_digests(chain)):
            assert blk._digest in (None, digest)
            if blk._digest is not None:
                digested[id(blk)] = blk
    assert all(blk._digest is not None for blk in ledger.chain)
    return list(digested.values())


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["fork-replay", "depletion"])
def test_every_cached_digest_matches_a_reference_hashed_once(
        monkeypatch, name, seed):
    """A forked and reorganised chain, and one whose root rotates: each
    block's digest is H(parent digest || entry), an empty block's entry
    its timestamp text, and each block is hashed once."""
    hashed = block_hashes(monkeypatch)
    ledger = _scenario_ledger(monkeypatch, name, seed)
    if name == "fork-replay":
        assert len(ledger.branches) > 1 and ledger.canonical != "main"
    else:
        assert ledger.head.state.contracts[
            next(iter(ledger.head.state.contracts))].current_subtree > 0
    assert any(not blk.receipts for blk in ledger.chain)
    assert len(hashed) == len(_assert_digests_match(ledger))
    ledger.state_hash()
    assert len(hashed) == len(_assert_digests_match(ledger))


def test_a_restored_ledger_hashes_each_block_once(monkeypatch):
    """Restored from a checkpoint, the ledger hashes the blocks mined since
    the restore, and reading the chain below the head hashes each block
    up to the head once: every cached digest is the reference's."""
    ledger = _scenario_ledger(monkeypatch, "depletion", 0)
    owner = next(r.tx.sender for r in ledger.chain[1].receipts)
    if ledger.mempool:
        ledger.mine_block()
    restored = restore(ledger)
    hashed = block_hashes(monkeypatch)
    restored.submit(pay(owner, "acct:recipient", 1, 1,
                        restored.next_nonce(owner)))
    restored.mine_block()
    restored.mine_block()
    assert restored.state_hash() == reference_state_hash(restored)
    assert len(hashed) == 2
    assert len(restored.chain) == restored.head.height + 1     # reads it
    assert len(hashed) == len(restored.chain)
    assert len(_assert_digests_match(restored)) == len(restored.chain)
    restored.state_hash()
    assert len(hashed) == len(restored.chain)
