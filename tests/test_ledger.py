"""Ledger simulator: ordering, forks, confirmations, determinism."""

import pytest

from otpwallet import signing
from otpwallet.authenticator import Authenticator
from otpwallet.client import ClientStore
from otpwallet.contract import OpType
from otpwallet.ledger import (
    Ledger,
    LedgerError,
    Transaction,
    payload_size,
    run_script,
)
from otpwallet.merkle import MerkleProof, SubtreeLayer, TreeParams, lsb, with_lsb


def pay(frm, to, amount, fee, nonce):
    return Transaction(frm, {"fn": "transfer", "to": to, "amount": amount},
                       fee=fee, nonce=nonce)


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
    assert [r.sender for r in blk.receipts] == ["adv", "a"]
    assert blk.receipts[0].status == "ok"


def test_tie_breaks_by_submission_order(ledger):
    ledger.submit(pay("a", "x", 1, 5, 0))
    ledger.submit(pay("b", "x", 1, 5, 0))
    blk = ledger.mine_block()
    assert [r.sender for r in blk.receipts] == ["a", "b"]


def test_empty_mempool_mines_empty_block(ledger):
    blk = ledger.mine_block()
    assert blk.receipts == [] and blk.height == 1


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
    ledger.pending_time_skip = 1000
    ledger.mine_block()
    assert ledger.head.timestamp == t0 + 115 + 15 + 1000


def test_confirmations_count_blocks_on_top(ledger):
    txid = ledger.submit(pay("a", "b", 1, 1, 0))
    ledger.mine_block()
    assert ledger.confirmations(txid) == 0
    for _ in range(12):
        ledger.mine_block()
    assert ledger.confirmations(txid) == 12
    assert ledger.confirmations("nonexistent") is None


def test_fork_and_reorg_drop_and_return_transactions(ledger):
    txid = ledger.submit(pay("a", "b", 5, 1, 0))
    ledger.mine_block()
    assert ledger.accounts["b"] == 105
    branch = ledger.fork(0)
    ledger.mine_block(branch=branch)
    ledger.mine_block(branch=branch)
    ledger.reorg(branch)
    assert ledger.confirmations(txid) is None
    assert ledger.accounts["b"] == 100           # state follows the branch
    assert any(t.txid == txid for t in ledger.mempool)
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
    assert [r.sender for r in blk.receipts] == ["adv", "a"]


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


def test_script_runner_drives_the_ledger(ledger):
    out = run_script(ledger, """
        # fund then fork away the payment
        transfer a b 7 1
        mine
        fork 0
        mine 15 branch1
        mine 15 branch1
        reorg branch1
        advance-time 3600
        mine
    """)
    assert out[0].startswith("submitted")
    assert ledger.accounts["b"] == 107
    assert ledger.head.timestamp >= 1_600_000_000 + 3600


def test_script_rejects_unknown_commands(ledger):
    with pytest.raises(LedgerError):
        run_script(ledger, "explode now")


def test_payload_size_rules():
    call = {"fn": "confirm_op", "contract": "c" * 32, "otp": bytes(16),
            "proof": MerkleProof((bytes(16), bytes(16))), "op_id": 3}
    assert payload_size(call) == 4 + 20 + 16 + 32 + 4


def test_signature_audit_flags_a_tampered_record():
    w = WalletChain()
    w.init(1)
    w.ledger.mine_block()
    assert w.ledger.audit_signatures() == []
    # Doctor the recorded transaction; the post-run checker must notice.
    w.ledger.chain[-1].receipts[0].tx.signature = bytes(64)
    assert w.ledger.audit_signatures() != []


def test_canonical_tx_text_is_frozen():
    # The signable key=value rendering is a wire format; keep it pinned.
    tx = Transaction("acct:a", {"fn": "init_op", "contract": "cc",
                                "addr": "acct:b", "param": 7,
                                "type": OpType.TRANSFER},
                     fee=2, nonce=1)
    assert tx.signing_bytes() == \
        b"acct:a|1|init_op|addr=acct:b contract=cc param=7 type=transfer"


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
    led.pending_time_skip = 86400
    w.confirm(1)
    blk = led.mine_block()
    assert blk.receipts[0].status == "revert:daily-limit"
    assert led.contract(w.cid).state_lines() == lines
    assert led.accounts == accounts
    assert led.head.state.nonces[w.owner] == before.state.nonces[w.owner] + 1
    # Nothing was copied that survives the revert: the block shares the
    # parent's contract object.
    assert led.contract(w.cid) is before.state.contracts[w.cid]


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


def test_malformed_calls_revert_without_halting_the_chain():
    w = WalletChain()
    led = w.ledger
    tokens = led.total_tokens()
    calls = [
        ({"fn": "bogus"}, "revert:phase"),
        ({"fn": "transfer", "amount": 1}, "revert:malformed"),
        ({"fn": "init_op", "contract": w.cid, "addr": "acct:bob",
          "type": OpType.TRANSFER}, "revert:malformed"),
        ({"fn": "send_to_last_resort"}, "revert:phase"),
    ]
    for call, _ in calls:
        w.submit(call, sign=True)
    blk = led.mine_block()
    assert [r.status for r in blk.receipts] == [want for _, want in calls]
    assert led.head is blk and not led.mempool
    assert led.total_tokens() == tokens
    assert led.mine_block().height == blk.height + 1


def test_submit_refuses_a_call_without_a_function(ledger):
    with pytest.raises(LedgerError):
        ledger.submit(Transaction("a", {"to": "b", "amount": 1}, nonce=0))
    assert ledger.mempool == []
    assert ledger.mine_block().receipts == []
