"""End-to-end protocol runs across authenticator, client, wallet, and chain.

The parties are deterministic callbacks around one Ledger: the hardware
wallet signs only what the user approves on its display, the user compares
displays before approving, air-gapped values travel through the mnemonic
codec, and the client waits out block confirmations before revealing an
OTP. Adversary scenarios reuse the same machinery with stolen keys,
mempool observation, and fork control.

An operation runs in two steps, each one call here and nowhere else:
`init_operation` sends the signed init and remembers its txid, and
`confirm_operation` waits until that init is `CONFIRMATION_DEPTH` deep,
only then takes the OTP and sends the confirm. `run_operation` is the two
in a row; the CLI runs them one command apart. Every owner transaction is
sent and mined through `send`.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field, replace
import random

from . import mnemonic, signing
from .authenticator import Authenticator
from .client import CONFIRMATION_DEPTH, ClientStore
from .contract import OpType
from .hashing import Digest, random_seed
from .ledger import Ledger, Transaction
from .merkle import TreeParams

DEFAULT_PARAMS = TreeParams(S=128, N=16, P=2, N_S=8, L_S=1)


class ProtocolAbort(Exception):
    """A party refused to continue (display mismatch, refused signature)."""


@dataclass
class HardwareWallet:
    """Keypair plus a display; signs only after the user approves what
    the display shows: the whole payload."""

    keypair: signing.KeyPair

    @property
    def public(self) -> bytes:
        return self.keypair.public

    @functools.cached_property
    def account(self) -> str:
        """The owner's account id, hashed from the public key once: every
        owner transaction names it twice, as sender and for its nonce."""
        return signing.account_of(self.keypair.public)

    def request_signature(self, tx: Transaction, payload: str,
                          approve) -> bool:
        if not approve(payload):
            return False
        tx.signature = self.keypair.sign(tx.signing_bytes())
        return True


@dataclass
class UserModel:
    """Policy callbacks of the honest user: compare, then approve."""

    expected_display: str = ""

    def expect(self, payload: str) -> None:
        self.expected_display = payload

    def approve(self, shown: str) -> bool:
        return shown == self.expected_display and bool(shown)

    def compare(self, a: str, b: str) -> bool:
        return a == b

    def transfer_digest(self, value: Digest) -> Digest:
        """Air-gapped value pass; exercises the mnemonic codec en route."""
        if len(value) * 8 not in mnemonic.SUPPORTED_BITS:
            return value
        return mnemonic.decode(mnemonic.encode(value))


def render_op(addr: str, param: int, op_type: OpType) -> str:
    # Address first: the most critical field leads the display.
    return f"addr={addr} param={param} type={op_type.value}"


@dataclass
class System:
    """One wallet world; `client` is None until `bootstrap_system` runs."""

    params: TreeParams
    authenticator: Authenticator
    client: ClientStore | None
    hw: HardwareWallet
    user: UserModel
    ledger: Ledger
    contract_id: str = ""
    recipient: str = "acct:recipient"
    confirmed_transfers: list[tuple[str, int]] = field(default_factory=list)
    # op id -> (init txid, type, addr, param) of each initialised operation
    # of the current subtree: the contract confirms no other.
    initialised: dict[int, tuple[str, OpType, str, int]] = field(
        default_factory=dict)

    @property
    def user_account(self) -> str:
        return self.hw.account

    @property
    def contract(self):
        return self.ledger.contract(self.contract_id)

    def fork(self) -> "System":
        """A world that goes on independently of this one. It shares what
        no step changes once made: the ledger's mined blocks and submitted
        transactions (see `Ledger.copy`), the client's levels and the key
        pair. It copies the rest: the ledger's containers, the
        authenticator, the client store, the user model and the two
        records of the protocol runs. LedgerError for a restored ledger."""
        return replace(
            self, authenticator=copy.copy(self.authenticator),
            client=copy.copy(self.client), hw=HardwareWallet(self.hw.keypair),
            user=copy.copy(self.user), ledger=self.ledger.copy(),
            confirmed_transfers=list(self.confirmed_transfers),
            initialised=dict(self.initialised))


def make_parties(k: bytes, hw: HardwareWallet, params: TreeParams,
                 ledger: Ledger) -> System:
    """Parties around `ledger`, without a client."""
    return System(params=params, authenticator=Authenticator(k, params),
                  client=None, hw=hw, user=UserModel(), ledger=ledger)


def make_parties_from_material(k: bytes, hw_seed: bytes,
                               params: TreeParams = DEFAULT_PARAMS,
                               funding: int = 1000) -> System:
    """Parties around a fresh ledger that funds the owner's account, without
    a client: the client gets its leaves, and builds its one tree, in
    `bootstrap_system`."""
    hw = HardwareWallet(signing.keygen(hw_seed))
    ledger = Ledger(initial_accounts={
        hw.account: funding,
        "acct:recipient": 0,
        "acct:adversary": 50,
    })
    return make_parties(k, hw, params, ledger)


# ---------------------------------------------------------------------------
# Bootstrapping

def bootstrap_system(system: System, mode: str = "secure", funding: int = 1000,
                     tamper_root: Digest | None = None) -> System:
    """Deploy a wallet for already-built parties; `tamper_root` simulates a
    client forging the root during the insecure protocol (caught by the
    user's display comparison)."""
    auth, hw, user = system.authenticator, system.hw, system.user
    params = system.params

    if mode == "secure":
        # The seed travels air-gapped as mnemonic words; the client derives
        # the tree and forgets the seed (bootstrap_secure stores no k).
        client = ClientStore.bootstrap_secure(
            mnemonic.decode(auth.display_seed()), params)
    elif mode == "insecure":
        # Leaves travel on a microSD card; nothing secret is transferred.
        client = ClientStore.bootstrap_insecure(auth.export_leaves(), params)
    else:
        raise ValueError(f"unknown bootstrap mode: {mode}")
    system.client = client

    root, sublayer, proof_sr = client.constructor_args()
    if tamper_root is not None:
        root = tamper_root

    if mode == "insecure":
        # The wallet displays the root it is about to sign; the user holds
        # it against the authenticator's own display.
        if not user.compare(root.hex(), auth.display_root().hex()):
            raise ProtocolAbort("root displayed by the wallet does not match "
                                "the authenticator; deployment refused")

    receipt = send(system, {
        "fn": "deploy_wallet", "root": root, "pk": hw.public,
        "sublayer": sublayer, "proof_sr": proof_sr, "params": params})
    if _status(receipt) != "ok":
        raise ProtocolAbort(f"deployment failed: {_status(receipt)}")
    system.contract_id = receipt.result

    # Fund the wallet from the user's account.
    receipt = send(system, {"fn": "transfer", "to": system.contract_id,
                            "amount": funding // 2})
    if _status(receipt) != "ok":
        raise ProtocolAbort(f"funding failed: {_status(receipt)}")
    return system


def run_bootstrap(mode: str = "secure", seed: int = 0,
                  params: TreeParams = DEFAULT_PARAMS, funding: int = 1000,
                  tamper_root: Digest | None = None) -> System:
    """Fresh parties from a seed, then deploy."""
    rng = random.Random(seed)
    k = random_seed(rng)
    hw_seed = bytes(rng.getrandbits(8) for _ in range(32))
    system = make_parties_from_material(k, hw_seed, params, funding)
    return bootstrap_system(system, mode, funding, tamper_root)


# ---------------------------------------------------------------------------
# Operation execution

def submit_signed(system: System, call: dict, payload: str) -> str:
    """Route a transaction (fee 1) through the hardware wallet's display."""
    tx = Transaction(system.user_account, call, fee=1,
                     nonce=system.ledger.next_nonce(system.user_account))
    if not system.hw.request_signature(tx, payload, system.user.approve):
        raise ProtocolAbort("user refused to sign: display mismatch")
    return system.ledger.submit(tx)


def send(system: System, call: dict, display: str | None = None):
    """Submit an owner transaction (fee 1) at the next nonce, signed on the
    wallet's display when `display` is given, mine one block, and return
    its receipt (None when the transaction did not land)."""
    ledger = system.ledger
    if display is None:
        txid = ledger.submit(Transaction(
            system.user_account, call, fee=1,
            nonce=ledger.next_nonce(system.user_account)))
    else:
        txid = submit_signed(system, call, display)
    ledger.mine_block()
    return ledger.receipt(txid)


def _status(receipt) -> str:
    return receipt.status if receipt is not None else "missing"


def wait_confirmations(system: System, txid: str) -> None:
    """Background wait until the tx sits under CONFIRMATION_DEPTH blocks.

    A reorg that orphans the tx puts it back in the mempool, and the wait
    mines it again; a tx that left both chain and mempool aborts. Missing
    depth is mined in one batch: mining runs no observers, so nothing can
    reorg between those blocks.
    """
    ledger = system.ledger
    mined = 0
    while mined < 10 * CONFIRMATION_DEPTH:
        confs = ledger.confirmations(txid)
        if confs is None:
            if not any(t.txid == txid for t in ledger.mempool):
                raise ProtocolAbort(f"transaction {txid} vanished")
            batch = 1
        elif confs >= CONFIRMATION_DEPTH:
            return
        else:
            batch = CONFIRMATION_DEPTH - confs
        for _ in range(batch):
            ledger.mine_block()
        mined += batch
    raise ProtocolAbort(f"transaction {txid} never reached depth")


def init_operation(system: System, op_type: OpType, addr: str, param: int,
                   tampered_addr: str | None = None) -> dict:
    """First factor: the signed init, mined into one block.

    `tampered_addr` models a compromised client rewriting the recipient
    after the user entered their intent.
    """
    system.user.expect(render_op(addr, param, op_type))
    sent_addr = tampered_addr if tampered_addr is not None else addr
    receipt = send(system, {"fn": "init_op", "contract": system.contract_id,
                            "addr": sent_addr, "param": param,
                            "type": op_type},
                   render_op(sent_addr, param, op_type))
    if _status(receipt) != "ok":
        return {"ok": False, "stage": "init", "status": _status(receipt)}
    op_id = int(receipt.result)
    system.initialised[op_id] = (receipt.txid, op_type, addr, param)
    return {"ok": True, "stage": "init", "op_id": op_id,
            "txid": receipt.txid}


def confirm_operation(system: System, op_id: int,
                      otp: Digest | None = None) -> dict:
    """Second factor: wait until the init is CONFIRMATION_DEPTH deep, then
    reveal the OTP (the authenticator's, or one the user typed) and confirm."""
    if op_id not in system.initialised:
        return {"ok": False, "stage": "confirm", "op_id": op_id,
                "status": "not-initialised"}
    init_txid, op_type, addr, param = system.initialised[op_id]
    wait_confirmations(system, init_txid)

    if otp is None:
        otp = system.user.transfer_digest(
            system.authenticator.get_otp(op_id % system.params.N))
    payload = system.client.build_confirm(op_id, otp)
    receipt = send(system, {"fn": "confirm_op", "contract": system.contract_id,
                            "otp": payload.otp, "proof": payload.proof,
                            "op_id": op_id})
    ok = _status(receipt) == "ok"
    if ok and op_type is OpType.TRANSFER:
        system.confirmed_transfers.append((addr, param))
    return {"ok": ok, "stage": "confirm", "op_id": op_id,
            "status": _status(receipt),
            "txid": receipt.txid if receipt is not None else None}


def run_operation(system: System, op_type: OpType, addr: str, param: int,
                  tampered_addr: str | None = None) -> dict:
    """Two-stage operation: signed init, wait, OTP confirm."""
    outcome = init_operation(system, op_type, addr, param, tampered_addr)
    if not outcome["ok"]:
        return outcome
    return confirm_operation(system, outcome["op_id"])


def _forget_sealed(system: System) -> None:
    """Drop the init txids of the operations below the contract's current
    subtree: the step just sealed them, and they can never be confirmed."""
    floor = system.contract.current_subtree * system.params.N_S
    for op_id in [i for i in system.initialised if i < floor]:
        del system.initialised[op_id]


def run_next_subtree(system: System) -> dict:
    """Single-transaction introduction of the next subtree.

    Unlike a confirmation, this reveals its OTP at once: it needs no wait
    for any transaction to be `CONFIRMATION_DEPTH` deep. The OTP sits in
    slot `N_S - 1` of its subtree, where `init_op` reverts on `phase`, so no
    operation can ever be confirmed with it. Its only effect is to admit
    the one sublayer that lies under the committed root (theorem 2): an
    adversary who reads it in the mempool can land nothing else, and a
    reorg that drops the introduction can only apply it again.
    """
    op_id = system.contract.next_op_id
    otp = system.authenticator.get_otp(op_id % system.params.N)
    otp = system.user.transfer_digest(otp)
    payload = system.client.build_next_subtree(op_id, otp)
    receipt = send(system, {
        "fn": "next_subtree", "contract": system.contract_id,
        "sublayer": payload.next_sublayer, "otp": payload.otp,
        "proof_otp": payload.proof_otp, "proof_sr": payload.proof_sr})
    ok = _status(receipt) == "ok"
    if ok:
        system.client.advance_subtree()
        _forget_sealed(system)
    return {"ok": ok, "op_id": op_id, "status": _status(receipt)}


def run_new_root(system: System, mode: str = "secure") -> dict:
    """Three-stage parent-root replacement. Stage 3, which reveals the
    OTP, waits until stages 1 and 2 are `CONFIRMATION_DEPTH` deep, as a
    confirmation waits for its init."""
    auth, client, user = system.authenticator, system.client, system.user
    op_id = system.contract.next_op_id
    rel = op_id % system.params.N
    if rel != system.params.N - 1:
        raise ProtocolAbort(f"operation {op_id} does not end the parent tree")

    if mode == "secure":
        # The seed travels again; the client derives the next tree itself.
        source = mnemonic.decode(auth.display_seed())
    elif mode == "insecure":
        # The next generation's leaves travel on a microSD card.
        source = auth.export_next_leaves()
    else:
        raise ValueError(f"unknown rotation mode: {mode}")
    new_root = client.stage_rotation(source)
    preview_root, preview_h = auth.new_parent_preview(rel)

    otp = user.transfer_digest(auth.get_otp(rel))
    stages = client.build_new_root_stages(op_id, new_root, otp)

    # Stages 1 and 2: in an insecure environment the user holds the wallet's
    # display against the authenticator's preview before signing.
    txids = []
    for stage, value, preview in ((1, stages.h_root_and_otp, preview_h),
                                  (2, stages.new_root, preview_root)):
        if mode == "insecure":
            if not user.compare(value.hex(), preview.hex()):
                raise ProtocolAbort(f"stage-{stage} display mismatch between "
                                    "wallet and authenticator")
        user.expect(value.hex())
        receipt = send(system, {"fn": f"new_root_stage{stage}",
                                "contract": system.contract_id,
                                "value": value}, value.hex())
        if _status(receipt) != "ok":
            return {"ok": False, "stage": stage, "status": _status(receipt)}
        txids.append(receipt.txid)

    # Stage 3 reveals the OTP, so stages 1 and 2 must first be
    # CONFIRMATION_DEPTH deep: a reorg that drops them could otherwise land
    # an adversary's stages 1 and 2, built with that OTP, before the user's.
    for txid in txids:
        wait_confirmations(system, txid)
    receipt = send(system, {
        "fn": "new_root_stage3", "contract": system.contract_id,
        "otp": stages.otp, "proof": stages.proof_otp,
        "sublayer": stages.new_sublayer, "proof_sr": stages.proof_sr})
    ok = _status(receipt) == "ok" and receipt.result == "updated"
    if ok:
        client.commit_rotation()
        auth.advance_generation()
        _forget_sealed(system)
    return {"ok": ok, "stage": 3, "status": _status(receipt)}
