"""Shared test harness: a wallet contract driven without the ledger, and
cache-free references for the contract's state lines, the call codec, and
the ledger's block entries, chained digest, state hash and checkpoint
head; and a recorder of a CLI world's file operations."""

import json
import re

from otpwallet import ledger as ledger_mod, signing, store
from otpwallet.authenticator import Authenticator
from otpwallet.client import ClientStore
from otpwallet.contract import ChainEnv, OpType, Revert, WalletContract
from otpwallet.hashing import truncated_hash
from otpwallet.ledger import CALL_ARGS, GENESIS_PARENT, encode_call
from otpwallet.merkle import MerkleProof, SubtreeLayer, TreeParams

K = bytes(range(16))
T0 = 1_600_000_000


class World:
    """Accounts, a clock, and a deployed wallet."""

    def __init__(self, params, funding=100, key_byte=5):
        self.params = params
        self.now = T0
        self.keypair = signing.keygen(bytes([key_byte]) * 32)
        self.owner = signing.account_of(self.keypair.public)
        self.accounts = {self.owner: 1000, "acct:bob": 0}
        self.store = ClientStore.bootstrap_secure(K, params)
        root, sublayer, proof_sr = self.store.constructor_args()
        self.wallet = WalletContract(root, self.keypair.public, sublayer,
                                     proof_sr, params, self.env(self.owner))
        self.accounts[self.wallet.contract_id] = funding

    def transfer(self, frm, to, amount):
        if amount < 0 or self.accounts.get(frm, 0) < amount:
            raise Revert("funds", "insufficient")
        self.accounts[frm] = self.accounts.get(frm, 0) - amount
        self.accounts[to] = self.accounts.get(to, 0) + amount

    def env(self, sender, signed=False, msg=b"call"):
        """A call's platform context. `sender` names the caller for the
        reader only: the contract authenticates by signature and OTP."""
        sig = self.keypair.sign(msg) if signed else None
        return ChainEnv(timestamp=self.now,
                        balance_of=lambda a: self.accounts.get(a, 0),
                        transfer=self.transfer,
                        tx_signing_bytes=msg, tx_signature=sig)

    def otp(self, op_id):
        return Authenticator(K, self.params, eta=self.store.eta).get_otp(
            op_id % self.params.N)

    def init(self, addr="acct:bob", param=5, op_type=OpType.TRANSFER):
        return self.wallet.init_op(addr, param, op_type,
                                   self.env(self.owner, signed=True))

    def confirm(self, op_id):
        payload = self.store.build_confirm(op_id, self.otp(op_id))
        self.wallet.confirm_op(payload.otp, payload.proof, op_id,
                               self.env(self.owner))

    def introduce_subtree(self):
        op_id = self.wallet.next_op_id
        payload = self.store.build_next_subtree(op_id, self.otp(op_id))
        self.wallet.next_subtree(payload.next_sublayer, payload.otp,
                                 payload.proof_otp, payload.proof_sr,
                                 self.env(self.owner))
        self.store.advance_subtree()

    def rotate_root(self, mode="secure"):
        """The three stages; the secure mode stages the next generation
        from the seed, the insecure one from the device's leaf export."""
        op_id = self.wallet.next_op_id
        new_root = self.store.stage_rotation(
            K if mode == "secure" else Authenticator(
                K, self.params, eta=self.store.eta).export_next_leaves())
        stages = self.store.build_new_root_stages(op_id, new_root,
                                                  self.otp(op_id))
        self.wallet.new_root_stage1(stages.h_root_and_otp,
                                    self.env(self.owner, signed=True))
        self.wallet.new_root_stage2(stages.new_root,
                                    self.env(self.owner, signed=True))
        ok = self.wallet.new_root_stage3(stages.otp, stages.proof_otp,
                                         stages.new_sublayer, stages.proof_sr,
                                         self.env(self.owner))
        if ok:
            self.store.commit_rotation()
        return ok


def reference_state_lines(wallet) -> list[str]:
    """`WalletContract.state_lines` rendered from scratch: the header, then
    one line per operation record in id order, sealed or open."""
    lines = [
        f"contractId={wallet.contract_id}",
        f"root={wallet.root.hex()}",
        f"pk={wallet.pk.hex()}",
        f"nextOpID={wallet.next_op_id}",
        f"currentSubtree={wallet.current_subtree}",
        f"currentLayer={wallet.current_layer}",
        f"dailyLimit={wallet.daily_limit}",
        f"spentToday={wallet.spent_today}",
        f"dayIndex={wallet.day_index}",
        f"lastResortAddr={wallet.last_resort_addr}",
        f"lastResortTimeout={wallet.last_resort_timeout}",
        f"lastActivity={wallet.last_activity}",
        f"destroyed={int(wallet.destroyed)}",
        f"sublayerIndex={wallet.sublayer.index}",
        "sublayer=" + ",".join(n.hex() for n in wallet.sublayer.nodes),
        "L1=" + ",".join(d.hex() for d in wallet.l1),
        "L2=" + ",".join(d.hex() for d in wallet.l2),
    ]
    for op_id in sorted(wallet.operations):
        rec = wallet.operations[op_id]
        lines.append(f"op{op_id}={rec.type.value},{rec.addr},{rec.param},"
                     f"{int(rec.pending)}")
    return lines


def chunk_changes(before, after) -> tuple[list, list]:
    """The chunks of the operation records `before` that `after` does not
    share, and those of `after` that `before` does not hold, by identity."""
    old, new = before._chunks, after._chunks
    return ([c for c in old if not any(c is d for d in new)],
            [c for c in new if not any(c is d for d in old)])


# Argument type -> the value of the JSON that `encode_call` writes for it.
_FROM_JSON = {
    str: str, int: int, bytes: bytes.fromhex,
    MerkleProof: lambda j: MerkleProof(tuple(map(bytes.fromhex, j))),
    SubtreeLayer: lambda j: SubtreeLayer(list(map(bytes.fromhex, j[1])), j[0]),
    OpType: OpType, TreeParams: TreeParams.from_dict,
}


def reference_decode_call(data: dict) -> dict:
    """The call that `encode_call` wrote, decoded by its schema."""
    kinds = dict(CALL_ARGS[data["fn"]], fn=str, contract=str)
    return {key: _FROM_JSON[kinds[key]](value) for key, value in data.items()}


def reference_chain(ledger) -> list:
    """The canonical blocks from genesis. While a restored ledger has not
    read the chain below its base, its reader is called here, leaving the
    ledger as it is."""
    chain = ledger.branches[ledger.canonical]
    if ledger._below is None:
        return chain
    _, read = ledger._below
    return read() + chain[1:]


def reference_entry(blk) -> bytes:
    """A block's entry, encoded from scratch: its timestamp text when the
    block is empty, else its timestamp and its receipt rows."""
    if not blk.receipts:
        return str(blk.timestamp).encode()
    return json.dumps([blk.timestamp, [
        [[r.tx.sender, r.tx.nonce, r.tx.fee, encode_call(r.tx.call)],
         r.status, r.result,
         r.tx.signature.hex() if isinstance(r.tx.signature, bytes) else None]
        for r in blk.receipts]], separators=(",", ":")).encode()


def reference_digests(blocks) -> list[bytes]:
    """The chained digest of each of `blocks`, the blocks of one branch from
    genesis: H(previous digest || entry) from the genesis parent."""
    digests, digest = [], GENESIS_PARENT
    for blk in blocks:
        digest = truncated_hash(digest + reference_entry(blk))
        digests.append(digest)
    return digests


def block_hashes(monkeypatch) -> list[bytes]:
    """Log each block digest the ledger hashes from now on: an input of its
    `truncated_hash` that is a 16-byte parent digest and a block entry, a
    timestamp or a timestamp and rows."""
    hashed, real = [], ledger_mod.truncated_hash

    def counting(data, *args, **kwargs):
        if re.fullmatch(rb"\d+|\[\d+,\[\[\[.*\]\]\]", data[16:], re.S):
            hashed.append(data)
        return real(data, *args, **kwargs)
    monkeypatch.setattr(ledger_mod, "truncated_hash", counting)
    return hashed


def reference_digest(ledger) -> bytes:
    """The chained digest of the head block, hashed from genesis over each
    block's entry."""
    return reference_digests(reference_chain(ledger))[-1]


def reference_state_hash(ledger) -> str:
    """`Ledger.state_hash` built from scratch: the head state's lines and
    the head digest."""
    state = ledger.head.state
    parts = [f"acct {a} {state.accounts[a]}" for a in sorted(state.accounts)]
    parts += [f"nonce {a} {state.nonces[a]}" for a in sorted(state.nonces)]
    for cid in sorted(state.contracts):
        parts.extend(state.contracts[cid].state_lines())
    parts.append(reference_digest(ledger).hex())
    return truncated_hash("\n".join(parts).encode()).hex()


def reference_entries(ledger) -> bytes:
    """The entry of every canonical block from genesis, encoded from
    scratch, one per line."""
    return b"".join(reference_entry(blk) + b"\n"
                    for blk in reference_chain(ledger))


def reference_head(ledger, keep=()) -> str:
    """The head object of `Ledger.checkpoint(keep)` as compact JSON text,
    encoded from scratch."""
    head = ledger.head
    state = head.state
    index = {}
    for blk in reference_chain(ledger):
        for r in blk.receipts:
            if r.status != "invalid-nonce":
                index.setdefault(r.txid, blk.height)
    return json.dumps({
        "accounts": state.accounts,
        "nonces": state.nonces,
        "contracts": [c.state_lines() for c in state.contracts.values()],
        "height": head.height,
        "timestamp": head.timestamp,
        "digest": reference_digest(ledger).hex(),
        "seq": ledger._seq,
        "index": {txid: index[txid] for txid in keep},
    }, separators=(",", ":"))


def depths_waited(ledger) -> dict[str, int]:
    """Operation id -> how many blocks deep its init was when its confirm
    was sent, read off the canonical chain: the confirm sits in the block
    after the wait ended, so that is `confirmations(init) -
    confirmations(confirm) - 1`."""
    txids = {}
    for blk in ledger.chain:
        for r in blk.receipts:
            if r.status == "ok" and r.fn in ("init_op", "confirm_op"):
                txids.setdefault(r.result, {})[r.fn] = r.txid
    return {op_id: ledger.confirmations(sent["init_op"])
            - ledger.confirmations(sent["confirm_op"]) - 1
            for op_id, sent in txids.items() if len(sent) == 2}


RECIPIENTS = ("acct:recipient", "acct:shop", "acct:landlord", "acct:friend")


def write_history(world, slots: int, rng) -> None:
    """Apply `slots` operation slots to a CLI world and append their
    actions to its log, as the benchmark writes a deep world: a confirmed
    transfer in each slot, a subtree introduction in each subtree's last
    slot and a secure rotation in each generation's last."""
    params = world.params()
    for _ in range(slots):
        system = world.system
        rel = system.contract.next_op_id % params.N
        if rel == params.N - 1:
            actions = [{"cmd": "rotate", "mode": "secure"}]
        elif rel % params.N_S == params.N_S - 1:
            actions = [{"cmd": "subtree"}]
        else:
            init = {"cmd": "init", "type": "transfer",
                    "addr": rng.choice(RECIPIENTS), "param": rng.randint(1, 2)}
            op_id = world.apply(init)["op_id"]
            world.data["actions"].append(init)
            otp = system.authenticator.get_otp(op_id % params.N)
            actions = [{"cmd": "confirm", "op_id": op_id, "otp": otp.hex()}]
        for action in actions:
            world.apply(action)
            world.data["actions"].append(action)


class FileLog(store.Files):
    """The file operations of a CLI world, each call recorded in `calls`
    as its method's name, its file's name and the bytes it read or wrote,
    or, for a rename, the name it gives. Set as `store.FILES`. Of what is
    appended or written to the file named `torn`, half lands, and then
    `error` is raised, as on a full disk."""

    def __init__(self, torn=None, error=None):
        self.calls, self.torn, self.error = [], torn, error

    def read(self, path, size=-1):
        data = super().read(path, size)
        self.calls.append(("read", path.name, data))
        return data

    def append(self, path, committed, data):
        self.calls.append(("append", path.name, data))
        if path.name == self.torn:
            super().append(path, committed, data[: len(data) // 2])
            raise self.error
        super().append(path, committed, data)

    def write(self, path, data):
        self.calls.append(("write", path.name, data))
        if path.name == self.torn:
            super().write(path, data[: len(data) // 2])
            raise self.error
        super().write(path, data)

    def replace(self, src, dst):
        self.calls.append(("replace", src.name, dst.name))
        super().replace(src, dst)
