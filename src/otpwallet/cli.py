"""Command-line front door.

The simulated world persists between invocations as two files in the
state directory. `world.json` is the commit point. It holds the seeds, the
params, the mode and the funding, and a head that records the action
count, the log's committed length in bytes and the head `state_hash`, and
holds the head checkpoint. `actions.jsonl` is the replayable log of every
command that changed state, one action per line (compact JSON with sorted
keys, then a newline), and the world's only history: it only grows, and a
save appends the lines of the actions it adds and re-encodes no other.

The checkpoint is a cache of the world's head: the head ledger state, with
each contract as its state lines alone (a restore builds it with the params
of `world.json`), the head block's height, timestamp and chained digest,
the ledger's submission counter, the heights of the initialised
operations' init txids, and the bookkeeping that the chain does not hold:
the init txid of each initialised operation of the current subtree and the
confirmed transfers. Its `binding` is the hash of the SHA-256 of the log's
committed bytes and of the fields that the head's `state_hash` does not
cover (`BOUND_KEYS`: the height, the timestamp, the counter, the txid index
and the initialised rows); the state hash covers the state and, by the
head digest, the chain.
Whatever the wallet contract records is read off it instead, as the
paper's client reads the chain: the contract id, the generation
(`nextOpID // N`), the client's current subtree and each initialised
operation's type, address and parameter. The client holds nothing secret
and is not stored: a restore hands it, as its tree source, the seed's tree
at that generation through `merkle.generation_levels`, the one derivation
of every client tree, whatever mode the world was bootstrapped in. It is
derived on the client's first proof, so a command that reads no proof
(`otp show`, `op init`, `root show`) builds none. The owner key is not
derived by a restore either, but on the first signature.

The trade: a restore does not check that the key `hw_seed_hex` derives is
the contract's owner key, so a read command on a world whose
`hw_seed_hex` was edited shows the world as it is. A write command needs
the key anyway, and `World.commit` compares it with the contract's `pk`
before the action is applied: a mismatch is an `error: state:` line, with
nothing mined or saved. Without the check, the contract refuses an init
for its signature, but a confirm, sent unsigned from the edited key's
account, commits, and the log then replays to another state.

Every read and write of the two files goes through one file-operations
object, `store.FILES`; this module opens, writes, truncates and renames
nothing itself. A save encodes `world.json` in one pass and hands it and the
new log lines to `store.commit`, which appends the lines and then writes
`world.json` to a temp file renamed into place: its only rename. A save that
fails before the rename leaves the previous world, because bytes past the
committed length are a torn append, which a load ignores and the next
save cuts, as a write-ahead log does, and a load never reads the temp
file, which the next save replaces.

A load reads `world.json` and then the log's committed bytes (fewer is an
error) through `store.FILES`, hashes the log's bytes once and keeps the
hash, so a save hashes only what it appends, and counts their lines against
the head's action count. It restores the checkpoint when its binding is the
digest of that hash and its bound fields, every balance, nonce, height,
timestamp, counter and index height in it is an int (the state lines render
`400` and `"400"` alike, and the binding covers no balance or nonce), the
restored ledger hashes to the recorded state, and that state holds exactly
one contract with a record in its current subtree of every initialised
operation of that subtree, whose init txid the restored index holds. It
takes one field as stored: the confirmed transfers, a record of the user's
that grows with the history and that no protocol step reads. Otherwise it
replays the log from genesis by `World.replay_log`, the one checked replay:
it parses the log, checks its action count against the head's, replays it,
which determinism makes bit-exact, and checks that it lands on the recorded
state; a replay that lands anywhere else is an error. One that lands on it
saves a fresh head, whatever the command, so the next command restores,
also after a write whose commit fails; a write that commits saves again. A
checkpoint of an older layout, such as one that stored the log's digest
alone and each contract's params, does not bind and loads by one such
replay; so does a head of an older layout, which bound a separate
checkpoint file by its digest, a file that is never read. Bootstrap builds
its system as the replay of no action.

A restored world holds the chain from its head up; no command reads below
it, and a Python caller that does (`event_log`, `audit_signatures`, a
lookup of an older txid, a fork below the head) pays one replay of the
log's committed bytes, in a world that is not saved: the load's checked
replay, against the head as loaded, whose chain must then match the head's
digest (see `otpwallet.ledger`). The restored ledger then holds the
replay's blocks, with their states, under its head, and goes on as a
replayed one would; `System.fork` copies it either way. So the restore's
trade, that it takes the checkpoint's state on the word of the head's
`state_hash` without replaying, ends at the first read below the head: a
`world.json` whose checkpoint state was edited and whose `state_hash` was
re-bound to it restores, and that read raises `LedgerError` naming the
state the log replays to and the recorded one. The block archive that
older saves wrote beside the log, one block entry per line, is never read,
written or removed, and may be deleted.

A `world.json` that does not parse, is not format version 4 or records no
head is an error, because there is no state to check its replay against (a
version-3 world holds its log inside `world.json`, a version-2 head hashes
txids and block digests of an older encoding, and no migration reads
either). So is one whose keys, or whose head's or params' keys, are not
exactly those a save writes, or that holds a value of another type, params
outside their domain, a negative funding or log length, a seed that is not
lowercase hex of its size or a mode outside MODES, or whose log holds
another count of lines than the head records actions, or, when the load
replays it, does not parse as one action per line (a line that holds two
does not), holds another count of actions or logs an action that no
command writes: another key set, an unknown operation type or mode, or a
confirm OTP not of the digest size. The log doubles as an audit trail.

A command pays for its own work and the blocks it adds, not for the
chain's length. `main` parses with one parser of all nine commands, built
from the one `COMMANDS` table by the first command of a process and reused
by the rest. The parser reads no environment: a command reads
`OTPWALLET_STATE` and `OTPWALLET_PARAMS` where it uses them, each time.
Only the cost and security commands import the cost model and the security
calculator, and with them mpmath. A restore parses of the contract's
records only the current subtree's, at most `N_S`, and keeps their text,
so a save renders none of them again (see `otpwallet.contract`). What a
command still pays for by history is reading and hashing the log's bytes,
and the head's `op` lines and confirmed transfers, which `world.json`
holds. What it pays for by the tree size N: `root show` derives the N/P
leaves once, on purpose, as the authenticator's independent display, in
one process; `op confirm`, `subtree next` and `root rotate` derive the
client's tree once, at their first proof; and bootstrap derives it too. A
seed's tree of 8 192 leaves or more (`merkle._SPLIT_LEAVES`) has its right
half derived by the process's one reused helper process
(`merkle._Helper`) when the process may run on two CPUs (see
`otpwallet.merkle`); a metering base hash never splits.

Exit codes: 0 success, 1 protocol or state failure (one categorized
`error:` line on stderr; an OSError, such as a `world.json` that is a
directory or a save that finds the disk full, is an `error: state:` line),
2 usage.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from pathlib import Path

from . import mnemonic, signing, store
from .client import ClientStore
from .contract import OP_TYPES, Revert
from .hashing import (DEFAULT_BASE_HASH, DomainError, random_seed,
                      truncated_hash)
from .ledger import Ledger, LedgerError
from .merkle import TreeParams, generation_levels
from .mnemonic import MnemonicError
from .protocols import (
    HardwareWallet,
    ProtocolAbort,
    System,
    bootstrap_system,
    confirm_operation,
    init_operation,
    make_parties,
    make_parties_from_material,
    run_new_root,
    run_next_subtree,
)
# Not called here; kept bound because bench/tracing.py wraps it on this module.
from .protocols import submit_signed  # noqa: F401
from .scenarios import SCENARIOS, run_scenario

STATE_ENV = "OTPWALLET_STATE"
PARAMS_ENV = "OTPWALLET_PARAMS"
SEED_ENV = "OTPWALLET_SEED"
DEFAULT_STATE_DIR = ".otpwallet"
DEFAULT_PARAMS_SPEC = "128,16,2,8,1"

WORLD_VERSION = 4
MODES = ("secure", "insecure")
# The keys of `world.json`, besides its version and head, that a restore or
# a replay reads, and their types (a bool is not an int).
WORLD_KEYS = {"funding": int, "hw_seed_hex": str, "mode": str,
              "params": dict, "seed_hex": str}
# The keys of its head. The checkpoint is a cache that a restore checks, so
# a value of any type that does not restore costs one replay.
HEAD_KEYS = {"actions": int, "log_bytes": int, "state_hash": str,
             "checkpoint": object}
PARAMS_KEYS = dict.fromkeys(TreeParams().as_dict(), int)
# The checkpoint's fields that the head's `state_hash` does not cover and
# that its `binding` covers, with the log's digest.
BOUND_KEYS = ("height", "timestamp", "seq", "index", "initialised")
# Logged command -> the keys of its action besides "cmd", as the command
# writes them, and their types; the protocol step that applies it to a
# system; and the text of its failure. A step looks its protocol function up
# when it runs, so a wrapper set on this module applies.
ACTIONS = {
    "init": ({"type": str, "addr": str, "param": int},
             lambda system, a: init_operation(system, OP_TYPES[a["type"]],
                                              a["addr"], a["param"]),
             "init rejected"),
    "confirm": ({"op_id": int, "otp": str},
                lambda system, a: confirm_operation(
                    system, a["op_id"], bytes.fromhex(a["otp"])),
                "confirmation rejected"),
    "subtree": ({}, lambda system, a: run_next_subtree(system),
                "subtree introduction failed"),
    "rotate": ({"mode": str}, lambda system, a: run_new_root(system, a["mode"]),
               "root rotation failed"),
}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        self.category = category
        super().__init__(message)


def parse_params(spec: str) -> TreeParams:
    try:
        s, n, p, ns, ls = (int(x) for x in spec.split(","))
        return TreeParams(S=s, N=n, P=p, N_S=ns, L_S=ls)
    except (ValueError, DomainError) as exc:
        raise CliError("usage", f"bad --params {spec!r}: {exc}") from exc


def _is_hex(text: str, nbytes: int) -> bool:
    return re.fullmatch(f"[0-9a-f]{{{2 * nbytes}}}", text) is not None


def _outside(obj: dict, schema: dict) -> str | None:
    """What keeps `obj` from holding exactly the keys of `schema`, each with
    a value of its type (a bool is not an int; `object` is any type), or
    None."""
    if obj.keys() != schema.keys():
        return f"keys {sorted(obj)}, not {sorted(schema)}"
    for key, kind in schema.items():
        if kind is not object and type(obj[key]) is not kind:
            return f"{key} as {type(obj[key]).__name__}, not {kind.__name__}"
    return None


def _world_problem(data: dict) -> str | None:
    """What keeps a version-4 `world.json` with a head from holding what
    `World.save` writes, or None; its actions are checked as they replay."""
    problem = _outside(data, {**WORLD_KEYS, "version": int, "head": dict})
    if problem:
        return problem
    for key, schema in (("head", HEAD_KEYS), ("params", PARAMS_KEYS)):
        problem = _outside(data[key], schema)
        if problem:
            return f"{key}: {problem}"
    if data["funding"] < 0:
        return "funding is negative"
    if data["mode"] not in MODES:
        return f"unknown mode {data['mode']}"
    for key, nbytes in (("seed_hex", 16), ("hw_seed_hex", 32)):
        if not _is_hex(data[key], nbytes):
            return f"{key} is not {nbytes} bytes of lowercase hex"
    try:
        TreeParams.from_dict(data["params"])
    except DomainError as exc:
        return f"params: {exc}"
    return None


def _malformed(action, otp_bytes: int) -> str | None:
    """What keeps a logged action from being one that a command writes, or
    None; an unknown command is left to `World.apply`."""
    if type(action) is not dict or type(action.get("cmd")) is not str:
        return "not an object with a command name"
    cmd = action["cmd"]
    if cmd not in ACTIONS:
        return None
    problem = _outside(action, {"cmd": str, **ACTIONS[cmd][0]})
    if problem:
        return f"{cmd}: {problem}"
    if cmd == "init" and action["type"] not in OP_TYPES:
        return f"unknown operation type {action['type']}"
    if cmd == "confirm" and not _is_hex(action["otp"], otp_bytes):
        return f"otp {action['otp']!r} is not {otp_bytes} bytes of lowercase hex"
    if cmd == "rotate" and action["mode"] not in MODES:
        return f"unknown mode {action['mode']}"
    return None


def _binding(log_hash, checkpoint: dict) -> str:
    """The hash of the log's digest and the checkpoint's BOUND_KEYS values.
    Their `repr` tells the types of JSON values apart, as JSON text does,
    and holds at most `N_S` rows of the index and of the initialised
    operations whatever the history, so a read command encodes no JSON."""
    bound = [log_hash.hexdigest(), *(checkpoint[key] for key in BOUND_KEYS)]
    return truncated_hash(repr(bound).encode()).hex()


def _log_line(action: dict) -> bytes:
    """One action as its line of the log."""
    text = json.dumps(action, separators=(",", ":"), sort_keys=True)
    return text.encode() + b"\n"


def _read_log(path: Path, size: int) -> bytes:
    """The log's first `size` bytes, its committed ones: bytes past them
    are a torn append. A missing log is empty."""
    try:
        log = store.FILES.read(path, size)
    except FileNotFoundError:
        log = b""
    except OSError as exc:
        raise CliError("state", f"cannot read {path}: {exc}") from exc
    if len(log) != size:
        raise CliError("state", f"{path} holds {len(log)} bytes, not the "
                                f"{size} that world.json commits")
    return log


def _parse_log(log: bytes) -> list:
    """The actions of the committed log bytes, each line parsed as one: a
    compact JSON line never holds a raw newline, and a line that holds two
    actions, `{...},{...}`, does not parse."""
    try:
        if log and not log.endswith(b"\n"):
            raise ValueError("the last line has no newline")
        return list(map(json.loads, log.split(b"\n")[:-1]))
    except ValueError as exc:
        raise CliError("state",
                       f"the action log does not parse: {exc}") from exc


# ---------------------------------------------------------------------------
# Persistent world: seeds, params and the head checkpoint, with an
# append-only action log

class World:
    def __init__(self, state_dir: Path, data: dict, log: bytes = b""):
        """`data` as `world.json` holds it, but for the head's checkpoint,
        which a load hands to `restore`. The world adds `data["actions"]`,
        the actions applied since the committed `log` bytes: the ones the
        next save appends, none after a load or a save."""
        self.state_dir = state_dir
        self.data = data
        data["actions"] = []
        self.system: System | None = None
        # The committed log: its action count, one per line, its length and
        # its digest.
        self.log_actions = log.count(b"\n")
        self.log_bytes = len(log)
        self.log_hash = hashlib.sha256(log)

    @classmethod
    def create(cls, state_dir: Path, mode: str, params: TreeParams,
               k: bytes, hw_seed: bytes, funding: int) -> "World":
        data = {
            "version": WORLD_VERSION,
            "mode": mode,
            "params": params.as_dict(),
            "seed_hex": k.hex(),
            "hw_seed_hex": hw_seed.hex(),
            "funding": funding,
        }
        return cls(state_dir, data)

    @classmethod
    def load(cls, state_dir: Path) -> "World":
        """The world in `state_dir`, restored from its checkpoint or
        replayed and checked against the recorded head state. A replay
        that lands on it saves a fresh head, whatever the command, so the
        next command restores; a write saves again at its commit."""
        path = state_dir / store.WORLD_NAME
        if not path.exists():
            raise CliError("state", f"no wallet state in {state_dir}; "
                                    "run `bootstrap` first")
        try:
            data = json.loads(store.FILES.read(path).decode())
            recorded = (data["head"]["state_hash"]
                        if data["version"] == WORLD_VERSION else None)
        except (LookupError, TypeError, ValueError):
            recorded = None
        if not isinstance(recorded, str):
            raise CliError("state", f"{path} is not a version-{WORLD_VERSION} "
                                    "world with a recorded head")
        head = data["head"]
        # The older layout's head holds the digest of a separate checkpoint
        # file instead, which is not read: that digest does not restore.
        if "checkpoint" not in head and "sha256" in head:
            head["checkpoint"] = head.pop("sha256")
        problem = _world_problem(data)
        if problem:
            raise CliError("state", f"{path}: {problem}")
        checkpoint = head.pop("checkpoint")
        log = _read_log(state_dir / store.LOG_NAME, head["log_bytes"])
        world = cls(state_dir, data, log)
        # The log is parsed only to replay, or when its line count is not
        # the head's, so that a log that does not parse is reported as such
        # before the count.
        if (world.log_actions != head["actions"]
                or not world.restore(checkpoint)):
            world.replay_log(log, head)
            world.save()
        return world

    def params(self) -> TreeParams:
        return TreeParams.from_dict(self.data["params"])

    def build_system(self) -> System:
        return make_parties_from_material(
            bytes.fromhex(self.data["seed_hex"]),
            bytes.fromhex(self.data["hw_seed_hex"]),
            self.params(), self.data["funding"])

    def replay_log(self, log: bytes, head: dict) -> None:
        """Set up the system as the replay from genesis of the committed
        `log` bytes: parse them into `data["actions"]`, check that they hold
        `head`'s action count, `replay` them, check that they land on its
        `state_hash`, and empty the list, as the log holds them; a state
        error otherwise."""
        actions = self.data["actions"] = _parse_log(log)
        if len(actions) != head["actions"]:
            raise CliError("state", f"the action log holds {len(actions)} "
                                    f"actions, not the {head['actions']} that "
                                    f"{self.state_dir / 'world.json'} commits")
        self.replay()
        actual = self.system.ledger.state_hash()
        if actual != head["state_hash"]:
            raise CliError("state", f"the action log replays to state "
                                    f"{actual}, not the recorded "
                                    f"{head['state_hash']}")
        actions.clear()

    def replay(self) -> None:
        """Set up the system as the bootstrap followed by the actions of
        `data["actions"]`; bootstrap replays none."""
        self.system = self.build_system()
        bootstrap_system(self.system, self.data["mode"],
                         self.data["funding"])
        otp_bytes = self.params().digest_bytes
        for i, action in enumerate(self.data["actions"]):
            problem = _malformed(action, otp_bytes)
            if problem:
                raise CliError("state", f"malformed action {i} in the "
                                        f"action log: {problem}")
            self.apply(action)

    def apply(self, action: dict) -> dict:
        cmd = action["cmd"]
        if cmd not in ACTIONS:
            raise CliError("state", f"unknown action in the action log: {cmd}")
        _, step, failed = ACTIONS[cmd]
        outcome = step(self.system, action)
        if not outcome["ok"]:
            raise CliError("protocol", f"{failed}: {outcome['status']}")
        return outcome

    def commit(self, action: dict) -> dict:
        """Apply `action` and save it, once the owner key that `hw_seed_hex`
        derives is the wallet contract's, which no restore checks (see the
        module docstring)."""
        system = self.system
        if system.hw.public != system.contract.pk:
            raise CliError("state", "the key of hw_seed_hex is not the wallet "
                                    "contract's owner key")
        result = self.apply(action)
        self.data["actions"].append(action)
        self.save()
        return result

    def restore(self, checkpoint) -> bool:
        """Set up the system from the head's parsed checkpoint, without
        replaying; False when it is not one that a save writes (one that
        holds a number that is not an int, say), its binding is not the
        digest of the log bytes and the fields it binds, the restored
        ledger, whose contract has the world's params, hashes to another
        state, or that state does not hold exactly one contract with a
        record in its current subtree of every initialised operation of that
        subtree, whose init txid the restored txid index holds. A row
        below the current subtree's first op id, which older saves kept,
        does not bind: it is refused before its record is looked up. Only
        then is the rest derived from the contract, so the state hash covers
        it: the generation, the client's subtree, and each initialised
        operation's type, address and parameter. The parties are built
        around the restored ledger, and derive only what the command reads:
        the client gets the seed's tree at that generation as its tree
        source, and builds it on its first proof, and the owner key is
        derived on its first signature (`commit` checks it first). The
        confirmed transfers are taken as stored. The chain below the head
        is read, if ever, by `_chain_reader`."""
        try:
            k, params = bytes.fromhex(self.data["seed_hex"]), self.params()
            ledger = Ledger.from_checkpoint(checkpoint, params,
                                            self._chain_reader())
            if (checkpoint["binding"] != _binding(self.log_hash, checkpoint)
                    or ledger.state_hash() != self.data["head"]["state_hash"]):
                return False
            system = make_parties(k, HardwareWallet(signing.keygen(
                bytes.fromhex(self.data["hw_seed_hex"]))), params, ledger)
            (system.contract_id,) = ledger.head.state.contracts
            contract = system.contract
            system.authenticator.eta = eta = contract.next_op_id // params.N
            system.client = ClientStore(
                levels=None, params=params, eta=eta,
                current_subtree=(contract.current_subtree
                                 - eta * params.subtree_count),
                tree_source=lambda: generation_levels(k, params, eta))
            floor = contract.current_subtree * params.N_S
            kept = ledger.tx_heights[ledger.canonical]
            for op_id, txid in checkpoint["initialised"]:
                if op_id < floor or txid not in kept:
                    return False
                record = contract.operations[op_id]
                system.initialised[op_id] = (txid, record.type, record.addr,
                                             record.param)
            system.confirmed_transfers = [
                tuple(t) for t in checkpoint["confirmed_transfers"]]
        except (LookupError, TypeError, ValueError, LedgerError):
            return False
        self.system = system
        return True

    def _chain_reader(self):
        """A reader of the canonical chain up to the head as loaded: it
        re-reads the log's committed bytes of now and replays them, checked
        against that head, in a fresh world that it does not save, and
        returns that world's chain. LedgerError when they do not parse,
        replay or land on the head's state."""
        size, head = self.log_bytes, self.data["head"]

        def read() -> list:
            try:
                log = _read_log(self.state_dir / store.LOG_NAME, size)
                twin = World(self.state_dir, dict(self.data), log)
                twin.replay_log(log, head)
            except (CliError, ProtocolAbort, ValueError, OSError) as exc:
                raise LedgerError(f"the action log does not replay: "
                                  f"{exc}") from exc
            return twin.system.ledger.chain
        return read

    def save(self) -> None:
        """Commit the lines of the actions in `data["actions"]` and
        `world.json`, which commits them and holds the head checkpoint, by
        `store.commit`, and empty the list."""
        actions = self.data["actions"]
        lines = b"".join(map(_log_line, actions))
        log_hash = self.log_hash.copy()
        log_hash.update(lines)
        system, ledger = self.system, self.system.ledger
        checkpoint = ledger.checkpoint(
            keep=[txid for txid, *_ in system.initialised.values()])
        checkpoint.update(
            initialised=[[op_id, txid] for op_id, (txid, *_)
                         in system.initialised.items()],
            confirmed_transfers=system.confirmed_transfers)
        checkpoint["binding"] = _binding(log_hash, checkpoint)
        head = {
            "actions": self.log_actions + len(actions),
            "log_bytes": self.log_bytes + len(lines),
            "state_hash": ledger.state_hash(),
        }
        fields = {key: self.data[key] for key in (*WORLD_KEYS, "version")}
        world = json.dumps(
            {**fields, "head": {**head, "checkpoint": checkpoint}},
            separators=(",", ":"))
        store.commit(self.state_dir, self.log_bytes, lines, world.encode())
        self.data["head"] = head
        self.log_actions, self.log_bytes = head["actions"], head["log_bytes"]
        self.log_hash = log_hash
        actions.clear()


# ---------------------------------------------------------------------------
# Command handlers

def _state_dir(args) -> Path:
    """`--state-dir`, else OTPWALLET_STATE as the environment holds it now,
    else DEFAULT_STATE_DIR."""
    if args.state_dir is not None:
        return Path(args.state_dir)
    return Path(os.environ.get(STATE_ENV, DEFAULT_STATE_DIR))


def read_seeds(seed_file: str | None) -> tuple[bytes, bytes]:
    """The seed k and the signing-key seed, from `seed_file`, else from
    OTPWALLET_SEED, else fresh: one hex word of 16 bytes, optionally
    followed by a hex word of 32 bytes (derived from k when absent)."""
    if seed_file:
        try:
            words = store.FILES.read(Path(seed_file)).decode().split()
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError("usage", f"cannot read --seed-file: {exc}") from exc
    else:
        words = (os.environ.get(SEED_ENV) or random_seed().hex()).split()
    try:
        seeds = [bytes.fromhex(word) for word in words]
    except ValueError:
        seeds = []
    if not 1 <= len(seeds) <= 2 or any(
            len(seed) != size for seed, size in zip(seeds, (16, 32))):
        raise CliError("usage", "the seed must be a hex word of 16 bytes, "
                                "optionally followed by a hex key seed of "
                                "32 bytes")
    k = seeds[0]
    return k, seeds[1] if len(seeds) == 2 else DEFAULT_BASE_HASH(k + b"hw-key")


def cmd_bootstrap(args) -> int:
    state_dir = _state_dir(args)
    if (state_dir / store.WORLD_NAME).exists():
        raise CliError("state", f"{state_dir} already holds a wallet")
    params = parse_params(args.params if args.params is not None
                          else os.environ.get(PARAMS_ENV, DEFAULT_PARAMS_SPEC))
    if args.funding < 0:
        raise CliError("usage", f"bad --funding {args.funding}: negative")
    k, hw_seed = read_seeds(args.seed_file)
    world = World.create(state_dir, args.mode, params, k, hw_seed,
                         args.funding)
    world.replay()
    world.save()
    print(f"contractId: {world.system.contract_id}")
    print(f"owner account: {world.system.user_account}")
    print("seed backup:", " ".join(mnemonic.encode(k)))
    return 0


def cmd_op_init(args) -> int:
    world = World.load(_state_dir(args))
    result = world.commit({"cmd": "init", "type": args.type,
                           "addr": args.addr, "param": args.param})
    print(f"opID: {result['op_id']}")
    return 0


def cmd_op_confirm(args) -> int:
    world = World.load(_state_dir(args))
    otp = mnemonic.parse_otp(args.otp, world.params().digest_bytes)
    result = world.commit({"cmd": "confirm", "op_id": args.op_id,
                           "otp": otp.hex()})
    contract = world.system.contract
    print(f"confirmed opID {result['op_id']} (tx {result['txid']})")
    print(f"wallet balance: {world.system.ledger.accounts[contract.contract_id]}")
    return 0


def cmd_otp_show(args) -> int:
    world = World.load(_state_dir(args))
    system = world.system
    # Only the current generation's operations: the client refuses the rest
    # and names the id as typed.
    otp = system.authenticator.get_otp(system.client._relative(args.op_id))
    print("otp hex:  ", otp.hex())
    print("otp words:", " ".join(mnemonic.encode(otp)))
    return 0


def cmd_root_show(args) -> int:
    world = World.load(_state_dir(args))
    print("authenticator root:", world.system.authenticator.display_root().hex())
    print("contract root:     ", world.system.contract.root.hex())
    return 0


def cmd_subtree_next(args) -> int:
    world = World.load(_state_dir(args))
    world.commit({"cmd": "subtree"})
    print(f"current subtree: {world.system.contract.current_subtree}")
    return 0


def cmd_root_rotate(args) -> int:
    world = World.load(_state_dir(args))
    world.commit({"cmd": "rotate", "mode": args.mode})
    print(f"new root: {world.system.contract.root.hex()}")
    print(f"generation: {world.system.client.eta}")
    return 0


def cmd_attack_run(args) -> int:
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    failed = False
    for name in names:
        result = run_scenario(name, args.seed)
        print("\n".join(result.lines()))
        failed |= not result.passed
    return 1 if failed else 0


def parse_grid(spec: str) -> tuple[list[int], list[int], list[int] | None]:
    hs, ps, ls = [7, 8, 9, 10], [1], None

    def expand(key: str, val: str, least: int) -> list[int]:
        """The axis' values; a usage error unless there is at least one
        and none is below `least`."""
        try:
            if ".." in val:
                lo, hi = val.split("..")
                values = list(range(int(lo), int(hi) + 1))
            else:
                values = [int(x) for x in val.split("+")]
        except ValueError as exc:
            raise CliError("usage", f"bad --grid value {val!r}: {exc}") from exc
        if not values:
            raise CliError("usage", f"--grid {key}={val} sweeps no values")
        if min(values) < least:
            raise CliError("usage", f"--grid {key} must be at least {least}: "
                                    f"{val}")
        return values

    for part in filter(None, spec.split(",")):
        key, _, val = part.partition("=")
        key = key.strip().upper()
        if key == "H":
            hs = expand(key, val, 0)
        elif key == "P":
            ps = expand(key, val, 1)
        elif key == "L":
            ls = None if val.strip().lower() == "all" else expand(key, val, 0)
        else:
            raise CliError("usage", f"unknown grid key {key!r}")
    return hs, ps, ls


def cmd_cost_sweep(args) -> int:
    from . import cost_model
    hs, ps, ls = parse_grid(args.grid)
    for row in cost_model.sweep(hs, ps, ls):
        print(row)
    return 0


def cmd_security_calc(args) -> int:
    from . import cost_model, security_calc
    for line in security_calc.report(args.lambda_bits, args.leaves):
        print(line)
    for line in cost_model.security_note(args.lambda_bits, args.leaves):
        print(line)
    return 0


def cmd_mnemonic(args) -> int:
    if args.direction == "encode":
        if len(args.value) != 1:
            raise CliError("usage", "mnemonic encode takes one hex value")
        print(" ".join(mnemonic.encode(bytes.fromhex(args.value[0]))))
    else:
        print(mnemonic.decode(args.value).hex())
    return 0


# ---------------------------------------------------------------------------

# Command -> its help, then either its handler and its arguments or its
# subcommands, each with its help (None: not listed), handler and arguments,
# in the order help lists them. An argument is its name -> the keywords of
# its `add_argument`. A command's subcommand lands in `<command>_command`.
COMMANDS = {
    "bootstrap": ("deploy a fresh wallet", cmd_bootstrap, {
        "--mode": dict(choices=MODES, default="secure"),
        "--params": dict(help="S,N,P,NS,LS (env OTPWALLET_PARAMS)"),
        "--seed-file": dict(
            help="file with hex seed (and optional hex key seed)"),
        "--funding": dict(type=int, default=1000)}),
    "op": ("two-stage wallet operations", {
        "init": ("initialize (first factor)", cmd_op_init, {
            "--type": dict(required=True, choices=sorted(OP_TYPES)),
            "--addr": dict(default=""),
            "--param": dict(type=int, default=0)}),
        "confirm": ("confirm with an OTP (second factor)", cmd_op_confirm, {
            "--op-id": dict(type=int, required=True),
            "--otp": dict(required=True,
                          help="hex digest or mnemonic words (quoted)")})}),
    "otp": ("authenticator displays", {
        "show": (None, cmd_otp_show, {
            "--op-id": dict(type=int, required=True)})}),
    "subtree": ("subtree lifecycle", {
        "next": ("introduce the next subtree", cmd_subtree_next, {})}),
    "root": ("parent-root lifecycle", {
        "rotate": ("replace the parent root", cmd_root_rotate, {
            "--mode": dict(choices=MODES, default="secure")}),
        "show": (None, cmd_root_show, {})}),
    "attack": ("adversary scenarios", {
        "run": (None, cmd_attack_run, {
            "scenario": dict(choices=sorted(SCENARIOS) + ["all"]),
            "--seed": dict(type=int, default=0)})}),
    "cost": ("cost model", {
        "sweep": (None, cmd_cost_sweep, {
            "--grid": dict(default="H=7..10,P=1,L=all",
                           help='e.g. "H=7..10,P=1+2,L=all"')})}),
    "security": ("security bounds", {
        "calc": (None, cmd_security_calc, {
            "--lambda": dict(dest="lambda_bits", type=int, required=True),
            "--leaves": dict(type=int, required=True)})}),
    "mnemonic": ("mnemonic codec", cmd_mnemonic, {
        "direction": dict(choices=["encode", "decode"]),
        "value": dict(nargs="+",
                      help="hex string (encode) or words (decode)")}),
}


def _add_command(sub, name: str, help_text: str | None, *spec) -> None:
    """Add the parser of command `name` to `sub`, listed with its help if
    it has one; `spec` is its handler and arguments, or its subcommands."""
    p = sub.add_parser(name, **({"help": help_text} if help_text else {}))
    if len(spec) == 1:
        children = p.add_subparsers(dest=f"{name}_command", required=True)
        for child, child_spec in spec[0].items():
            _add_command(children, child, *child_spec)
    else:
        for arg, kwargs in spec[1].items():
            p.add_argument(arg, **kwargs)
        p.set_defaults(fn=spec[0])


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in COMMANDS. It reads no environment,
    so one parser serves every command line of a process."""
    parser = argparse.ArgumentParser(
        prog="otpwallet",
        description="Hash-chain OTP wallet protocol simulator")
    parser.add_argument("--state-dir",
                        help="wallet state directory (env OTPWALLET_STATE)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        _add_command(sub, name, *spec)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process. A parser can be reused: a
    parse neither changes it nor shares its Namespace."""
    return build_parser()


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the process's one parser of every command."""
    return _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 2 if exc.category == "usage" else 1
    except (Revert, ProtocolAbort, DomainError, LedgerError,
            MnemonicError) as exc:
        category = exc.category if isinstance(exc, Revert) else \
            type(exc).__name__.lower().removesuffix("error")
        print(f"error: {category}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: value: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: state: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
