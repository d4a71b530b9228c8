"""Command-line front door.

The simulated world persists between invocations as a replayable action
log: every command that changes state is appended to `world.json` in the
state directory, and loading replays the log from genesis. Determinism of
the whole stack makes the replay bit-exact, and the log doubles as an
audit trail.

Exit codes: 0 success, 1 protocol or state failure (one categorized
`error:` line on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import mnemonic, security_calc
from .authenticator import Authenticator
from .contract import OpType, Revert
from .hashing import DomainError, base_hash_256, random_seed
from .ledger import LedgerError, Transaction
from .merkle import TreeParams
from .mnemonic import MnemonicError
from .protocols import (
    ProtocolAbort,
    System,
    bootstrap_system,
    confirm_operation,
    init_operation,
    make_parties_from_material,
    run_new_root,
    run_next_subtree,
)
# Not called here; kept bound because bench/tracing.py wraps it on this module.
from .protocols import submit_signed  # noqa: F401
from . import cost_model
from .scenarios import SCENARIOS, run_scenario

STATE_ENV = "OTPWALLET_STATE"
PARAMS_ENV = "OTPWALLET_PARAMS"
SEED_ENV = "OTPWALLET_SEED"
DEFAULT_STATE_DIR = ".otpwallet"
DEFAULT_PARAMS_SPEC = "128,16,2,8,1"

OP_TYPES = {t.value: t for t in OpType}


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


# ---------------------------------------------------------------------------
# Persistent world: seeds + params + action log, replayed on load

class World:
    def __init__(self, state_dir: Path, data: dict):
        self.state_dir = state_dir
        self.data = data
        self.system: System | None = None

    @property
    def path(self) -> Path:
        return self.state_dir / "world.json"

    @classmethod
    def create(cls, state_dir: Path, mode: str, params: TreeParams,
               k: bytes, hw_seed: bytes, funding: int) -> "World":
        data = {
            "version": 1,
            "mode": mode,
            "params": params.as_dict(),
            "seed_hex": k.hex(),
            "hw_seed_hex": hw_seed.hex(),
            "funding": funding,
            "actions": [],
        }
        return cls(state_dir, data)

    @classmethod
    def load(cls, state_dir: Path) -> "World":
        path = state_dir / "world.json"
        if not path.exists():
            raise CliError("state", f"no wallet state in {state_dir}; "
                                    "run `bootstrap` first")
        world = cls(state_dir, json.loads(path.read_text()))
        world.replay()
        return world

    def params(self) -> TreeParams:
        p = self.data["params"]
        return TreeParams(S=p["S"], N=p["N"], P=p["P"], N_S=p["NS"],
                          L_S=p["LS"], LEN_MAX=p.get("LEN_MAX", 8))

    def build_system(self) -> System:
        return make_parties_from_material(
            bytes.fromhex(self.data["seed_hex"]),
            bytes.fromhex(self.data["hw_seed_hex"]),
            self.params(), self.data["funding"])

    def replay(self) -> None:
        self.system = self.build_system()
        bootstrap_system(self.system, self.data["mode"],
                         self.data["funding"])
        for action in self.data["actions"]:
            self.apply(action)

    def apply(self, action: dict) -> dict:
        system = self.system
        cmd = action["cmd"]
        if cmd == "init":
            return _do_init(system, OP_TYPES[action["type"]],
                            action["addr"], int(action["param"]))
        if cmd == "confirm":
            return _do_confirm(system, int(action["op_id"]),
                               bytes.fromhex(action["otp"]))
        if cmd == "subtree":
            outcome = run_next_subtree(system)
            if not outcome["ok"]:
                raise CliError("protocol", f"subtree introduction failed: "
                                           f"{outcome['status']}")
            return outcome
        if cmd == "rotate":
            outcome = run_new_root(system, action["mode"])
            if not outcome["ok"]:
                raise CliError("protocol",
                               f"root rotation failed: {outcome['status']}")
            return outcome
        if cmd == "fund":
            ledger = system.ledger
            tx = Transaction(action["from"], {
                "fn": "transfer", "to": action["to"],
                "amount": int(action["amount"])},
                fee=1, nonce=ledger.next_nonce(action["from"]))
            ledger.submit(tx)
            ledger.mine_block()
            return {"ok": True}
        raise CliError("state", f"unknown action in world log: {cmd}")

    def commit(self, action: dict) -> dict:
        result = self.apply(action)
        self.data["actions"].append(action)
        self.save()
        return result

    def save(self) -> None:
        """Write each file to a temp file, then move it into place;
        `world.json` goes last, so a failed save leaves the previous world."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        client = self.system.client
        for name, text in (
                ("client.leaves", client.dump_leaves()),
                ("client.json", client.sidecar() + "\n"),
                ("world.json", json.dumps(self.data, indent=1, sort_keys=True))):
            tmp = self.state_dir / (name + ".tmp")
            tmp.write_text(text)
            os.replace(tmp, self.state_dir / name)


def _do_init(system: System, op_type: OpType, addr: str, param: int) -> dict:
    outcome = init_operation(system, op_type, addr, param)
    if not outcome["ok"]:
        raise CliError("protocol", f"init rejected: {outcome['status']}")
    return outcome


def _do_confirm(system: System, op_id: int, otp: bytes) -> dict:
    outcome = confirm_operation(system, op_id, otp)
    if not outcome["ok"]:
        raise CliError("protocol",
                       f"confirmation rejected: {outcome['status']}")
    return outcome


# ---------------------------------------------------------------------------
# Command handlers

def cmd_bootstrap(args) -> int:
    state_dir = Path(args.state_dir)
    if (state_dir / "world.json").exists():
        raise CliError("state", f"{state_dir} already holds a wallet")
    params = parse_params(args.params)
    if args.seed_file:
        lines = Path(args.seed_file).read_text().split()
    elif os.environ.get(SEED_ENV):
        lines = os.environ[SEED_ENV].split()
    else:
        lines = [random_seed().hex()]
    try:
        k = bytes.fromhex(lines[0])
    except ValueError as exc:
        raise CliError("usage", f"seed is not hex: {lines[0]!r}") from exc
    if len(k) != 16:
        raise CliError("usage", "seed must be 16 hex-encoded bytes")
    hw_seed = (bytes.fromhex(lines[1]) if len(lines) > 1
               else base_hash_256(k + b"hw-key"))
    world = World.create(state_dir, args.mode, params, k, hw_seed,
                         args.funding)
    world.system = world.build_system()
    bootstrap_system(world.system, args.mode, args.funding)
    world.save()
    print(f"contractId: {world.system.contract_id}")
    print(f"owner account: {world.system.user_account}")
    print("seed backup:", " ".join(mnemonic.encode(k)))
    return 0


def cmd_op_init(args) -> int:
    world = World.load(Path(args.state_dir))
    op_type = OP_TYPES.get(args.type)
    if op_type is None:
        raise CliError("usage", f"unknown operation type {args.type!r}")
    result = world.commit({"cmd": "init", "type": op_type.value,
                           "addr": args.addr, "param": args.param})
    print(f"opID: {result['op_id']}")
    return 0


def cmd_op_confirm(args) -> int:
    world = World.load(Path(args.state_dir))
    otp = mnemonic.parse_otp(args.otp, world.params().digest_bytes)
    result = world.commit({"cmd": "confirm", "op_id": args.op_id,
                           "otp": otp.hex()})
    contract = world.system.contract
    print(f"confirmed opID {result['op_id']} (tx {result['txid']})")
    print(f"wallet balance: {world.system.ledger.accounts[contract.contract_id]}")
    return 0


def cmd_otp_show(args) -> int:
    world = World.load(Path(args.state_dir))
    auth: Authenticator = world.system.authenticator
    otp = auth.get_otp(args.op_id % world.params().N)
    print("otp hex:  ", otp.hex())
    print("otp words:", " ".join(mnemonic.encode(otp)))
    return 0


def cmd_root_show(args) -> int:
    world = World.load(Path(args.state_dir))
    print("authenticator root:", world.system.authenticator.display_root().hex())
    print("contract root:     ", world.system.contract.root.hex())
    return 0


def cmd_subtree_next(args) -> int:
    world = World.load(Path(args.state_dir))
    world.commit({"cmd": "subtree"})
    print(f"current subtree: {world.system.contract.current_subtree}")
    return 0


def cmd_root_rotate(args) -> int:
    world = World.load(Path(args.state_dir))
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

    def expand(val: str) -> list[int]:
        if ".." in val:
            lo, hi = val.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(x) for x in val.split("+")]

    for part in filter(None, spec.split(",")):
        key, _, val = part.partition("=")
        key = key.strip().upper()
        if key == "H":
            hs = expand(val)
        elif key == "P":
            ps = expand(val)
        elif key == "L":
            ls = None if val.strip().lower() == "all" else expand(val)
        else:
            raise CliError("usage", f"unknown grid key {key!r}")
    return hs, ps, ls


def cmd_cost_sweep(args) -> int:
    hs, ps, ls = parse_grid(args.grid)
    for row in cost_model.sweep(hs, ps, ls):
        print(row)
    return 0


def cmd_security_calc(args) -> int:
    for line in security_calc.report(args.lambda_bits, args.leaves):
        print(line)
    for line in cost_model.security_note(args.lambda_bits, args.leaves):
        print(line)
    return 0


def cmd_mnemonic(args) -> int:
    if args.direction == "encode":
        print(" ".join(mnemonic.encode(bytes.fromhex(args.value[0]))))
    else:
        print(mnemonic.decode(args.value).hex())
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otpwallet",
        description="Hash-chain OTP wallet protocol simulator")
    parser.add_argument("--state-dir",
                        default=os.environ.get(STATE_ENV, DEFAULT_STATE_DIR),
                        help="wallet state directory (env OTPWALLET_STATE)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bootstrap", help="deploy a fresh wallet")
    p.add_argument("--mode", choices=["secure", "insecure"], default="secure")
    p.add_argument("--params",
                   default=os.environ.get(PARAMS_ENV, DEFAULT_PARAMS_SPEC),
                   help="S,N,P,NS,LS (env OTPWALLET_PARAMS)")
    p.add_argument("--seed-file", help="file with hex seed (and optional hex key seed)")
    p.add_argument("--funding", type=int, default=1000)
    p.set_defaults(fn=cmd_bootstrap)

    p = sub.add_parser("op", help="two-stage wallet operations")
    op_sub = p.add_subparsers(dest="op_command", required=True)
    q = op_sub.add_parser("init", help="initialize (first factor)")
    q.add_argument("--type", required=True,
                   choices=sorted(OP_TYPES))
    q.add_argument("--addr", default="")
    q.add_argument("--param", type=int, default=0)
    q.set_defaults(fn=cmd_op_init)
    q = op_sub.add_parser("confirm", help="confirm with an OTP (second factor)")
    q.add_argument("--op-id", type=int, required=True)
    q.add_argument("--otp", required=True,
                   help="hex digest or mnemonic words (quoted)")
    q.set_defaults(fn=cmd_op_confirm)

    p = sub.add_parser("otp", help="authenticator displays")
    otp_sub = p.add_subparsers(dest="otp_command", required=True)
    q = otp_sub.add_parser("show")
    q.add_argument("--op-id", type=int, required=True)
    q.set_defaults(fn=cmd_otp_show)

    p = sub.add_parser("subtree", help="subtree lifecycle")
    st_sub = p.add_subparsers(dest="subtree_command", required=True)
    q = st_sub.add_parser("next", help="introduce the next subtree")
    q.set_defaults(fn=cmd_subtree_next)

    p = sub.add_parser("root", help="parent-root lifecycle")
    rt_sub = p.add_subparsers(dest="root_command", required=True)
    q = rt_sub.add_parser("rotate", help="replace the parent root")
    q.add_argument("--mode", choices=["secure", "insecure"], default="secure")
    q.set_defaults(fn=cmd_root_rotate)
    q = rt_sub.add_parser("show")
    q.set_defaults(fn=cmd_root_show)

    p = sub.add_parser("attack", help="adversary scenarios")
    at_sub = p.add_subparsers(dest="attack_command", required=True)
    q = at_sub.add_parser("run")
    q.add_argument("scenario", choices=sorted(SCENARIOS) + ["all"])
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_attack_run)

    p = sub.add_parser("cost", help="cost model")
    c_sub = p.add_subparsers(dest="cost_command", required=True)
    q = c_sub.add_parser("sweep")
    q.add_argument("--grid", default="H=7..10,P=1,L=all",
                   help='e.g. "H=7..10,P=1+2,L=all"')
    q.set_defaults(fn=cmd_cost_sweep)

    p = sub.add_parser("security", help="security bounds")
    s_sub = p.add_subparsers(dest="security_command", required=True)
    q = s_sub.add_parser("calc")
    q.add_argument("--lambda", dest="lambda_bits", type=int, required=True)
    q.add_argument("--leaves", type=int, required=True)
    q.set_defaults(fn=cmd_security_calc)

    p = sub.add_parser("mnemonic", help="mnemonic codec")
    p.add_argument("direction", choices=["encode", "decode"])
    p.add_argument("value", nargs="+",
                   help="hex string (encode) or words (decode)")
    p.set_defaults(fn=cmd_mnemonic)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
