"""Merkle aggregation of chain ends, proofs, cached sublayers, index math.

Layout. N operations are served by N/P hash chains of length P. Chain ends
(position P) are the leaves of the parent tree (height H = log2(N/P)).
Leaves are grouped into subtrees of N_S/P leaves (height H_S); the 2^L_S
nodes at depth L_S of the current subtree are cached on-chain so confirm
proofs stop early (length H_S - L_S).

Levels. `build_levels` hashes a tree once into its levels, leaves first;
every proof and cached sublayer is then a read of those levels: `path`
walks siblings from one level up to another, `sublayer_in` slices level
H_S - L_S. A holder of the levels (the client) pays no hash per proof. The
leaf-list functions `gen_proof`, `sublayer_of`, `subtree_root_proof` and
`proof_to_sublayer` build the levels and read them once, for one-shot use.
`build_levels` and `reduce_mt` hash each level in one pass, `_hash_level`:
one size check per level, then per span of 1 024 nodes one join, one
translate that clears every parity bit, and one hash per adjacent pair,
sliced from the span. `pair_hash` is the single-pair form that proof folds
use, and the reference the kernel equals. `seed_levels` is the tree a seed
derives, `build_levels(all_leaves(...))`, and the one path the client takes
to it. A tree of at least `_SPLIT_LEAVES` leaves hashed with the default
base, in a process with one thread that may run on two CPUs or more, is
derived in two processes: one forked child derives the right half's leaves
and levels and sends them back through a pipe, while the caller derives the
left half; the caller joins the halves and hashes the root. A child that
fails or sends a short answer costs the caller the right half, derived
again in process; no child outlives the call. A metering `base` never
splits, so it sees every hash in process.

Proof encoding. A proof sibling's least significant bit (bit 0 of its last
byte) is overwritten with the sibling's parity: 1 means the sibling is the
right child. The node pair hash therefore masks that bit of both children
to zero before hashing - the one bit of sibling integrity the encoding
gives up. The parity bits double as an index check: a proof's parity
pattern is the bitwise complement of the leaf position it belongs to, and
verifiers compare it against the expected position mapped through the same
convention.

Metering. Every hashing function evaluates its hashes through its `base`
argument, one call per hash, so a counting `base` meters the work as it
runs, and a call that fails partway still counts what it hashed. The
level kernel keeps this: one `base` call per pair, left to right, and a
level that fails its size check hashes nothing. Each party passes its own:
the authenticator's and the client's `base` field, and for a contract call
the `base` method of the call's `CallTrace`.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass

from .hashing import (
    DEFAULT_BASE_HASH,
    SEED_BYTES,
    Digest,
    DomainError,
    HashFn,
    Seed,
    chain_extend,
)

LEAF_FILE_MAGIC = "smartotps-leaves"


@dataclass(frozen=True)
class TreeParams:
    """All scheme parameters, with the derived tree heights."""

    S: int = 128           # OTP / digest bit length
    N: int = 16            # operations per parent tree
    P: int = 2             # chain length
    N_S: int = 8           # operations per subtree
    L_S: int = 1           # cached-sublayer depth within a subtree
    LEN_MAX: int = 8       # bound on the root-replacement lists

    def __post_init__(self):
        if self.S % 8 != 0 or not 128 <= self.S <= 256:
            raise DomainError(f"S must be a multiple of 8 in [128, 256]: {self.S}")
        if self.P < 1 or self.N_S % self.P != 0:
            raise DomainError("P must divide N_S")
        if self.N % self.N_S != 0:
            raise DomainError("N_S must divide N")
        for leaves in (self.N // self.P, self.N_S // self.P):
            if leaves < 1 or leaves & (leaves - 1):
                raise DomainError(f"leaf counts must be powers of two: {leaves}")
        if not 0 <= self.L_S <= self.H_S:
            raise DomainError(f"L_S must be in [0, {self.H_S}]: {self.L_S}")
        if self.LEN_MAX < 1:
            raise DomainError("LEN_MAX must be >= 1")

    @property
    def leaves(self) -> int:
        return self.N // self.P

    @property
    def subtree_leaves(self) -> int:
        return self.N_S // self.P

    @property
    def subtree_count(self) -> int:
        return self.N // self.N_S

    @property
    def H(self) -> int:
        return (self.N // self.P).bit_length() - 1

    @property
    def H_S(self) -> int:
        return (self.N_S // self.P).bit_length() - 1

    @property
    def digest_bytes(self) -> int:
        return self.S // 8

    def as_dict(self) -> dict:
        return {"S": self.S, "N": self.N, "P": self.P,
                "NS": self.N_S, "LS": self.L_S, "LEN_MAX": self.LEN_MAX}

    @classmethod
    def from_dict(cls, p: dict) -> "TreeParams":
        """The inverse of `as_dict`."""
        return cls(S=p["S"], N=p["N"], P=p["P"], N_S=p["NS"], L_S=p["LS"],
                   LEN_MAX=p["LEN_MAX"])


@dataclass(frozen=True)
class MerkleProof:
    """Ordered siblings, leaf to top, parity in each digest's LSB."""

    siblings: tuple[Digest, ...]

    def __len__(self) -> int:
        return len(self.siblings)


@dataclass
class SubtreeLayer:
    """The 2^L_S cached nodes at depth L_S of subtree `index`."""

    nodes: list[Digest]
    index: int = 0


# ---------------------------------------------------------------------------
# Operation-id index arithmetic (shared by authenticator, client, contract)

def alpha(i: int, params: TreeParams) -> int:
    """Chain position of OTP_i: P - floor((i % N_S) * P / N_S) - 1."""
    return params.P - ((i % params.N_S) * params.P) // params.N_S - 1


def chain_offset(i: int, params: TreeParams) -> int:
    """a(i) = floor((i % N_S) * P / N_S); the verifier runs a(i)+1 steps."""
    return ((i % params.N_S) * params.P) // params.N_S


def beta(i: int, params: TreeParams) -> int:
    """Leaf (chain) index for OTP_i within the parent tree."""
    w = params.subtree_leaves
    return (i % params.N) // params.N_S * w + i % w


def layer_of(i: int, params: TreeParams) -> int:
    """Iteration layer of OTP_i; layer 1 (chain position P-1) goes first."""
    return chain_offset(i, params) + 1


# ---------------------------------------------------------------------------
# Parity bit helpers and the node pair hash

def lsb(d: Digest) -> int:
    if not d:
        raise DomainError("an empty digest has no parity bit")
    return d[-1] & 1

# The parity mask: _PARITY_CLEAR[b] is byte b with its parity bit cleared,
# a `bytes.translate` table; _CLEARED[b] is the same byte as a one-byte
# string.
_PARITY_CLEAR = bytes(b & 0xFE for b in range(256))
_CLEARED = tuple(_PARITY_CLEAR[b:b + 1] for b in range(256))

def with_lsb(d: Digest, bit: int) -> Digest:
    return d[:-1] + bytes([_PARITY_CLEAR[d[-1]] | bit])

def _mask(d: Digest) -> Digest:
    return d[:-1] + _CLEARED[d[-1]]


def pair_hash(left: Digest, right: Digest,
              base: HashFn = DEFAULT_BASE_HASH) -> Digest:
    """Parent node value; the LSB of each child is outside hash coverage.

    Both children must be digests of one size in 16..32 bytes; the parent
    has that size too.
    """
    n = len(left)
    if n != len(right) or not 16 <= n <= 32:
        raise DomainError(f"children must be equal-size 16..32 byte digests: "
                          f"{n} and {len(right)} bytes")
    return base(_mask(left) + _mask(right))[:n]


# Nodes `_hash_level` joins at a time. Joining a whole level instead keeps
# a second copy of it alive: a 16 384-leaf build then peaks 0.8 MB higher.
_SPAN = 1024

def _hash_level(level: list[Digest], base: HashFn) -> list[Digest]:
    """The parent level of an even-length node list: `pair_hash` of each
    adjacent pair, left to right, one `base` call per pair, with one size
    check for the whole level."""
    size = len(level[0])
    if not 16 <= size <= 32 or set(map(len, level)) != {size}:
        raise DomainError(f"children must be equal-size 16..32 byte digests: "
                          f"{sorted(set(map(len, level)))} bytes")
    step = 2 * size
    parents = []
    for start in range(0, len(level), _SPAN):
        buf = bytearray().join(level[start:start + _SPAN])
        buf[size - 1::size] = buf[size - 1::size].translate(_PARITY_CLEAR)
        buf = bytes(buf)
        parents += [base(buf[i:i + step])[:size]
                    for i in range(0, len(buf), step)]
    return parents


# ---------------------------------------------------------------------------
# Tree construction and proofs

def _check_chains(k: Seed, first: int, count: int, params: TreeParams) -> None:
    if len(k) != SEED_BYTES:
        raise DomainError(f"seed must be {SEED_BYTES} bytes, got {len(k)}")
    if first < 0 or first + count > 2**32:
        raise DomainError(f"prf inputs out of range: {first}..{first + count - 1}")
    if params.P < 1:
        raise DomainError(f"chain length must be >= 1: {params.P}")


def _chain_ends(k: Seed, first: int, count: int, params: TreeParams,
                base: HashFn) -> list[Digest]:
    """Chain ends (position P) for PRF points first .. first+count-1.

    The one leaf derivation: prf, then P chain steps, inlined and checked
    once per batch instead of once per hash.
    """
    _check_chains(k, first, count, params)
    nb = params.digest_bytes
    tags = [j.to_bytes(4, "big") for j in range(1, params.P + 1)]
    ends = []
    for x in range(first, first + count):
        d = base(k + x.to_bytes(4, "big"))[:nb]
        for tag in tags:
            d = base(tag + d)[:nb]
        ends.append(d)
    return ends


def all_leaves(k: Seed, params: TreeParams, eta: int = 0,
               base: HashFn = DEFAULT_BASE_HASH) -> list[Digest]:
    """The public leaves of generation `eta`: each chain's end at position P.

    PRF points are offset by eta * (N/P) so successive parent-tree
    generations never reuse one.
    """
    return _chain_ends(k, eta * params.leaves, params.leaves, params, base)


def _levels(nodes: list[Digest], base: HashFn) -> Iterator[list[Digest]]:
    """Tree levels of a power-of-two node list, bottom-up, one at a time."""
    n = len(nodes)
    if n < 1 or n & (n - 1):
        raise DomainError(f"node count must be a power of two: {n}")
    level = list(nodes)
    yield level
    while len(level) > 1:
        level = _hash_level(level, base)
        yield level


def reduce_mt(nodes: list[Digest], base: HashFn = DEFAULT_BASE_HASH) -> Digest:
    """Pairwise reduction of a power-of-two node list to a single root,
    keeping one level at a time."""
    for level in _levels(nodes, base):
        pass
    return level[0]


def build_levels(leaves: list[Digest],
                 base: HashFn = DEFAULT_BASE_HASH) -> list[list[Digest]]:
    """All tree levels, leaves first, root level last."""
    return list(_levels(leaves, base))


# The fewest leaves a seed tree is split at. In a bare interpreter on a
# 2-core host, two processes take 1.00, 0.77 and 0.66 of one process's time
# at 1 024, 2 048 and 4 096 leaves. A larger caller pays more for the fork
# and for the copy-on-write faults it leaves behind, so the split starts
# well above break-even.
_SPLIT_LEAVES = 4096

def _can_split(leaves: int, base: HashFn) -> bool:
    return (leaves >= _SPLIT_LEAVES and base is DEFAULT_BASE_HASH
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1
            and len(os.sched_getaffinity(0)) >= 2)


def _unpack_levels(data: bytes, count: int, size: int) -> list[list[Digest]]:
    """The levels of a tree of `count` leaves of `size` bytes, from their
    digests written level by level, leaves first."""
    levels, at = [], 0
    while count:
        end = at + count * size
        levels.append([data[i:i + size] for i in range(at, end, size)])
        at, count = end, count // 2
    return levels


def seed_levels(k: Seed, params: TreeParams, eta: int = 0,
                base: HashFn = DEFAULT_BASE_HASH) -> list[list[Digest]]:
    """The levels of generation `eta`'s tree, `build_levels(all_leaves(k,
    params, eta, base), base)`; a large tree's right half is derived in a
    forked child (see the module docstring)."""
    n, first = params.leaves, eta * params.leaves
    if not _can_split(n, base):
        return build_levels(all_leaves(k, params, eta, base), base)
    _check_chains(k, first, n, params)
    half, size = n // 2, params.digest_bytes

    def half_levels(start: int) -> list[list[Digest]]:
        return build_levels(_chain_ends(k, start, half, params, base), base)

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return build_levels(all_leaves(k, params, eta, base), base)
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as out:
                for level in half_levels(first + half):
                    out.write(b"".join(level))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        # Closed before the child is reaped, so that a child blocked on a
        # full pipe fails its write and exits.
        with open(read_end, "rb") as pipe:
            levels = half_levels(first)
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) == 0 and len(data) == (n - 1) * size:
        right = _unpack_levels(data, half, size)
    else:
        right = half_levels(first + half)
    for level, part in zip(levels, right):
        level += part
    levels.append(_hash_level(levels[-1], base))
    return levels


def path(levels: list[list[Digest]], idx: int, lo: int,
         hi: int) -> MerkleProof:
    """Authentication path of node `idx` of level `lo` up to level `hi`:
    one sibling per level, its LSB overwritten with its parity
    (1 = right child)."""
    if not (0 <= lo <= hi < len(levels) and 0 <= idx < len(levels[lo])):
        raise DomainError(f"no path from node {idx} of level {lo} to level {hi}")
    sibs = []
    for lvl in range(lo, hi):
        sibs.append(with_lsb(levels[lvl][idx ^ 1], idx & 1 ^ 1))
        idx >>= 1
    return MerkleProof(tuple(sibs))


def gen_proof(leaves: list[Digest], idx: int, stop_depth: int = 0,
              base: HashFn = DEFAULT_BASE_HASH) -> MerkleProof:
    """Authentication path for leaf `idx`, stopping `stop_depth` levels
    below the root."""
    levels = build_levels(leaves, base)
    return path(levels, idx, 0, len(levels) - 1 - stop_depth)


def fold_proof(start: Digest, proof: MerkleProof,
               base: HashFn = DEFAULT_BASE_HASH) -> Digest:
    """Resolve a proof bottom-up, placing each sibling by its parity bit."""
    res = start
    for sib in proof.siblings:
        if lsb(sib) == 1:
            res = pair_hash(res, sib, base)
        else:
            res = pair_hash(sib, res, base)
    return res


# ---------------------------------------------------------------------------
# Index reconstruction from parity bits

def derive_idx(proof: MerkleProof) -> int:
    """Bit i set iff sibling i carries parity 1.

    For an honest proof this is the bitwise complement of the leaf
    position over the proof length; expected positions are mapped through
    expected_parity_pattern before comparison.
    """
    idx = 0
    for i, sib in enumerate(proof.siblings):
        if lsb(sib) == 1:
            idx |= 1 << i
    return idx


def expected_parity_pattern(position: int, length: int) -> int:
    """The parity-bit word an honest proof for `position` must carry."""
    return (~position) & ((1 << length) - 1)


def expected_idx_in_cache(child_leaf_id: int, params: TreeParams) -> int:
    """Index of the cached-sublayer node covering `child_leaf_id`.

    Closed form: floor(childLeafID / 2^(H_S - L_S)).
    """
    if not 0 <= child_leaf_id < params.subtree_leaves:
        raise DomainError(f"childLeafID out of range: {child_leaf_id}")
    return child_leaf_id >> (params.H_S - params.L_S)


def expected_idx_in_cache_loop(child_leaf_id: int, params: TreeParams) -> int:
    """The bit-clearing loop form: clears bits H_S-L_S .. H_S-1, keeping
    the leaf's offset below its cached node (the part the proof's parity
    bits must encode)."""
    mask = 0xFFFFFFFF
    ret = child_leaf_id
    for i in range(params.H_S - params.L_S, params.H_S):
        ret &= mask ^ (1 << i)
    return ret


# ---------------------------------------------------------------------------
# Verifier-side reconstructions

def derive_root_hash(otp: Digest, proof: MerkleProof, op_id: int,
                     params: TreeParams,
                     base: HashFn = DEFAULT_BASE_HASH) -> Digest:
    """Reconstruct the parent root from an OTP and a full-height proof.

    Runs the chain a(opID)+1 steps from position P-1-a(opID) up to the
    leaf, checks the proof's parity pattern against the expected chain
    index beta(opID), then folds the proof.
    """
    if len(proof) != params.H:
        raise DomainError(f"proof length {len(proof)} != H {params.H}")
    expect = expected_parity_pattern(beta(op_id, params), params.H)
    if derive_idx(proof) != expect:
        raise DomainError("proof does not match the operation's leaf index")
    a = chain_offset(op_id, params)
    leaf = chain_extend(otp, params.P - 1 - a, params.P, base)
    return fold_proof(leaf, proof, base)


def derive_node_in_cache(otp: Digest, proof: MerkleProof, op_id: int,
                         params: TreeParams,
                         base: HashFn = DEFAULT_BASE_HASH) -> Digest:
    """Reconstruct a cached-sublayer node from an OTP and a short proof."""
    want_len = params.H_S - params.L_S
    if len(proof) != want_len:
        raise DomainError(f"proof length {len(proof)} != H_S - L_S {want_len}")
    child = op_id % params.subtree_leaves
    expect = expected_parity_pattern(expected_idx_in_cache_loop(child, params),
                                     want_len)
    if derive_idx(proof) != expect:
        raise DomainError("proof does not match the expected cached-node slot")
    a = chain_offset(op_id, params)
    leaf = chain_extend(otp, params.P - 1 - a, params.P, base)
    return fold_proof(leaf, proof, base)


def subtree_consistency(sub_root: Digest, proof: MerkleProof,
                        parent_root: Digest,
                        base: HashFn = DEFAULT_BASE_HASH) -> bool:
    """Fold a subtree root up to the parent root; False on mismatch."""
    return fold_proof(sub_root, proof, base) == parent_root


# ---------------------------------------------------------------------------
# Subtree views over a parent tree's levels, or built from its full leaf list

def sublayer_in(levels: list[list[Digest]], subtree: int,
                params: TreeParams) -> SubtreeLayer:
    """The 2^L_S nodes at depth L_S of the given subtree, as a fresh list."""
    if not 0 <= subtree < params.subtree_count:
        raise DomainError(f"subtree index out of range: {subtree}")
    layer = levels[params.H_S - params.L_S]
    return SubtreeLayer(layer[subtree << params.L_S:(subtree + 1) << params.L_S],
                        subtree)


def sublayer_of(leaves: list[Digest], subtree: int, params: TreeParams,
                base: HashFn = DEFAULT_BASE_HASH) -> SubtreeLayer:
    """The 2^L_S nodes at depth L_S of the given subtree."""
    return sublayer_in(build_levels(leaves, base), subtree, params)


def subtree_root_proof(leaves: list[Digest], subtree: int, params: TreeParams,
                       base: HashFn = DEFAULT_BASE_HASH) -> MerkleProof:
    """Proof of a subtree's root against the parent root (length H - H_S)."""
    return path(build_levels(leaves, base), subtree, params.H_S, params.H)


def proof_to_sublayer(leaves: list[Digest], subtree: int, leaf_in_subtree: int,
                      params: TreeParams,
                      base: HashFn = DEFAULT_BASE_HASH) -> MerkleProof:
    """Confirm-stage proof: from a subtree leaf up to the cached sublayer."""
    if not 0 <= leaf_in_subtree < params.subtree_leaves:
        raise DomainError(f"leaf index out of range: {leaf_in_subtree}")
    return path(build_levels(leaves, base),
                subtree * params.subtree_leaves + leaf_in_subtree, 0,
                params.H_S - params.L_S)


# ---------------------------------------------------------------------------
# Leaf-export file ("microSD" transport)

def dump_leaf_file(leaves: list[Digest], params: TreeParams, eta: int) -> str:
    head = (f"{LEAF_FILE_MAGIC} v1 S={params.S} N={params.N} "
            f"P={params.P} NS={params.N_S} eta={eta}")
    return "\n".join([head] + [leaf.hex() for leaf in leaves]) + "\n"


def parse_leaf_file(text: str, params: TreeParams) -> tuple[list[Digest], int]:
    """Returns (leaves, eta); raises DomainError on malformed input or a
    header that disagrees with `params`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty leaf file")
    head = lines[0].split()
    if len(head) != 7 or head[0] != LEAF_FILE_MAGIC or head[1] != "v1":
        raise DomainError(f"bad leaf file header: {lines[0]!r}")
    fields = {}
    for part in head[2:]:
        key, _, val = part.partition("=")
        try:
            fields[key] = int(val)
        except ValueError as exc:
            raise DomainError(f"bad header field: {part!r}") from exc
    if fields.keys() != {"S", "N", "P", "NS", "eta"} or fields["eta"] < 0:
        raise DomainError(f"bad leaf file header: {lines[0]!r}")
    want = {"S": params.S, "N": params.N, "P": params.P, "NS": params.N_S}
    for key, val in want.items():
        if fields[key] != val:
            raise DomainError(
                f"leaf file header {key}={fields[key]} != params {key}={val}")
    leaves = []
    for ln in lines[1:]:
        try:
            leaf = bytes.fromhex(ln)
        except ValueError as exc:
            raise DomainError(f"bad leaf line: {ln!r}") from exc
        if len(leaf) != params.digest_bytes:
            raise DomainError(f"leaf has {len(leaf)} bytes, want {params.digest_bytes}")
        leaves.append(leaf)
    if len(leaves) != params.leaves:
        raise DomainError(f"leaf file has {len(leaves)} leaves, want {params.leaves}")
    return leaves, fields["eta"]
