"""The hash kernels of a tree, and the helper process that runs them.

This module imports only the standard library, so that it also runs by
path as a script, `python3 -I -S kernels.py`, without importing the
package. That script is the helper process of `merkle.seed_levels`, which
derives the right half of a large seed tree in it (see the `merkle` module
docstring); `merkle` derives every tree, in process, with the same two
kernels:

- `_chain_ends`, the one leaf derivation: prf, then P domain-separated
  chain steps, for a range of PRF points;
- `_hash_level`, the parent level of a node list: one pair hash per
  adjacent pair, each child's parity bit masked to zero.

The default base hash, `sha3_256`, and `DomainError` are defined here for
the same reason; `hashing` re-exports both.

The helper's protocol. A request is `REQUEST` packed: the 16-byte seed, the
first PRF point, the leaf count, the chain length P and the digest size.
The answer is the request's bytes, then the tree's digests level by level,
leaves first: (2 * count - 1) * size bytes, hashed with `sha3_256`. The
helper answers requests in order and exits at the end of its input.
"""

from __future__ import annotations

import hashlib
import struct
import sys


class DomainError(ValueError):
    """An argument violates an operation's domain (bad index, bad length)."""


def sha3_256(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


# _PARITY_CLEAR[b] is byte b with its parity bit cleared, a
# `bytes.translate` table.
_PARITY_CLEAR = bytes(b & 0xFE for b in range(256))

# Nodes `_hash_level` joins at a time. Joining a whole level instead keeps
# a second copy of it alive: a 16 384-leaf build then peaks 0.8 MB higher.
_SPAN = 1024

def _hash_level(level: list[bytes], base) -> list[bytes]:
    """The parent level of an even-length node list: `merkle.pair_hash` of
    each adjacent pair, left to right, one `base` call per pair, with one
    size check for the whole level. Per span of `_SPAN` nodes: one join,
    one translate that clears every parity bit, and one hash per pair,
    sliced from the span."""
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


def _chain_ends(k: bytes, first: int, count: int, P: int, size: int,
                base) -> list[bytes]:
    """Chain ends (position P) of `size` bytes for PRF points first ..
    first+count-1: prf, then P chain steps, inlined. The caller checks the
    seed and the range once per batch."""
    tags = [j.to_bytes(4, "big") for j in range(1, P + 1)]
    ends = []
    for x in range(first, first + count):
        d = base(k + x.to_bytes(4, "big"))[:size]
        for tag in tags:
            d = base(tag + d)[:size]
        ends.append(d)
    return ends


REQUEST = struct.Struct(">16sIIIB")


def serve(requests, answers) -> None:
    """Answer each request read from `requests` on `answers`, until the
    end of input. Every level is hashed before the answer is written, so
    the helper never waits on a full pipe with work left."""
    while len(head := requests.read(REQUEST.size)) == REQUEST.size:
        k, first, count, P, size = REQUEST.unpack(head)
        levels = [_chain_ends(k, first, count, P, size, sha3_256)]
        while len(levels[-1]) > 1:
            levels.append(_hash_level(levels[-1], sha3_256))
        answers.write(b"".join([head, *map(b"".join, levels)]))
        answers.flush()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
