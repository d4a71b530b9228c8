"""Hash primitive, PRF, and domain-separated hash chains.

Everything in this package is built from one truncated 256-bit hash. A
one-time password is an element of a per-leaf hash chain; each chain step
is tagged with the *target* position so every step uses an effectively
independent hash function (domain separation). Position 0 of a chain is
the PRF output, positions 1..P-1 are interior elements, and position P is
the public Merkle leaf (one hash past the deepest OTP, so a leaf never
reveals an OTP).
"""

from __future__ import annotations

from typing import Callable

# Both are defined in `kernels`, which the helper process runs as a script.
from .kernels import DomainError, sha3_256

DIGEST_BITS_DEFAULT = 128
SEED_BYTES = 16

Digest = bytes
Seed = bytes

HashFn = Callable[[bytes], bytes]


#: The underlying 256-bit hash. Any 256-bit hash can be substituted per call.
DEFAULT_BASE_HASH: HashFn = sha3_256


def enc32(x: int) -> bytes:
    """Fixed-width 4-byte big-endian encoding used in every hash input."""
    if not 0 <= x < 2**32:
        raise DomainError(f"integer out of 32-bit range: {x}")
    return x.to_bytes(4, "big")


def truncated_hash(data: bytes, nbytes: int = DIGEST_BITS_DEFAULT // 8,
                   base: HashFn = DEFAULT_BASE_HASH) -> Digest:
    """First `nbytes` of the underlying 256-bit hash of `data`."""
    if not 16 <= nbytes <= 32:
        raise DomainError(f"digest size must be 16..32 bytes, got {nbytes}")
    return base(data)[:nbytes]


def prf(k: Seed, x: int, nbytes: int = DIGEST_BITS_DEFAULT // 8,
        base: HashFn = DEFAULT_BASE_HASH) -> Digest:
    """F_k(x): truncated hash of the seed concatenated with enc32(x)."""
    if len(k) != SEED_BYTES:
        raise DomainError(f"seed must be {SEED_BYTES} bytes, got {len(k)}")
    if not 0 <= x < 2**32:
        raise DomainError(f"prf input out of range: {x}")
    return truncated_hash(k + enc32(x), nbytes, base)


def chain_step(d: Digest, j: int, base: HashFn = DEFAULT_BASE_HASH) -> Digest:
    """One domain-separated chain step producing the element at position j.

    The tag is the target position: element j = h(enc32(j) || element j-1).
    Position 0 is the PRF output and is never a hash of anything, so j >= 1.
    """
    if j < 1:
        raise DomainError(f"chain position tag must be >= 1, got {j}")
    return truncated_hash(enc32(j) + d, len(d), base)


def chain_extend(d: Digest, start: int, stop: int,
                 base: HashFn = DEFAULT_BASE_HASH) -> Digest:
    """Walk a chain from position `start` to position `stop`.

    Applies chain_step with tags start+1, ..., stop: exactly stop - start
    calls of `base`, so a counting `base` meters the walk.
    """
    if start < 0 or start > stop:
        raise DomainError(f"bad chain interval [{start}, {stop}]")
    out = d
    for j in range(start + 1, stop + 1):
        out = chain_step(out, j, base)
    return out


def random_seed(rng=None) -> Seed:
    """Fresh 16-byte seed; `rng` (random.Random) makes it reproducible."""
    if rng is None:
        import os
        return os.urandom(SEED_BYTES)
    return bytes(rng.getrandbits(8) for _ in range(SEED_BYTES))
