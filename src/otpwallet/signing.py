"""The platform signature scheme (KeyGen / Sign / Verify).

The wallet protocol treats signatures as a black box; this instantiation
is Ed25519. Key generation from a 32-byte seed and deterministic signing
keep scenario replays byte-identical.
"""

from __future__ import annotations

import functools

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519

from .hashing import truncated_hash


class KeyPair:
    """Holds the private key; only the public half is ever serialized. The
    seed's length is checked at once, but the Ed25519 key is derived on the
    first `public` or `sign`, so a holder that does neither never pays for
    it."""

    def __init__(self, seed32: bytes):
        if len(seed32) != 32:
            raise ValueError("key seed must be 32 bytes")
        self._seed = bytes(seed32)

    @functools.cached_property
    def _sk(self) -> ed25519.Ed25519PrivateKey:
        return ed25519.Ed25519PrivateKey.from_private_bytes(self._seed)

    @functools.cached_property
    def public(self) -> bytes:
        return self._sk.public_key().public_bytes_raw()

    def sign(self, message: bytes) -> bytes:
        return self._sk.sign(message)

    def __repr__(self) -> str:  # never leak the private half
        return f"KeyPair(pk={self.public.hex()[:16]}...)"


def keygen(seed32: bytes) -> KeyPair:
    return KeyPair(seed32)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public).verify(
            signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def account_of(public: bytes) -> str:
    """Ledger account id derived from a verification key."""
    return truncated_hash(public).hex()
