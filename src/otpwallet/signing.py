"""The platform signature scheme (KeyGen / Sign / Verify).

The wallet protocol treats signatures as a black box; this instantiation
is Ed25519. Key generation from a 32-byte seed and deterministic signing
keep scenario replays byte-identical.

Two backends compute it, and the module picks one once, at import:

- libsodium, through a `ctypes` binding of `crypto_sign_seed_keypair`,
  `crypto_sign_detached` and `crypto_sign_verify_detached`, when the shared
  library loads and `sodium_init()` succeeds. The loader tries the
  platform's sonames with `ctypes.CDLL` first and asks
  `ctypes.util.find_library` (which may run `ldconfig`) only when none of
  them loads;
- otherwise `cryptography` (OpenSSL), which is also the reference that the
  tests compare libsodium against.

RFC 8032 signing is deterministic, so both give the same public key and the
same signature bytes for the same seed and message, and the same verdict on
every signature that a key from `keygen` made or that differs from one. The
one known difference: libsodium also refuses small-order and non-canonical
public keys and `R` values, which OpenSSL accepts. Under the identity key
`01 00..00`, OpenSSL accepts `R = [S]B` for any message; libsodium refuses
it. Every key the package makes comes from `keygen`, so no world the
package can reach verifies differently.

There is no option or environment variable to choose a backend: the
outputs are the same, so the only thing a choice could change is speed,
and the faster one is taken whenever it is there.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, NamedTuple

from .hashing import truncated_hash

# Tried in order with `ctypes.CDLL` before any library search.
_SONAMES = ("libsodium.so.26", "libsodium.so.23", "libsodium.26.dylib",
            "libsodium.23.dylib", "libsodium.dll")


class Backend(NamedTuple):
    """One Ed25519 implementation. `derive(seed)` returns the public key and
    an opaque secret for `sign(secret, message)`; `verify` takes a 32-byte
    public key, a bytes message and a 64-byte signature, checked already."""
    name: str
    derive: Callable[[bytes], tuple[bytes, object]]
    sign: Callable[[object, bytes], bytes]
    verify: Callable[[bytes, bytes, bytes], bool]


def _sodium_backend(lib: ctypes.CDLL) -> Backend | None:
    """The libsodium backend, or None when `sodium_init()` fails or the
    library's Ed25519 sizes are not the ones the buffers below assume."""
    lib.sodium_init.argtypes = []
    lib.sodium_init.restype = ctypes.c_int
    if lib.sodium_init() < 0:
        return None
    sizes = ("crypto_sign_seedbytes", "crypto_sign_publickeybytes",
             "crypto_sign_secretkeybytes", "crypto_sign_bytes")
    for name in sizes:
        getattr(lib, name).argtypes = []
        getattr(lib, name).restype = ctypes.c_size_t
    if [getattr(lib, name)() for name in sizes] != [32, 32, 64, 64]:
        return None
    char_p, size = ctypes.c_char_p, ctypes.c_ulonglong
    seed_keypair = lib.crypto_sign_seed_keypair
    seed_keypair.argtypes = [char_p, char_p, char_p]
    seed_keypair.restype = ctypes.c_int
    sign_detached = lib.crypto_sign_detached
    sign_detached.argtypes = [char_p, ctypes.c_void_p, char_p, size, char_p]
    sign_detached.restype = ctypes.c_int
    verify_detached = lib.crypto_sign_verify_detached
    verify_detached.argtypes = [char_p, char_p, size, char_p]
    verify_detached.restype = ctypes.c_int
    buffer = ctypes.create_string_buffer

    def derive(seed: bytes) -> tuple[bytes, bytes]:
        public, secret = buffer(32), buffer(64)
        if seed_keypair(public, secret, seed) != 0:
            raise ValueError("libsodium could not derive the key")
        return public.raw, secret.raw

    def sign(secret: bytes, message: bytes) -> bytes:
        signature = buffer(64)
        if sign_detached(signature, None, message, len(message), secret) != 0:
            raise ValueError("libsodium could not sign")
        return signature.raw

    def verify(public: bytes, message: bytes, signature: bytes) -> bool:
        return verify_detached(signature, message, len(message), public) == 0

    return Backend("libsodium", derive, sign, verify)


def _cryptography_backend() -> Backend:
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ed25519

    def derive(seed: bytes) -> tuple[bytes, ed25519.Ed25519PrivateKey]:
        secret = ed25519.Ed25519PrivateKey.from_private_bytes(seed)
        return secret.public_key().public_bytes_raw(), secret

    def sign(secret: ed25519.Ed25519PrivateKey, message: bytes) -> bytes:
        return secret.sign(message)

    def verify(public: bytes, message: bytes, signature: bytes) -> bool:
        try:
            ed25519.Ed25519PublicKey.from_public_bytes(public).verify(
                signature, message)
            return True
        except (InvalidSignature, ValueError):
            return False

    return Backend("cryptography", derive, sign, verify)


def load_backend(sonames: tuple[str, ...] = _SONAMES,
                 find_library: Callable[[str], str | None] | None = None
                 ) -> Backend:
    """libsodium from the first of `sonames` that loads, else from the path
    `find_library("sodium")` returns (`ctypes.util.find_library` by
    default); `cryptography` when neither gives a library that
    initialises."""
    for name in sonames:
        try:
            lib = ctypes.CDLL(name)
            break
        except OSError:
            pass
    else:
        if find_library is None:
            from ctypes.util import find_library
        path = find_library("sodium")
        try:
            lib = ctypes.CDLL(path) if path else None
        except OSError:
            lib = None
    backend = _sodium_backend(lib) if lib is not None else None
    return backend or _cryptography_backend()


BACKEND = load_backend()


def _derive(seed32: bytes) -> tuple[bytes, object]:
    """The one place a key pair is derived from its seed."""
    return BACKEND.derive(seed32)


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
    def _keys(self) -> tuple[bytes, object]:
        return _derive(self._seed)

    @functools.cached_property
    def public(self) -> bytes:
        return self._keys[0]

    def sign(self, message: bytes) -> bytes:
        if type(message) is not bytes:
            raise TypeError("the message to sign must be bytes")
        return BACKEND.sign(self._keys[1], message)

    def __repr__(self) -> str:  # never leak the private half
        return f"KeyPair(pk={self.public.hex()[:16]}...)"


def keygen(seed32: bytes) -> KeyPair:
    return KeyPair(seed32)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True when `signature` is valid for `message` under `public`. Any
    argument that is not `bytes`, a key that is not 32 bytes and a signature
    that is not 64 bytes give False without reaching the backend."""
    return (type(public) is bytes and len(public) == 32
            and type(signature) is bytes and len(signature) == 64
            and type(message) is bytes
            and BACKEND.verify(public, message, signature))


def account_of(public: bytes) -> str:
    """Ledger account id derived from a verification key."""
    return truncated_hash(public).hex()
