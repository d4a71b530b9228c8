"""Mnemonic transport codec for digests and seeds.

BIP-39-style: a checksum of nbits/32 bits (most significant bits of the
256-bit hash of the payload) is appended, the result is split into 11-bit
groups, and each group indexes a 2048-word list. A 128-bit value encodes
to exactly 12 words. The wordlist ships as a data file, one word per line.
"""

from __future__ import annotations

import importlib.resources

from .hashing import HashFn, DEFAULT_BASE_HASH

SUPPORTED_BITS = (128, 160, 192, 224, 256)


class MnemonicError(ValueError):
    pass


class UnknownWordError(MnemonicError):
    """A word is not in the wordlist (parse error)."""


class ChecksumError(MnemonicError):
    """Words decode cleanly but the embedded checksum does not match."""


def _load_wordlist() -> tuple[str, ...]:
    text = importlib.resources.files(__package__).joinpath(
        "data/wordlist_en.txt").read_text(encoding="utf-8")
    words = tuple(text.split())
    if len(words) != 2048:
        raise RuntimeError(f"wordlist must have 2048 entries, got {len(words)}")
    return words


WORDLIST: tuple[str, ...] = _load_wordlist()
_WORD_INDEX = {w: i for i, w in enumerate(WORDLIST)}


def word_count_for_bits(nbits: int) -> int:
    return (nbits + nbits // 32) // 11


# Word count -> payload bits, for each supported payload size.
_BITS_BY_WORDS = {word_count_for_bits(b): b for b in SUPPORTED_BITS}


def encode(data: bytes, base: HashFn = DEFAULT_BASE_HASH) -> list[str]:
    nbits = len(data) * 8
    if nbits not in SUPPORTED_BITS:
        raise MnemonicError(f"unsupported payload size: {nbits} bits")
    cs_bits = nbits // 32
    checksum = base(data)[0] >> (8 - cs_bits)
    acc = (int.from_bytes(data, "big") << cs_bits) | checksum
    total = nbits + cs_bits
    words = []
    for shift in range(total - 11, -1, -11):
        words.append(WORDLIST[(acc >> shift) & 0x7FF])
    return words


def decode(words: list[str], base: HashFn = DEFAULT_BASE_HASH) -> bytes:
    nbits = _BITS_BY_WORDS.get(len(words))
    if nbits is None:
        raise MnemonicError(f"unsupported word count: {len(words)}")
    acc = 0
    for w in words:
        idx = _WORD_INDEX.get(w.strip().lower())
        if idx is None:
            raise UnknownWordError(f"not a wordlist word: {w!r}")
        acc = (acc << 11) | idx
    cs_bits = nbits // 32
    checksum = acc & ((1 << cs_bits) - 1)
    data = (acc >> cs_bits).to_bytes(nbits // 8, "big")
    expected = base(data)[0] >> (8 - cs_bits)
    if checksum != expected:
        raise ChecksumError("mnemonic checksum mismatch")
    return data


def parse_otp(text: str, digest_bytes: int) -> bytes:
    """Accept an OTP as either hex or a mnemonic phrase."""
    parts = text.split()
    if len(parts) > 1 or (parts and parts[0] in _WORD_INDEX):
        value = decode(parts)
        if len(value) != digest_bytes:
            raise MnemonicError(
                f"mnemonic decodes to {len(value)} bytes, expected {digest_bytes}")
        return value
    value = bytes.fromhex(text.strip())
    if len(value) != digest_bytes:
        raise MnemonicError(f"hex OTP must be {digest_bytes} bytes")
    return value
