"""Ed25519 backends: libsodium, when the host has it, against the
`cryptography` reference.

Both backends must give the same public keys, the same signature bytes and
the same verdicts on everything the package can produce, and so the same
scenario state hashes and event logs. The one known difference, on a
small-order key, is pinned. Tests that need libsodium are skipped on a host
without it."""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otpwallet import scenarios, signing

REFERENCE = signing.load_backend((), lambda name: None)
SODIUM = signing.load_backend()
needs_sodium = pytest.mark.skipif(SODIUM.name != "libsodium",
                                  reason="libsodium is not installed")
BACKENDS = [REFERENCE] + ([SODIUM] if SODIUM.name == "libsodium" else [])

# RFC 8032, section 7.1, TEST 1: the empty message.
RFC_SECRET = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
RFC_PUBLIC = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
RFC_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b")

# The identity point as a public key, and the signature R = [0]B, S = 0.
IDENTITY = b"\x01" + bytes(31)
IDENTITY_SIGNATURE = IDENTITY + bytes(32)


@pytest.fixture(params=BACKENDS, ids=lambda backend: backend.name)
def backend(request, monkeypatch):
    """The module running on one backend. Scenario worlds cached under the
    other backend hold its secrets, so the cache is emptied around the
    test."""
    monkeypatch.setattr(signing, "BACKEND", request.param)
    scenarios._pristine.cache_clear()
    yield request.param
    scenarios._pristine.cache_clear()


def _flip(data: bytes, bit: int) -> bytes:
    bit %= 8 * len(data)
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_rfc8032_test1(backend):
    keys = signing.keygen(RFC_SECRET)
    assert keys.public == RFC_PUBLIC
    assert keys.sign(b"") == RFC_SIGNATURE
    assert signing.verify(RFC_PUBLIC, b"", RFC_SIGNATURE)
    assert not signing.verify(RFC_PUBLIC, b"\0", RFC_SIGNATURE)


@needs_sodium
@settings(max_examples=60, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32),
       message=st.binary(max_size=300))
def test_both_backends_make_the_same_keys_and_signatures(seed, message):
    public, secret = SODIUM.derive(seed)
    ref_public, ref_secret = REFERENCE.derive(seed)
    assert public == ref_public
    assert SODIUM.sign(secret, message) == REFERENCE.sign(ref_secret, message)


@needs_sodium
@settings(max_examples=60, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32),
       other=st.binary(min_size=32, max_size=32),
       message=st.binary(min_size=1, max_size=300),
       bit=st.integers(min_value=0, max_value=1 << 16))
def test_both_backends_give_the_same_verdicts(seed, other, message, bit):
    public, secret = REFERENCE.derive(seed)
    signature = REFERENCE.sign(secret, message)
    wrong_key = REFERENCE.derive(other)[0]
    triples = [(public, message, signature),
               (public, _flip(message, bit), signature),
               (public, message, _flip(signature, bit)),
               (_flip(public, bit), message, signature),
               (wrong_key, message, signature)]
    verdicts = [SODIUM.verify(*t) for t in triples]
    assert verdicts == [REFERENCE.verify(*t) for t in triples]
    assert verdicts[0] and not any(verdicts[1:4])
    assert verdicts[4] == (wrong_key == public)


@pytest.fixture(scope="module")
def reference_runs():
    """(name, state_hash, event_log) of every scenario at seeds 0 and 1, as
    the `cryptography` backend runs them."""
    mp = pytest.MonkeyPatch()
    mp.setattr(signing, "BACKEND", REFERENCE)
    scenarios._pristine.cache_clear()
    try:
        return {seed: [(r.name, r.state_hash, r.event_log)
                       for r in scenarios.run_all(seed)] for seed in (0, 1)}
    finally:
        mp.undo()
        scenarios._pristine.cache_clear()


@pytest.mark.parametrize("seed", [0, 1])
def test_scenarios_run_alike_on_every_backend(backend, reference_runs, seed):
    runs = [(r.name, r.state_hash, r.event_log)
            for r in scenarios.run_all(seed)]
    assert runs == reference_runs[seed]


@needs_sodium
def test_only_openssl_accepts_a_signature_under_the_identity_key():
    # [S]B = R + [k]A holds for every message when A is the identity and
    # R = [S]B; libsodium refuses the small-order key and R, OpenSSL does not.
    for message in (b"", b"any message"):
        assert REFERENCE.verify(IDENTITY, message, IDENTITY_SIGNATURE)
        assert not SODIUM.verify(IDENTITY, message, IDENTITY_SIGNATURE)


def test_a_lookup_that_finds_nothing_loads_cryptography():
    assert signing.load_backend((), lambda name: None).name == "cryptography"
    assert signing.load_backend(("libsodium-absent.so.0",),
                                lambda name: None).name == "cryptography"
    assert signing.load_backend(
        (), lambda name: "/nonexistent/libsodium.so").name == "cryptography"


@needs_sodium
def test_a_soname_that_loads_searches_no_further():
    def search(name):
        raise AssertionError("find_library was called")

    assert signing.load_backend(find_library=search).name == "libsodium"


@needs_sodium
def test_the_package_never_imports_cryptography_on_libsodium():
    code = ("import sys, otpwallet.cli; "
            "sys.exit('cryptography' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


BAD_INPUTS = [
    (None, b"m", bytes(64)),
    ("k" * 32, b"m", bytes(64)),
    (bytearray(RFC_PUBLIC), b"", RFC_SIGNATURE),
    (memoryview(RFC_PUBLIC), b"", RFC_SIGNATURE),
    (RFC_PUBLIC[:31], b"", RFC_SIGNATURE),
    (RFC_PUBLIC + b"\0", b"", RFC_SIGNATURE),
    (RFC_PUBLIC, None, RFC_SIGNATURE),
    (RFC_PUBLIC, "", RFC_SIGNATURE),
    (RFC_PUBLIC, bytearray(), RFC_SIGNATURE),
    (RFC_PUBLIC, b"", None),
    (RFC_PUBLIC, b"", bytearray(RFC_SIGNATURE)),
    (RFC_PUBLIC, b"", RFC_SIGNATURE[:63]),
    (RFC_PUBLIC, b"", RFC_SIGNATURE + b"\0"),
]


@pytest.mark.parametrize("args", BAD_INPUTS)
def test_verify_refuses_malformed_input(backend, args):
    assert signing.verify(*args) is False


@pytest.mark.parametrize("args", BAD_INPUTS)
def test_malformed_input_never_reaches_the_backend(monkeypatch, args):
    def unreachable(*args):
        raise AssertionError("the backend was called")

    monkeypatch.setattr(signing, "BACKEND",
                        REFERENCE._replace(verify=unreachable))
    assert signing.verify(*args) is False


def test_sign_refuses_a_message_that_is_not_bytes(backend):
    with pytest.raises(TypeError):
        signing.keygen(RFC_SECRET).sign(bytearray(b"m"))


def test_a_key_pair_derives_once_and_shows_only_its_public_key(
        backend, monkeypatch):
    calls, derive = [], signing._derive
    monkeypatch.setattr(signing, "_derive",
                        lambda seed: calls.append(seed) or derive(seed))
    keys = signing.keygen(RFC_SECRET)
    assert calls == []
    keys.sign(b"a")
    assert keys.public == RFC_PUBLIC
    keys.sign(b"b")
    assert calls == [RFC_SECRET]
    # libsodium's 64-byte secret is the seed and the public key.
    assert repr(keys) == f"KeyPair(pk={RFC_PUBLIC.hex()[:16]}...)"
