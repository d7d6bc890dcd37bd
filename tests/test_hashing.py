import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpow.hashing import ANGLE_STEP, encode_angles, nibbles, sha3_256

from oracles import nibbles_by_bitstring

# Published FIPS 202 / NIST example vectors.
FIPS_VECTORS = [
    (b"", "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"),
    (b"abc", "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"),
    (bytes([0xA3] * 200), "79f38adec5c20307a98ef76e8324afbfd46cfd81b22e3973c65fa1bd9de31787"),
]

# Reference example recorded by an independent implementation of this
# protocol; the first stage is plain SHA3-256 of the literal UTF-8 text.
KNOWN_EXAMPLE_TEXT = ("4Schroedinger paid Einstein 1 qBTC"
                      "04ca1a782621a440d03b5d87ecff8b68e2cc6124f57957b49a76bca91dede3a81")
KNOWN_EXAMPLE_H1 = "e1e5575da3a9e86da135552facddcc1ff44dd26502d0bc2b22961383f8b187ca"


@pytest.mark.parametrize("data,expected", FIPS_VECTORS)
def test_sha3_fips_vectors(data, expected):
    assert sha3_256(data).hex() == expected


def test_sha3_deterministic():
    data = b"some arbitrary input"
    assert sha3_256(data) == sha3_256(data)


def test_sha3_digest_shape():
    digest = sha3_256(b"x")
    assert len(digest) == 32


def test_known_example_first_stage_reproduces():
    assert sha3_256(KNOWN_EXAMPLE_TEXT.encode("utf-8")).hex() == KNOWN_EXAMPLE_H1


def test_encode_angles_zero_digest():
    angles = encode_angles(bytes(32))
    assert angles.shape == (64,)
    assert np.all(angles == 0.0)


def test_encode_angles_nibble_order():
    # High nibble of byte 0 comes first: 0xF0 -> 15*pi/8 then 0.
    digest = bytes([0xF0]) + bytes(31)
    angles = encode_angles(digest)
    assert angles[0] == 15 * ANGLE_STEP
    assert angles[1] == 0.0


def test_encode_angles_matches_bitstring_oracle():
    digest = sha3_256(b"angle oracle input")
    assert nibbles(digest) == nibbles_by_bitstring(digest)
    assert np.array_equal(encode_angles(digest), np.array(nibbles_by_bitstring(digest)) * ANGLE_STEP)


@given(st.binary(min_size=32, max_size=32))
def test_encode_angles_properties(digest):
    angles = encode_angles(digest)
    assert angles.shape == (64,)
    for angle in angles:
        k = round(angle / ANGLE_STEP)
        assert 0 <= k <= 15
        assert angle == k * ANGLE_STEP
    assert np.array_equal(angles, encode_angles(digest))


def test_encode_angles_equals_the_nibble_list_times_the_step():
    rng = np.random.default_rng(14)
    for _ in range(500):
        digest = rng.bytes(32)
        angles = encode_angles(digest)
        assert angles.dtype == np.float64
        assert np.array_equal(angles, np.array(nibbles(digest)) * ANGLE_STEP)


def test_encode_angles_rejects_bad_length():
    with pytest.raises(ValueError):
        encode_angles(b"\x00" * 33)


def test_angle_step_is_sixteenth_of_circle():
    assert ANGLE_STEP == math.pi / 8
