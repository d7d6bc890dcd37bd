"""SHA3-256 pipeline stage and the quad-to-angle encoding feeding the circuit."""
from __future__ import annotations

import hashlib
import math

import numpy as np

DIGEST_SIZE = 32
N_ANGLES = 64
ANGLE_STEP = math.pi / 8  # 16 angle levels, one per 4-bit quad
# The angles of each byte value's two quads, high nibble first.
_BYTE_ANGLES = (np.arange(256)[:, None] >> np.array([4, 0]) & 0x0F) * ANGLE_STEP


def sha3_256(data: bytes) -> bytes:
    """FIPS 202 SHA3-256 digest of ``data``; empty input allowed."""
    return hashlib.sha3_256(data).digest()


def check_digest(digest: bytes) -> bytes:
    if len(digest) != DIGEST_SIZE:
        raise ValueError(f"digest must be {DIGEST_SIZE} bytes, got {len(digest)}")
    return digest


def nibbles(digest: bytes) -> list[int]:
    """The 64 quads of a digest in hex-reading order: high nibble of byte 0 first."""
    check_digest(digest)
    out: list[int] = []
    for byte in digest:
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return out


def encode_angles(digest: bytes) -> np.ndarray:
    """Map a 32-byte digest to the 64 rotation angles of the ansatz.

    Quad k of the digest, read as an unsigned 4-bit integer, becomes the
    angle k*pi/8, so every angle lies on the 16-level grid [0, 15*pi/8].
    """
    return _BYTE_ANGLES[np.frombuffer(check_digest(digest), dtype=np.uint8)].reshape(-1)
