"""Output checks that re-derive proofs without the code under test.

The proof protocol (text format, angle encoding, gate order, bit packing) is
re-implemented here from its published conventions, so a refactor of `src/`
that changes a proof is caught instead of being checked against itself. n=4
states come from the dense oracle in `tests/oracles.py`; larger states come
from the small tensor-index simulator below, which shares no code with
`qpow.simulator`.

Outcome checks accept every index whose probability is within a relative
TIE_TOL of the maximum, so they hold for any tie-breaking rule.
"""
from __future__ import annotations

import hashlib
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

TIE_TOL = 1e-9
N_ANGLES = 64
ORACLE_PATH = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"


def load_oracles():
    spec = importlib.util.spec_from_file_location("qpow_test_oracles", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha3(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def block_text(nonce: int, payload: str, prev_hash: bytes) -> bytes:
    return f"{nonce}{payload}{prev_hash.hex()}".encode("utf-8")


def pack(index: int, n: int) -> bytes:
    n_bytes = (n + 7) // 8
    return (index << (8 * n_bytes - n)).to_bytes(n_bytes, "big")


def circuit(h1: bytes, n: int) -> SimpleNamespace:
    """The ansatz for digest h1, as the plain gate records the oracle reads."""
    quads = [q for byte in h1 for q in (byte >> 4, byte & 0x0F)]
    order = []
    while len(order) < N_ANGLES:
        order += [(kind, q, None) for q in range(n) for kind in ("rx", "rz")]
        order += [("crx", t, c) for c in range(n - 1, -1, -1) for t in range(n) if t != c]
    gates = [SimpleNamespace(kind=kind, target=target, control=control, angle=quad * math.pi / 8)
             for quad, (kind, target, control) in zip(quads, order)]
    return SimpleNamespace(n_qubits=n, gates=gates)


def statevector(circ: SimpleNamespace) -> np.ndarray:
    """Gate-by-gate simulation on a (2,)*n tensor; qubit 0 is axis 0."""
    n = circ.n_qubits
    psi = np.zeros((2,) * n, dtype=np.complex128)
    psi[(0,) * n] = 1.0
    for g in circ.gates:
        sub, axis = psi, g.target
        if g.kind == "crx":
            sub = psi[(slice(None),) * g.control + (1,)]
            axis -= g.target > g.control
        lo = (slice(None),) * axis + (0,)
        hi = (slice(None),) * axis + (1,)
        if g.kind == "rz":
            sub[lo] *= np.exp(-0.5j * g.angle)
            sub[hi] *= np.exp(0.5j * g.angle)
        else:
            c, s = math.cos(g.angle / 2), -1j * math.sin(g.angle / 2)
            x0, x1 = sub[lo].copy(), sub[hi].copy()
            sub[lo] = c * x0 + s * x1
            sub[hi] = s * x0 + c * x1
    return psi.reshape(-1)


def proof_candidates(h1: bytes, state: np.ndarray, n: int) -> set[bytes]:
    """Every h2 an exact backend may report for this state under any tie rule."""
    probs = state.real ** 2 + state.imag ** 2
    top = np.flatnonzero(probs >= probs.max() * (1.0 - TIE_TOL))
    return {sha3(h1 + pack(int(i), n)) for i in top}


def any_outcome_proofs(h1: bytes, n: int) -> set[bytes]:
    """Every h2 reachable from h1 with some n-bit outcome (noisy backends)."""
    return {sha3(h1 + pack(i, n)) for i in range(1 << n)}


def meets_difficulty(digest: bytes, difficulty: int) -> bool:
    return digest.hex().startswith("0" * difficulty)
