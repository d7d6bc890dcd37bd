"""Exact statevector simulation of the ansatz and Born-rule sampling.

Conventions, used consistently by the chain layer:
- qubit 0 is the most significant bit of basis-state indices and bit strings;
- gates apply in list order, starting from |0...0>;
- argmax ties break toward the smallest basis-state index.

Gates act in place on the amplitude array through strided views, so memory
stays at one 2^n vector plus a half-size scratch copy per gate.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CRX, RX, RZ, Circuit

NORM_TOL = 1e-10


@dataclass(frozen=True)
class BasisOutcome:
    """A computational-basis state and its Born probability."""

    bits: str
    probability: float


def num_qubits(state: np.ndarray) -> int:
    n = len(state).bit_length() - 1
    if n < 1 or (1 << n) != len(state):
        raise ValueError(f"statevector length must be a power of two >= 2, got {len(state)}")
    return n


def _rx_on_axis0(sub: np.ndarray, angle: float, scratch: tuple[np.ndarray, np.ndarray]) -> None:
    # sub's leading axis is the target qubit; rows are its |0> and |1> slices.
    # All arithmetic lands in the rows or the scratch buffers, no temporaries.
    c = math.cos(0.5 * angle)
    ms = -1j * math.sin(0.5 * angle)
    a0 = sub[0, ...]  # ellipsis keeps 0-d views writable when sub is 1-D
    a1 = sub[1, ...]
    s = scratch[0][:a0.size].reshape(a0.shape)
    t = scratch[1][:a0.size].reshape(a0.shape)
    np.multiply(a1, ms, out=s)
    np.multiply(a1, c, out=t)
    np.multiply(a0, ms, out=a1)
    a1 += t
    a0 *= c
    a0 += s


def apply_gate(state: np.ndarray, gate, n_qubits: int,
               scratch: tuple[np.ndarray, np.ndarray]) -> None:
    # scratch: two buffers of at least 2^(n-1) amplitudes, reused across gates.
    psi = state.reshape((2,) * n_qubits)
    if gate.kind == RX:
        _rx_on_axis0(np.moveaxis(psi, gate.target, 0), gate.angle, scratch)
    elif gate.kind == RZ:
        sub = np.moveaxis(psi, gate.target, 0)
        sub[0] *= cmath.exp(-0.5j * gate.angle)
        sub[1] *= cmath.exp(0.5j * gate.angle)
    elif gate.kind == CRX:
        sub = np.moveaxis(psi, (gate.control, gate.target), (0, 1))
        _rx_on_axis0(sub[1], gate.angle, scratch)
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")


def simulate(circuit: Circuit, check_norm: bool = False) -> np.ndarray:
    """Run the circuit from |0...0> and return the final statevector.

    With ``check_norm`` every gate is followed by a unitarity check that the
    L2 norm stayed within 1e-10 of 1; violations raise RuntimeError.
    """
    state = np.zeros(1 << circuit.n_qubits, dtype=np.complex128)
    state[0] = 1.0
    half = 1 << (circuit.n_qubits - 1)
    scratch = (np.empty(half, dtype=np.complex128), np.empty(half, dtype=np.complex128))
    for gate in circuit.gates:
        apply_gate(state, gate, circuit.n_qubits, scratch)
        if check_norm:
            norm = float(np.linalg.norm(state))
            if abs(norm - 1.0) > NORM_TOL:
                raise RuntimeError(f"statevector norm drifted to {norm!r} after {gate}")
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    return (state.real * state.real) + (state.imag * state.imag)


def most_probable_state(state: np.ndarray) -> BasisOutcome:
    """The basis state maximizing |amplitude|^2; ties go to the lowest index."""
    n = num_qubits(state)
    probs = probabilities(state)
    idx = int(np.argmax(probs))  # argmax returns the first maximum
    return BasisOutcome(format(idx, f"0{n}b"), float(probs[idx]))


def sample_counts(state: np.ndarray, shots: int, seed: int | None = None) -> dict[str, int]:
    """Histogram of ``shots`` Born-rule draws, keyed by bit string.

    Counts always sum to ``shots``; a fixed seed reproduces the histogram.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n = num_qubits(state)
    probs = probabilities(state)
    probs = probs / probs.sum()  # guard against last-digit drift
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c}


def histogram_csv(counts: dict[str, int]) -> str:
    """Render a counts histogram as ``bitstring,count`` CSV, sorted by bit string."""
    lines = ["bitstring,count"]
    lines.extend(f"{bits},{counts[bits]}" for bits in sorted(counts))
    return "\n".join(lines) + "\n"
