"""Exact statevector simulation of the ansatz and Born-rule sampling.

Conventions, used consistently by the chain layer:
- qubit 0 is the most significant bit of basis-state indices and bit strings;
- gates apply in list order, starting from |0...0>;
- the readout is the lowest basis-state index whose probability is within a
  relative TIE_TOL of the maximum, so rounding cannot pick among true ties.

Every circuit runs in two parts. The rx/rz gates before the first crx act on
|0...0>, so they leave a product state: they are folded into one 2-vector per
qubit in scalar arithmetic, and the product is written into the amplitude
array in one sweep. Each later gate acts in place on the |0> and |1> halves
of its target, picked from the (2,)*n view of the array by index tuples
cached per gate structure. An rx or crx passes over those strided halves four
times (two reads, two writes) by rotating their sum and difference. Memory
stays at one 2^n vector plus two half-size scratch buffers.

This order of arithmetic gives amplitudes that differ in the last bits (up
to about 5e-16) from a gate-by-gate simulation over the full state; the
readout's TIE_TOL makes the outcome, and so h2, the same for both.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CRX, RX, RZ, Circuit

NORM_TOL = 1e-10
# Probabilities within this relative gap of the maximum count as tied. In
# random digests at n <= 16 the top two probabilities of the ansatz differ by
# at least 2.8e-5 relative or only by rounding, at most 1e-12 relative.
TIE_TOL = 1e-9


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


@functools.lru_cache(maxsize=None)
def _halves(n_qubits: int, kind: str, target: int,
            control: int | None) -> tuple[tuple, tuple]:
    # Indices into the (2,)*n view of the state picking the target's |0> and
    # |1> halves (within the control = 1 half for crx). The trailing Ellipsis
    # keeps the picks views, so they stay writable when every axis is indexed.
    axes: list = [slice(None)] * n_qubits
    if kind == CRX:
        axes[control] = 1
    halves = []
    for bit in (0, 1):
        axes[target] = bit
        halves.append(tuple(axes) + (Ellipsis,))
    return halves[0], halves[1]


def _check_norm(state: np.ndarray, where: str) -> None:
    norm = float(np.linalg.norm(state))
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise RuntimeError(f"statevector norm drifted to {norm!r} after {where}")


def simulate(circuit: Circuit, check_norm: bool = False) -> np.ndarray:
    """Run the circuit from |0...0> and return the final statevector.

    With ``check_norm`` the prefix and every later gate are followed by a
    unitarity check that the L2 norm stayed within 1e-10 of 1; violations
    raise RuntimeError.
    """
    n = circuit.n_qubits
    template, angles = circuit.template, circuit.angles
    prefix = next((i for i, (kind, _, _) in enumerate(template) if kind == CRX), len(template))
    # Each qubit's (|0>, |1>) amplitudes after the prefix, in scalar arithmetic.
    q0, q1 = [1 + 0j] * n, [0j] * n
    for (kind, target, _), angle in zip(template[:prefix], angles):
        a0, a1 = q0[target], q1[target]
        if kind == RX:
            c, ms = math.cos(0.5 * angle), -1j * math.sin(0.5 * angle)
            q0[target], q1[target] = c * a0 + ms * a1, ms * a0 + c * a1
        else:
            q0[target], q1[target] = a0 * cmath.exp(-0.5j * angle), a1 * cmath.exp(0.5j * angle)
    # Their product, written in place: state[:size] holds the product of
    # qubits k+1..n-1, and qubit k, the next more significant bit, doubles
    # that block. The sweeps total about two passes over the state.
    state = np.empty(1 << n, dtype=np.complex128)
    state[0] = 1.0
    size = 1
    for k in range(n - 1, -1, -1):
        np.multiply(state[:size], q1[k], out=state[size:2 * size])
        state[:size] *= q0[k]
        size *= 2
    if check_norm:
        _check_norm(state, f"the {prefix}-gate prefix")

    psi = state.reshape((2,) * n)
    # Two half-size buffers, reused by every gate: an rx half fills them, a
    # crx half (a quarter of the state) fills their first halves. All
    # arithmetic lands in the state or these buffers, no temporaries.
    half = (np.empty((2,) * (n - 1), dtype=np.complex128),
            np.empty((2,) * (n - 1), dtype=np.complex128))
    quarter = (half[0][0, ...], half[1][0, ...]) if n > 1 else half
    for i, ((kind, target, control), angle) in enumerate(
            zip(template[prefix:], angles[prefix:]), prefix):
        lo, hi = _halves(n, kind, target, control)
        a0 = psi[lo]
        a1 = psi[hi]
        if kind == RZ:
            a0 *= cmath.exp(-0.5j * angle)
            a1 *= cmath.exp(0.5j * angle)
        else:
            # rx is diagonal in the |+>, |-> basis: rotate the sum and the
            # difference of the halves by opposite phases, then map back.
            s, t = half if kind == RX else quarter
            np.add(a0, a1, out=s)
            np.subtract(a0, a1, out=t)
            s *= 0.5 * cmath.exp(-0.5j * angle)
            t *= 0.5 * cmath.exp(0.5j * angle)
            np.add(s, t, out=a0)
            np.subtract(s, t, out=a1)
        if check_norm:
            _check_norm(state, f"gate {i} ({kind})")
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    return (state.real * state.real) + (state.imag * state.imag)


def most_probable_state(state: np.ndarray) -> BasisOutcome:
    """The basis state maximizing |amplitude|^2; ties go to the lowest index.

    Probabilities at least ``p_max * (1 - TIE_TOL)`` tie with the maximum.
    """
    n = num_qubits(state)
    probs = probabilities(state)
    # Mark the ties in place (1.0 or 0.0) rather than in a new mask: a mask
    # allocated per hash slowed n=20 hashing by about 4%.
    np.greater_equal(probs, probs.max() * (1.0 - TIE_TOL), out=probs)
    idx = int(np.argmax(probs))  # the first tie
    amp = state[idx]
    return BasisOutcome(format(idx, f"0{n}b"), float(amp.real * amp.real + amp.imag * amp.imag))


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
