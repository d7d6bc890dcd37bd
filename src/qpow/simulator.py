"""Exact statevector simulation of the ansatz and Born-rule sampling.

Conventions, used consistently by the chain layer:
- qubit 0 is the most significant bit of basis-state indices and bit strings;
- gates apply in list order, starting from |0...0>;
- the readout is the lowest basis-state index whose probability is within a
  relative TIE_TOL of the maximum, so rounding cannot pick among true ties.

Every circuit, of any size, runs through one kernel. Its gates are split into
maximal runs of consecutive gates that share a control field: stretches of
rx/rz (no control) and runs of crx gates with one control. A run acts on a
block of the state as one 2x2 matrix per axis, a repeated target's gates
multiplied in gate order in scalar arithmetic: on the whole state for rx/rz,
on the control = 1 half for crx. The rx/rz gates before the first crx act on
|0...0>, so their matrices' first columns give a product state, written into
the amplitude array in one sweep. Every later run rotates adjacent axes of
its block together by one Kronecker matrix of up to 16x16 through tiled
matrix products, alternating between the block and a scratch buffer of its
size; a crx run's half is copied into the scratch and back. The state and
its 2^n scratch buffer are one allocation of 2^(n+1) amplitudes; the
returned state is a view of its first half.

This order of arithmetic gives amplitudes that differ in the last bits (up
to about 1e-15) from a gate-by-gate simulation over the full state; the
readout's TIE_TOL makes the outcome, and so h2, the same for both.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CRX, RZ, Circuit

NORM_TOL = 1e-10
# Probabilities within this relative gap of the maximum count as tied. In
# random digests at n <= 16 the top two probabilities of the ansatz differ by
# at least 2.8e-5 relative or only by rounding, at most 1e-12 relative.
TIE_TOL = 1e-9
# Adjacent target axes rotated by one Kronecker matrix (16x16 at most).
FUSE_AXES = 4
# Multiply-adds per BLAS call.
TILE_MACS = 1 << 14
# Probabilities per readout chunk.
READOUT_CHUNK = 1 << 16


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


def _check_norm(state: np.ndarray, where: str) -> None:
    norm = float(np.linalg.norm(state))
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise RuntimeError(f"statevector norm drifted to {norm!r} after {where}")


def simulate(circuit: Circuit, check_norm: bool = False) -> np.ndarray:
    """Run the circuit from |0...0> and return the final statevector.

    The result is a view into a 2^(n+1)-amplitude block that also held the
    scratch buffer, so it keeps that block alive. With ``check_norm`` the
    prefix and every later run of gates are followed by a unitarity check
    that the L2 norm stayed within 1e-10 of 1; violations raise RuntimeError.
    """
    n = circuit.n_qubits
    template, angles = circuit.template, circuit.angles
    prefix = next((i for i, (kind, _, _) in enumerate(template) if kind == CRX), len(template))
    # Column 0 of each qubit's matrix: its (|0>, |1>) amplitudes after the prefix.
    columns = _fold(template[:prefix], angles[:prefix], None)
    # One block: the state, then a scratch buffer of the same size. From
    # n = 20 on it exceeds the 32 MiB ceiling of glibc's mmap threshold, so
    # every call maps and unmaps it instead of leaving part of it in the heap.
    work = np.empty(2 << n, dtype=np.complex128)
    state, scratch = work[:1 << n], work[1 << n:]
    # The product, written in place: state[:size] holds the product of
    # qubits k+1..n-1, and qubit k, the next more significant bit, doubles
    # that block. The sweeps total about two passes over the state.
    state[0] = 1.0
    size = 1
    for k in range(n - 1, -1, -1):
        a0, _, a1, _ = columns.get(k, _IDENTITY)
        np.multiply(state[:size], a1, out=state[size:2 * size])
        state[:size] *= a0
        size *= 2
    if check_norm:
        _check_norm(state, f"the {prefix}-gate prefix")

    psi = state.reshape((2,) * n)
    rows = scratch.reshape(2, -1)
    # rx/rz have no control, so grouping the gates by control splits them
    # into maximal same-control crx runs and stretches of rx/rz.
    for control, run in itertools.groupby(range(prefix, len(template)),
                                          lambda i: template[i][2]):
        first = next(run)
        stop = max(run, default=first) + 1
        matrices = _fold(template[first:stop], angles[first:stop], control)
        if control is None:
            out = _rotate(matrices, state, scratch, n)
            if out is not state:
                np.copyto(state, out)
        else:
            half = psi[(slice(None),) * control + (1,)]
            np.copyto(rows[0].reshape(half.shape), half)
            out = _rotate(matrices, rows[0], rows[1], n - 1)
            np.copyto(half, out.reshape(half.shape))
        if check_norm:
            _check_norm(state, f"gates {first}..{stop - 1}")
    return state


_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _fold(run, angles, control: int | None) -> dict[int, tuple]:
    # The run's gates commute across targets: on its block (the control = 1
    # half for crx, whose axes skip the control) they act as one 2x2 matrix
    # (m00, m01, m10, m11) per axis, a repeated target's gates multiplied in
    # gate order. Folded in scalar arithmetic: one np.array per gate made an
    # n=4 hash slower than applying the gates one by one.
    matrices: dict[int, tuple] = {}
    for (kind, target, _), angle in zip(run, angles):
        axis = target if control is None else target - (target > control)
        a, b, c, d = matrices.get(axis, _IDENTITY)
        if kind == RZ:
            lo, hi = cmath.exp(-0.5j * angle), cmath.exp(0.5j * angle)
            matrices[axis] = (lo * a, lo * b, hi * c, hi * d)
        else:  # rx, or a crx's rx on the control = 1 half
            co, ms = math.cos(0.5 * angle), -1j * math.sin(0.5 * angle)
            matrices[axis] = (co * a + ms * c, co * b + ms * d, ms * a + co * c, ms * b + co * d)
    return matrices


def _rotate(matrices: dict[int, tuple], src: np.ndarray, dst: np.ndarray,
            n_axes: int) -> np.ndarray:
    # Applies each axis's matrix to the block in src, one group of adjacent
    # axes at a time, alternating between src and dst; returns the one that
    # holds the result.
    for axes in _axis_groups(sorted(matrices)):
        factors = np.array([matrices[axis] for axis in axes], dtype=np.complex128)
        matrix = np.multiply.reduce(factors.ravel()[_KRON_INDEX[len(axes)]])
        _rotate_axes(matrix, src, dst, axes[0], len(axes), n_axes)
        src, dst = dst, src
    return src


def _kron_index(count: int) -> np.ndarray:
    # Picks the Kronecker product of ``count`` 2x2 factors out of their
    # flattened entries: [l, r, c] indexes the entry of factor l at the
    # bits of row r and column c that belong to its axis, so the product
    # over l is the matrix, without np.kron's overhead.
    bits = np.arange(1 << count) >> np.arange(count - 1, -1, -1)[:, None] & 1
    return 4 * np.arange(count)[:, None, None] + 2 * bits[:, :, None] + bits[:, None, :]


_KRON_INDEX = {count: _kron_index(count) for count in range(1, FUSE_AXES + 1)}


def _axis_groups(axes: list[int]) -> list[list[int]]:
    # Sorted axes split into spans of adjacent axes, each cut from its end
    # into groups of at most FUSE_AXES. A span that reaches the last axis
    # then ends in full groups, so every product before the last one spans
    # at least 16 columns; cut from its start, one could span 2, and such
    # narrow products cost the most per amplitude.
    spans: list[list[int]] = []
    for axis in axes:
        if spans and spans[-1][-1] == axis - 1:
            spans[-1].append(axis)
        else:
            spans.append([axis])
    return [span[max(0, stop - FUSE_AXES):stop]
            for span in spans for stop in range(len(span), 0, -FUSE_AXES)]


def _rotate_axes(matrix: np.ndarray, src: np.ndarray, dst: np.ndarray,
                 first: int, count: int, n_axes: int) -> None:
    # dst = src with ``matrix`` applied to axes first..first+count-1 of its
    # (2,)*n_axes view. Each BLAS call does at most TILE_MACS multiply-adds,
    # which keeps OpenBLAS 0.3.31 on the calling thread (it threads from
    # about 2^16): on a shared two-core host one threaded (16x16)@(16x2^15)
    # product took 8 ms against 0.15 ms on one thread.
    dim = 1 << count
    outer, inner = 1 << first, 1 << (n_axes - first - count)
    tile = TILE_MACS // (dim * dim)
    if inner == 1:
        # Rows of ``dim`` contiguous amplitudes, ``tile`` rows per product.
        shape = (-1, min(tile, outer), dim)
        np.matmul(src.reshape(shape), matrix.T, out=dst.reshape(shape))
    else:
        # Columns of ``dim`` amplitudes ``inner`` apart, ``tile`` columns
        # per product.
        cols = min(tile, inner)
        shape = (outer, dim, inner // cols, cols)
        np.matmul(matrix, src.reshape(shape).transpose(0, 2, 1, 3),
                  out=dst.reshape(shape).transpose(0, 2, 1, 3))


def probabilities(state: np.ndarray) -> np.ndarray:
    return (state.real * state.real) + (state.imag * state.imag)


def most_probable_state(state: np.ndarray) -> BasisOutcome:
    """The basis state maximizing |amplitude|^2; ties go to the lowest index.

    Probabilities at least ``p_max * (1 - TIE_TOL)`` tie with the maximum.
    A state longer than READOUT_CHUNK is read chunk by chunk, so no 2^n
    temporary is allocated; the tie decisions are the same either way.
    """
    n = num_qubits(state)
    if len(state) <= READOUT_CHUNK:
        base, probs = 0, probabilities(state)
        threshold = probs.max() * (1.0 - TIE_TOL)
    else:
        base, probs, threshold = _first_tied_chunk(state)
    # Mark the ties in place (1.0 or 0.0) rather than in a new mask: a mask
    # allocated per hash slowed n=20 hashing by about 4%.
    np.greater_equal(probs, threshold, out=probs)
    idx = base + int(np.argmax(probs))  # the first tie
    amp = state[idx]
    return BasisOutcome(format(idx, f"0{n}b"), float(amp.real * amp.real + amp.imag * amp.imag))


def _first_tied_chunk(state: np.ndarray) -> tuple[int, np.ndarray, float]:
    # The offset and probabilities of the first READOUT_CHUNK-long chunk
    # that holds a tie, and the tie threshold. Each chunk's probabilities
    # are the same elementwise operations as over the whole state, and the
    # maximum of the chunk maxima is the whole maximum, so every comparison
    # with the threshold comes out as in one pass.
    peaks = []
    for lo in range(0, len(state), READOUT_CHUNK):
        probs = probabilities(state[lo:lo + READOUT_CHUNK])
        peaks.append(probs.max())
    threshold = np.max(peaks) * (1.0 - TIE_TOL)
    # A NaN maximum ties nowhere; the readout then falls to index 0, as in
    # one pass.
    first = next((k for k, peak in enumerate(peaks) if peak >= threshold), 0)
    if first != len(peaks) - 1:  # probs holds the last chunk
        probs = probabilities(state[first * READOUT_CHUNK:(first + 1) * READOUT_CHUNK])
    return first * READOUT_CHUNK, probs, threshold


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
