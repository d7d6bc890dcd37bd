"""Exact statevector simulation of the ansatz and Born-rule sampling.

Conventions, used consistently by the chain layer:
- qubit 0 is the most significant bit of basis-state indices and bit strings;
- gates apply in list order, starting from |0...0>;
- the readout is the lowest basis-state index whose probability is within a
  relative TIE_TOL of the maximum, so rounding cannot pick among true ties.

Every circuit runs in two parts. The rx/rz gates before the first crx act on
|0...0>, so they leave a product state: they are folded into one 2-vector per
qubit in scalar arithmetic, and the product is written into the amplitude
array in one sweep. The later gates take one of two routes, chosen once per
circuit by the state size:
- below FUSE_MIN_QUBITS each gate acts in place on the |0> and |1> halves of
  its target, picked from the (2,)*n view of the array by index tuples cached
  per gate structure; an rx or crx passes over those strided halves four
  times (two reads, two writes) by rotating their sum and difference;
- from FUSE_MIN_QUBITS on, each maximal run of consecutive crx gates sharing
  a control is one step. On the control = 1 half the run is a Kronecker
  product of rx rotations (a repeated target's rotations multiplied in gate
  order), so that half is copied into a contiguous buffer, adjacent target
  axes are rotated together by one matrix of up to 16x16 through tiled
  matrix products, and the result is copied back. rx/rz gates still go
  gate by gate.
The state and both half-size scratch buffers are one allocation of 2^(n+1)
amplitudes; the returned state is a view of its first half.

This order of arithmetic gives amplitudes that differ in the last bits (up
to about 5e-16) from a gate-by-gate simulation over the full state; the
readout's TIE_TOL makes the outcome, and so h2, the same for both.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CRX, RX, RZ, Circuit

NORM_TOL = 1e-10
# Probabilities within this relative gap of the maximum count as tied. In
# random digests at n <= 16 the top two probabilities of the ansatz differ by
# at least 2.8e-5 relative or only by rounding, at most 1e-12 relative.
TIE_TOL = 1e-9
# Same-control crx runs are fused from this qubit count on, where a
# control = 1 half holds 2^13 amplitudes; smaller states go gate by gate.
FUSE_MIN_QUBITS = 14
# Adjacent target axes rotated by one Kronecker matrix (16x16 at most).
FUSE_AXES = 4
# Multiply-adds per BLAS call in a fused run.
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

    The result is a view into a 2^(n+1)-amplitude block that also held the
    scratch buffers, so it keeps that block alive. With ``check_norm`` the
    prefix, every later rx/rz or unfused crx gate and every fused crx run are
    followed by a unitarity check that the L2 norm stayed within 1e-10 of 1;
    violations raise RuntimeError.
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
    # One block: the state, then two half-size scratch buffers. From n = 20
    # on it exceeds the 32 MiB ceiling of glibc's mmap threshold, so every
    # call maps and unmaps it instead of leaving part of it in the heap.
    work = np.empty(2 << n, dtype=np.complex128)
    state = work[:1 << n]
    # The product, written in place: state[:size] holds the product of
    # qubits k+1..n-1, and qubit k, the next more significant bit, doubles
    # that block. The sweeps total about two passes over the state.
    state[0] = 1.0
    size = 1
    for k in range(n - 1, -1, -1):
        np.multiply(state[:size], q1[k], out=state[size:2 * size])
        state[:size] *= q0[k]
        size *= 2
    if check_norm:
        _check_norm(state, f"the {prefix}-gate prefix")

    psi = state.reshape((2,) * n)
    scratch = work[1 << n:].reshape(2, -1)
    if n < FUSE_MIN_QUBITS:
        _gate_by_gate(psi, template, angles, prefix, len(template), scratch, check_norm)
        return state
    # rx/rz have no control, so grouping the gates by control splits them
    # into maximal same-control crx runs and stretches of rx/rz.
    for control, run in itertools.groupby(range(prefix, len(template)),
                                          lambda i: template[i][2]):
        first = next(run)
        stop = max(run, default=first) + 1
        if control is None:
            _gate_by_gate(psi, template, angles, first, stop, scratch, check_norm)
        else:
            _fused_crx_run(psi, control, template[first:stop], angles[first:stop], scratch)
            if check_norm:
                _check_norm(state, f"gates {first}..{stop - 1} (crx run)")
    return state


def _gate_by_gate(psi: np.ndarray, template, angles, start: int, stop: int,
                  scratch: np.ndarray, check_norm: bool) -> None:
    # Gates start..stop-1, each in place on its target's halves. An rx fills
    # both scratch rows, a crx (a quarter of the state) their first halves.
    # All arithmetic lands in the state or the scratch, no temporaries.
    n = psi.ndim
    half = tuple(scratch.reshape((2,) * n))
    quarter = (half[0][0, ...], half[1][0, ...]) if n > 1 else half
    for i, ((kind, target, control), angle) in enumerate(
            zip(template[start:stop], angles[start:stop]), start):
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
            _check_norm(psi, f"gate {i} ({kind})")


def _fused_crx_run(psi: np.ndarray, control: int, run, angles, scratch: np.ndarray) -> None:
    # The run's gates commute: on the control = 1 half they act as one rx
    # rotation per target, a repeated target's rotations multiplied in gate
    # order. That half is copied into a scratch row, rotated there one
    # group of adjacent target axes at a time, alternating between the two
    # rows, and copied back.
    rotations: dict[int, np.ndarray] = {}  # axis of the half -> 2x2 matrix
    for (_, target, _), angle in zip(run, angles):
        c, ms = math.cos(0.5 * angle), -1j * math.sin(0.5 * angle)
        rx = np.array(((c, ms), (ms, c)))
        axis = target - (target > control)
        rotations[axis] = rx @ rotations[axis] if axis in rotations else rx
    half = psi[(slice(None),) * control + (1,)]
    src, dst = scratch
    np.copyto(src.reshape(half.shape), half)
    for axes in _axis_groups(sorted(rotations)):
        matrix = rotations[axes[0]]
        for axis in axes[1:]:  # Kronecker product, without np.kron's overhead
            dim = 2 * len(matrix)
            matrix = (matrix[:, None, :, None] * rotations[axis][:, None, :]).reshape(dim, dim)
        _rotate_axes(matrix, src, dst, axes[0], len(axes), half.ndim)
        src, dst = dst, src
    np.copyto(half, src.reshape(half.shape))


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
