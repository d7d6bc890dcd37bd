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
multiplied in gate order: on the whole state for rx/rz, on the control = 1
half for crx. The rx/rz gates before the first crx act on |0...0>, so their
matrices' first columns give a product state, written into the amplitude
array in one sweep. Every later run rotates adjacent axes of its block
together by one Kronecker matrix of up to 16x16 through tiled matrix
products, alternating between the block and a scratch buffer of its size; a
crx run's half is copied into the scratch and back. The state and its 2^n
scratch buffer are one allocation of 2^(n+1) amplitudes; the returned state
is a view of its first half.

How a template splits into runs, axis groups and product shapes depends
only on its (kind, target, control) triples, so it is planned once per
template (`_plan`, a bounded cache). Per circuit, every gate's 2x2 matrix,
every per-axis fold and every Kronecker matrix of one size come from a few
array operations over all of its angles at once; the run loop only applies
them.

This order of arithmetic gives amplitudes that differ in the last bits (up
to about 1e-15) from a gate-by-gate simulation over the full state; the
readout's TIE_TOL makes the outcome, and so h2, the same for both.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .circuit import CRX, RZ, Circuit, Slot

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
# Templates whose plans are kept: more than the 29 ansatz templates, so that
# those stay cached, while hand-built circuits cannot grow the cache.
PLAN_CACHE = 64


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
    plan = _plan(circuit.template, n)
    columns, krons = plan.matrices(circuit.angles)
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
    for a0, a1 in columns:  # qubits n-1 .. 0
        np.multiply(state[:size], a1, out=state[size:2 * size])
        state[:size] *= a0
        size *= 2
    if check_norm:
        _check_norm(state, f"the {plan.prefix}-gate prefix")

    rows = scratch.reshape(2, -1)
    # The control = 1 half of the state for each control, as (outer, inner).
    halves = [state.reshape(shape)[:, 1] for shape in plan.halves]
    for run in plan.runs:
        if run.half is None:
            src, dst = state, scratch
        else:
            half = halves[run.half]
            src, dst = rows
            np.copyto(src.reshape(half.shape), half)
        for count, index, shape, columnwise in run.steps:
            matrix = krons[count][index]
            if columnwise:
                np.matmul(matrix, src.reshape(shape).transpose(0, 2, 1, 3),
                          out=dst.reshape(shape).transpose(0, 2, 1, 3))
            else:
                np.matmul(src.reshape(shape), matrix.T, out=dst.reshape(shape))
            src, dst = dst, src
        if run.half is not None:
            np.copyto(half, src.reshape(half.shape))
        elif src is not state:
            np.copyto(state, src)
        if check_norm:
            _check_norm(state, f"gates {run.first}..{run.stop - 1}")
    return state


@dataclass(frozen=True)
class _Run:
    # Gates first..stop-1, applied to the whole state (half None) or to the
    # control = 1 half of plan.halves[half]. Each step applies Kronecker
    # matrix ``index`` of those on ``count`` axes to the block reshaped to
    # ``shape``, through its (0, 2, 1, 3) transpose when ``columnwise``.
    first: int
    stop: int
    half: int | None
    steps: tuple[tuple[int, int, tuple[int, ...], bool], ...]


@dataclass(frozen=True)
class _Plan:
    """What simulate does with a template, worked out once per template.

    A slot is one axis of one run (or one qubit of the prefix); its matrix
    is the product of its gates' matrices in gate order. Slots are numbered
    by decreasing gate count, so the gates at depth d >= 1 act on the first
    ``len(levels[d])`` slots; the last slot has no gates and stays the
    identity. Gate index len(template) stands for the identity matrix.
    """

    prefix: int
    # [d][s]: the gate at depth d of slot s.
    levels: tuple[np.ndarray, ...]
    # A gate's matrix entries as float pairs: cos(angle/2) * cos_part +
    # sin(angle/2) * sin_part, one row per gate and one for the identity.
    cos_part: np.ndarray
    sin_part: np.ndarray
    # Flat indices of (m00, m10) of each qubit's prefix slot, qubits n-1..0.
    prefix_columns: np.ndarray
    # [count]: (groups, count, 2^count, 2^count) flat indices of the factors
    # of each Kronecker matrix on that many axes; None where there is none.
    kron: tuple[np.ndarray | None, ...]
    # (outer, 2, inner) shapes that expose each control's two halves.
    halves: tuple[tuple[int, int, int], ...]
    runs: tuple[_Run, ...]

    def matrices(self, angles: tuple[float, ...]) -> tuple[list, list]:
        """The prefix's product-state columns and every Kronecker matrix."""
        half_angles = np.array(angles + (0.0,)) * 0.5
        entries = (np.cos(half_angles)[:, None] * self.cos_part
                   + np.sin(half_angles)[:, None] * self.sin_part)
        gates = entries.view(np.complex128).reshape(-1, 2, 2)
        folded = gates[self.levels[0]]
        for level in self.levels[1:]:
            folded[:len(level)] = gates[level] @ folded[:len(level)]
        flat = folded.reshape(-1)
        krons = [None if index is None else np.multiply.reduce(flat[index], axis=1)
                 for index in self.kron]
        return flat[self.prefix_columns].tolist(), krons


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(template: tuple[Slot, ...], n: int) -> _Plan:
    prefix = next((i for i, (kind, _, _) in enumerate(template) if kind == CRX), len(template))
    slots: list[list[int]] = []  # each slot's gates, in gate order

    def fold(gates, control: int | None) -> dict[int, int]:
        # The slot of each axis the gates act on: the target's axis of the
        # state, or of the control = 1 half, whose axes skip the control.
        axes: dict[int, int] = {}
        for i in gates:
            target = template[i][1]
            axis = target if control is None else target - (target > control)
            if axis not in axes:
                axes[axis] = len(slots)
                slots.append([])
            slots[axes[axis]].append(i)
        return axes

    prefix_axes = fold(range(prefix), None)
    controls: list[int] = []
    runs = []
    # rx/rz have no control, so grouping the gates by control splits them
    # into maximal same-control crx runs and stretches of rx/rz.
    for control, run in itertools.groupby(range(prefix, len(template)),
                                          lambda i: template[i][2]):
        gates = list(run)
        if control is None:
            half, n_axes = None, n
        else:
            if control not in controls:
                controls.append(control)
            half, n_axes = controls.index(control), n - 1
        runs.append((gates[0], gates[-1] + 1, half, n_axes, fold(gates, control)))
    identity = len(slots)
    slots.append([])

    # Renumber the slots by decreasing depth (stable), so that each depth
    # level covers a leading range of them.
    order = sorted(range(len(slots)), key=lambda s: -len(slots[s]))
    number = {s: k for k, s in enumerate(order)}
    levels = [np.array([slots[s][0] if slots[s] else len(template) for s in order])]
    levels += [np.array([slots[s][d] for s in order if len(slots[s]) > d])
               for d in range(1, len(slots[order[0]]))]

    cos_part = np.zeros((len(template) + 1, 8))
    sin_part = np.zeros((len(template) + 1, 8))
    cos_part[:, [0, 6]] = 1.0  # m00 and m11
    for i, (kind, _, _) in enumerate(template):
        if kind == RZ:  # m00, m11 = exp(-/+ i angle/2)
            sin_part[i, [1, 7]] = -1.0, 1.0
        else:  # rx, or a crx's rx on the control = 1 half: m01 = m10 = -i sin
            sin_part[i, [3, 5]] = -1.0

    groups: list[list[list[int]]] = [[] for _ in range(FUSE_AXES + 1)]
    plan_runs = []
    for first, stop, half, n_axes, axes in runs:
        steps = []
        for group in _axis_groups(sorted(axes)):
            count = len(group)
            steps.append((count, len(groups[count]), *_product_shape(group[0], count, n_axes)))
            groups[count].append([number[axes[axis]] for axis in group])
        plan_runs.append(_Run(first, stop, half, tuple(steps)))
    kron = tuple(4 * np.array(found)[:, :, None, None] + _KRON_BITS[count] if found else None
                 for count, found in enumerate(groups))
    prefix_columns = np.array([[4 * number[prefix_axes.get(q, identity)] + entry
                                for entry in (0, 2)] for q in range(n - 1, -1, -1)])
    halves = tuple((1 << c, 2, 1 << (n - 1 - c)) for c in controls)
    return _Plan(prefix, tuple(levels), cos_part, sin_part, prefix_columns, kron, halves,
                 tuple(plan_runs))


def _kron_bits(count: int) -> np.ndarray:
    # [l, r, c]: the offset, within factor l's flattened 2x2 entries, of the
    # entry at the bits of row r and column c that belong to its axis; the
    # product over l of those entries is the Kronecker matrix, without
    # np.kron's overhead.
    bits = np.arange(1 << count) >> np.arange(count - 1, -1, -1)[:, None] & 1
    return 2 * bits[:, :, None] + bits[:, None, :]


_KRON_BITS = [None] + [_kron_bits(count) for count in range(1, FUSE_AXES + 1)]


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


def _product_shape(first: int, count: int, n_axes: int) -> tuple[tuple[int, ...], bool]:
    # How a matrix on axes first..first+count-1 of a (2,)*n_axes block is
    # applied: the block's shape for np.matmul, and whether the products run
    # over columns. Each BLAS call does at most TILE_MACS multiply-adds,
    # which keeps OpenBLAS 0.3.31 on the calling thread (it threads from
    # about 2^16): on a shared two-core host one threaded (16x16)@(16x2^15)
    # product took 8 ms against 0.15 ms on one thread.
    dim = 1 << count
    outer, inner = 1 << first, 1 << (n_axes - first - count)
    tile = TILE_MACS // (dim * dim)
    if inner == 1:
        # Rows of ``dim`` contiguous amplitudes, ``tile`` rows per product.
        return (-1, min(tile, outer), dim), False
    # Columns of ``dim`` amplitudes ``inner`` apart, ``tile`` columns per
    # product.
    cols = min(tile, inner)
    return (outer, dim, inner // cols, cols), True


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
    # with the threshold comes out as in one pass. They are written into one
    # pair of buffers: three temporaries per chunk made an n=20 readout
    # about twice as slow.
    probs, imag = np.empty(READOUT_CHUNK), np.empty(READOUT_CHUNK)

    def chunk(lo: int) -> None:
        part = state[lo:lo + READOUT_CHUNK]
        np.multiply(part.real, part.real, out=probs)
        np.multiply(part.imag, part.imag, out=imag)
        np.add(probs, imag, out=probs)

    peaks = []
    for lo in range(0, len(state), READOUT_CHUNK):
        chunk(lo)
        peaks.append(probs.max())
    threshold = np.max(peaks) * (1.0 - TIE_TOL)
    # A NaN maximum ties nowhere; the readout then falls to index 0, as in
    # one pass.
    first = next((k for k, peak in enumerate(peaks) if peak >= threshold), 0)
    if first != len(peaks) - 1:  # probs holds the last chunk
        chunk(first * READOUT_CHUNK)
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
