"""Exact statevector simulation of the ansatz and Born-rule sampling.

Conventions, used consistently by the chain layer:
- qubit 0 is the most significant bit of basis-state indices and bit strings;
- gates apply in list order, starting from |0...0>;
- the readout is the lowest basis-state index whose probability is within a
  relative TIE_TOL of the maximum, so rounding cannot pick among true ties.

Every circuit, of any size, runs through one kernel, ``simulate_batch``. It
runs B circuits that share a template, differing only in their angles, as one
(B, 2^n) block with the batch on the leading axis; ``simulate`` is its batch
of one. Gates are split into maximal runs of consecutive gates that share a
control field: stretches of rx/rz (no control) and runs of crx gates with one
control. A run acts on a block of each state as one 2x2 matrix per axis, a
repeated target's gates multiplied in gate order: on the whole state for
rx/rz, on the control = 1 half for crx. The rx/rz gates before the first crx
act on |0...0>, so their matrices' first columns give a product state: one
Kronecker vector per group of up to four qubits, joined by one outer product
per group. Every later run rotates adjacent axes of its block together by one
Kronecker matrix of up to 16x16 through tiled matrix products. Each product
covers the whole batch, each row with its own matrix. The states and their
scratch are one allocation of 2 * B * 2^n amplitudes.

The states are stored with their qubits in a fixed order per template (a
``QubitOrder``): the crx controls first, in order of first use, then the other
qubits in ascending order; when every qubit is a control, ascending order is
kept. The control = 1 half of the control on axis j is then 2^j blocks of
2^(n-1-j) contiguous amplitudes. A crx run rotates its half in place, through
views of the states, when its target axes all lie after its control's axis,
or when the control is on the last axis: an even number of products
alternates between the half and one half of the scratch, an odd number of
three or more first passes through both scratch halves, and a single product
goes to the scratch and is copied back. Any other run gathers its half into
the scratch and copies it back; from n = 17 on no ansatz run does. No product
writes over its own operand, which NumPy would read from a temporary copy
beyond the block. An rx/rz stretch alternates between the states and the
scratch. The readout keeps the rule on basis indices: within a block of
fixed control bits the basis index grows with the stored index, so it maps
each tied block's first tie to its basis index and takes the lowest.

The kernel runs in the fixed diagonal frame F = diag(1, -i) on every qubit:
it stores x' = F^-1 x, which is amplitude i of x times i^popcount(i). There
rx(a) is the real rotation [[cos a/2, -sin a/2], [sin a/2, cos a/2]], while
rz and crx's control projectors, being diagonal, are unchanged. So every
Kronecker matrix of a crx run is real, for any circuit, and the products
over a crx half's columns are real matrix products on its float view, whose
rows hold the amplitudes' re/im parts side by side, wherever the half has
one. |x'_i|^2 = |x_i|^2, so
the readout needs no conversion; ``simulate`` and ``chain.prove`` convert
their states back to ascending qubits and out of the frame with ``to_basis``,
into the batch's free scratch, and hashing never does.

How many circuits share a batch is capped by BATCH_BYTES, the bytes a batch
keeps live (states, scratch, Kronecker matrices, gate matrices), so a batch
stays cache-sized: B is 32 at n = 4, 8 at n = 12, and 1 from n = 15 on,
where two circuits no longer fit.

How a template splits into runs, axis groups and product shapes depends
only on its (kind, target, control) triples, so it is planned once per
template (`_plan`, a bounded cache). Per batch, every gate's 2x2 matrix,
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
# Complex multiply-adds per BLAS call (see _product_shape).
TILE_MACS = 1 << 14
# The forms of a Kronecker product step: complex rows times a transposed
# matrix, a complex matrix times columns, a real matrix times real columns.
_ROWS, _COLUMNS, _REAL = 0, 1, 2
# Puts a column product's (dim, cols) block last, for np.matmul.
_SWAP = (0, 1, 2, 4, 3, 5)
# Probabilities per readout chunk.
READOUT_CHUNK = 1 << 16
# Templates whose plans are kept: more than the 29 ansatz templates, so that
# those stay cached, while hand-built circuits cannot grow the cache.
PLAN_CACHE = 64
# Live bytes of one batch of circuits (see _Plan.row_bytes).
BATCH_BYTES = 7 << 18


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


def _check_norm(states: np.ndarray, where: str) -> None:
    for row, norm in enumerate(np.linalg.norm(states, axis=1).tolist()):
        if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
            raise RuntimeError(f"statevector norm of row {row} drifted to {norm!r} after {where}")


def simulate(circuit: Circuit, check_norm: bool = False) -> np.ndarray:
    """Run the circuit from |0...0> and return the final statevector.

    The batch of one circuit, converted back to ascending qubits and out of
    the frame: the result is a view into the 2^(n+1)-amplitude block of
    ``simulate_batch``, so it keeps that block alive.
    """
    states, scratch, order = simulate_batch(circuit.template, circuit.n_qubits,
                                            np.array([circuit.angles]), check_norm)
    return to_basis(states, order, scratch)[0]


def to_basis(states: np.ndarray, order: QubitOrder | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """Convert C-contiguous (..., 2^n) states of ``simulate_batch``, stored in
    ``order`` (None: ascending qubits) and in the frame F, to
    computational-basis amplitudes, and return them.

    In ascending order they are converted in place. Otherwise their axes are
    first permuted into ``out``, a C-contiguous array of the same shape (the
    batch's free scratch), which is then converted and returned. Amplitude i
    is multiplied by (-i)^popcount(i), the diagonal of F, as a factor of the
    low n/2 index bits times one of the high bits. Each factor is 1, -i, -1
    or i, so the conversion is exact.
    """
    n = states.shape[-1].bit_length() - 1
    if order is not None:
        stored = states.reshape((-1,) + (2,) * n)
        np.copyto(out.reshape(stored.shape), stored.transpose(0, *np.argsort(order.qubits) + 1))
        states = out
    low = n // 2
    view = states.reshape(-1, 1 << (n - low), 1 << low)
    view *= _frame_diagonal(low)
    view *= _frame_diagonal(n - low)[:, None]
    return states


@functools.lru_cache(maxsize=16)
def _frame_diagonal(k: int) -> np.ndarray:
    # (-i)^popcount(j) for j < 2^k, read-only. Kept per k: at most 2^15
    # entries for n <= 30, where building it took more than converting an
    # n=4 state.
    diagonal = np.array([1, -1j, -1, 1j])[[bin(j).count("1") & 3 for j in range(1 << k)]]
    diagonal.flags.writeable = False
    return diagonal


@dataclass(frozen=True, eq=False)
class QubitOrder:
    """How ``simulate_batch`` stores the states of a template whose qubits
    it does not keep in ascending order.

    ``qubits[k]`` is the qubit on axis k, axis 0 being the most significant
    bit of a stored index. The first axes hold the crx controls and the
    others the remaining qubits in ascending order, so within each ``block``
    of stored indices that share the control bits the basis index grows with
    the stored index.
    """

    qubits: tuple[int, ...]
    block: int
    # The basis index of stored index s is high[s >> split] + low[s & (2^split - 1)].
    split: int
    high: np.ndarray
    low: np.ndarray

    def basis(self, stored):
        """The basis index of each stored index in ``stored``."""
        return self.high[stored >> self.split] + self.low[stored & ((1 << self.split) - 1)]


def _qubit_order(qubits: tuple[int, ...], controls: int) -> QubitOrder:
    n = len(qubits)
    split = n // 2
    tables = []
    for axes in qubits[:n - split], qubits[n - split:]:
        # Bit by bit from the least significant: the entries with that bit
        # set are those without it plus the bit's basis weight.
        table = np.zeros(1 << len(axes), dtype=np.int64)
        for bit, qubit in enumerate(reversed(axes)):
            table[1 << bit:2 << bit] = table[:1 << bit] + (1 << (n - 1 - qubit))
        tables.append(table)
    return QubitOrder(qubits, 1 << (n - controls), split, *tables)


def batch_rows(template: tuple[Slot, ...], n: int) -> int:
    """How many circuits of this template ``simulate_batch`` should run at
    once: as many as keep the batch's live bytes within BATCH_BYTES, at least one."""
    return max(1, BATCH_BYTES // _plan(template, n).row_bytes)


def simulate_batch(template: tuple[Slot, ...], n: int, angles: np.ndarray,
                   check_norm: bool = False
                   ) -> tuple[np.ndarray, np.ndarray, QubitOrder | None]:
    """Run B circuits that share ``template``, one per row of the
    (B, len(template)) ``angles``, from |0...0> as one (B, 2^n) block.

    Returns (states, scratch, order): the two (B, 2^n) halves of one
    allocation and the template's qubit order. The states are stored in that
    order (None: ascending qubits) and in the frame F; ``outcome_indices``
    reads them as they are, and ``to_basis`` converts them. The scratch is
    free once this returns, and either of those may reuse it.
    With ``check_norm`` the prefix and every later run of gates are followed
    by a unitarity check that each row's L2 norm stayed within 1e-10 of 1;
    violations raise RuntimeError.
    """
    plan = _plan(template, n)
    rows = len(angles)
    vectors, krons = plan.matrices(angles)
    # One block: the states, then a scratch buffer of the same size. From
    # n = 20 on it exceeds the 32 MiB ceiling of glibc's mmap threshold, so
    # every call maps and unmaps it instead of leaving part of it in the heap.
    work = np.empty((2, rows, 1 << n), dtype=np.complex128)
    states, scratch = work
    # The product state, from the least significant group of axes up: each
    # step multiplies the block so far by the next group's vector into the
    # other buffer, so that the last step writes the states.
    block = vectors[0]
    dst = scratch if len(vectors) % 2 else states
    for vector in vectors[1:]:
        size = block.shape[1] * vector.shape[1]
        np.multiply(vector[:, :, None], block[:, None, :],
                    out=dst[:, :size].reshape(rows, -1, block.shape[1]))
        block, dst = dst[:, :size], (scratch if dst is states else states)
    if len(vectors) == 1:
        np.copyto(states, block)
    if check_norm:
        _check_norm(states, f"the {plan.prefix}-gate prefix")

    views = _views(plan, states, scratch)
    for run in plan.runs:
        if run.copy_in is not None:  # into a contiguous buffer
            dst, src = views[run.copy_in[0]], views[run.copy_in[1]]
            np.copyto(dst.reshape(src.shape), src)
        for count, index, shape, form, a, b in run.steps:
            kron = krons[form][count][index]
            src, dst = views[a].reshape(shape), views[b].reshape(shape)
            if form == _ROWS:
                np.matmul(src, kron, out=dst)
            else:
                np.matmul(kron, src.transpose(_SWAP), out=dst.transpose(_SWAP))
        if run.copy_out is not None:  # from a contiguous buffer
            dst, src = views[run.copy_out[0]], views[run.copy_out[1]]
            np.copyto(dst, src.reshape(dst.shape))
        if check_norm:
            _check_norm(states, f"gates {run.first}..{run.stop - 1}")
    return states, scratch, plan.order


def _views(plan: _Plan, states: np.ndarray, scratch: np.ndarray) -> list[np.ndarray]:
    # The views a plan's runs use: whole buffers, the scratch's two
    # contiguous (B, 2^(n-1)) halves, and the states' control = 1 halves,
    # (B, 2^j, ...) for the control on axis j; each complex or as floats.
    buffers = (states, scratch, *scratch.reshape(2, len(states), -1))
    views = []
    for buffer, shape, real in plan.views:
        view = buffers[buffer].view(np.float64) if real else buffers[buffer]
        views.append(view if shape is None else view.reshape(shape)[:, :, 1])
    return views


@dataclass(frozen=True)
class _Run:
    # Gates first..stop-1, with crx control ``control`` or none. Each step
    # applies Kronecker matrix ``index`` of those on ``count`` axes, in
    # product ``form``, from view ``src`` to view ``dst``, both reshaped to
    # ``shape``. ``copy_in`` and ``copy_out`` are (dst, src) views of a copy
    # before and after the steps.
    first: int
    stop: int
    control: int | None
    copy_in: tuple[int, int] | None
    copy_out: tuple[int, int] | None
    steps: tuple[tuple[int, int, tuple[int, ...], int, int, int], ...]


@dataclass(frozen=True)
class _Plan:
    """What simulate_batch does with a template, worked out once per template.

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
    # [l][e]: the flat index of the 2x2 entry of factor l that entry e
    # takes. The entries are the prefix's product-state vectors, one per
    # group of up to FUSE_AXES axes, least significant group first, and
    # then the Kronecker matrices on one axis, two axes, and so on. A
    # product of fewer than FUSE_AXES factors takes the identity's exact 1.0
    # for the missing ones.
    factors: np.ndarray
    # (start, length) of each prefix vector in the entries.
    prefix_spans: tuple[tuple[int, int], ...]
    # [count]: (start, groups, forms) of the Kronecker matrices on that many
    # axes in the entries, groups x 2^count x 2^count of them from
    # ``start``, and per product form whether a step of that form uses them.
    kron_spans: tuple[tuple[int, int, tuple[bool, bool, bool]], ...]
    # (buffer, shape, real) of each view the runs use: the buffer's float
    # view if real, and if shape is given, index 1 of axis 2 of the buffer
    # reshaped to it, a control = 1 half.
    views: tuple[tuple[int, tuple[int, ...] | None, bool], ...]
    runs: tuple[_Run, ...]
    order: QubitOrder | None
    # Bytes one circuit keeps live in a batch: its state and scratch, its
    # Kronecker matrices and prefix vectors, and its gate and fold matrices.
    row_bytes: int

    def matrices(self, angles: np.ndarray) -> tuple[list, tuple[list, list, list]]:
        """For (B, gates) angles: the prefix's (B, 2^count) product-state
        vectors, and per product form and size every Kronecker matrix:
        transposed (groups, B, 1, 1, dim, dim) stacks for _ROWS, (groups, B,
        1, 1, 1, dim, dim) stacks for _COLUMNS, and contiguous float copies
        of those for _REAL."""
        rows = len(angles)
        half_angles = np.zeros((rows, len(self.cos_part)))
        np.multiply(angles, 0.5, out=half_angles[:, :-1])
        parts = (np.cos(half_angles)[..., None] * self.cos_part
                 + np.sin(half_angles)[..., None] * self.sin_part)
        gates = parts.view(np.complex128).reshape(rows, -1, 2, 2)
        # np.take gathers in about half the time of fancy indexing.
        folded = np.take(gates, self.levels[0], axis=1)
        for level in self.levels[1:]:
            # The 2x2 products, written out: a BLAS call per matrix pair cost
            # three times as much at B = 8.
            later, done = np.take(gates, level, axis=1), folded[:, :len(level)]
            done[...] = later[..., :1] * done[..., :1, :] + later[..., 1:] * done[..., 1:, :]
        flat = folded.reshape(rows, -1)
        # Every entry is a product of one 2x2 entry of each of its factors,
        # multiplied in factor order one factor at a time, so no (B, factors,
        # entries) array is gathered.
        entries = np.take(flat, self.factors[0], axis=1)
        for index in self.factors[1:]:
            entries *= np.take(flat, index, axis=1)
        krons: tuple[list, list, list] = ([], [], [])
        for count, (start, groups, forms) in enumerate(self.kron_spans):
            dim = 1 << count
            stack = entries[:, start:start + groups * dim * dim].reshape(rows, groups, 1, 1,
                                                                         dim, dim)
            krons[_ROWS].append(stack.transpose(1, 0, 2, 3, 5, 4) if forms[_ROWS] else None)
            krons[_COLUMNS].append(stack[:, :, None].transpose(1, 0, 2, 3, 4, 5, 6)
                                   if forms[_COLUMNS] else None)
            krons[_REAL].append(stack.real[:, :, None].copy().transpose(1, 0, 2, 3, 4, 5, 6)
                                if forms[_REAL] else None)
        vectors = [entries[:, start:start + length] for start, length in self.prefix_spans]
        return vectors, krons


# The buffers of a batch: its states, its scratch, and the scratch's halves.
_STATES, _SCRATCH, _FIRST, _SECOND = range(4)
# A control = 1 half of the states: a view of them, not a buffer of its own.
_HALF = -1


def _moves(count: int, in_place: bool, full: bool) -> list[tuple[int, int]]:
    # The (src, dst) buffers of a run's ``count`` steps. A run on the whole
    # state alternates between it and the scratch; a gathered half between
    # the scratch's halves. A half rotated in place ends in itself: an even
    # count alternates with the first scratch half, and an odd one of three
    # or more first passes through both scratch halves. A single product
    # goes to the first scratch half, and its run copies it back: written
    # over its own operand, NumPy would read that from a temporary copy of
    # the half, beyond the block.
    if not in_place:
        here, there = (_STATES, _SCRATCH) if full else (_FIRST, _SECOND)
        return [(here, there) if k % 2 == 0 else (there, here) for k in range(count)]
    if count == 1:
        return [(_HALF, _FIRST)]
    moves = [(_HALF, _FIRST), (_FIRST, _SECOND), (_SECOND, _HALF)] if count % 2 else []
    return moves + [(_HALF, _FIRST) if k % 2 == 0 else (_FIRST, _HALF)
                    for k in range(count - len(moves))]


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(template: tuple[Slot, ...], n: int) -> _Plan:
    prefix = next((i for i, (kind, _, _) in enumerate(template) if kind == CRX), len(template))
    # The stored order: the crx controls by first use, then the other qubits
    # in ascending order. When every qubit is a control, any order puts the
    # controls first, and ascending order needs no mapping at the readout.
    controls = list(dict.fromkeys(control for _, _, control in template[prefix:]
                                  if control is not None))
    if len(controls) == n:
        controls = list(range(n))
    qubits = tuple(controls) + tuple(q for q in range(n) if q not in controls)
    axis_of = {q: k for k, q in enumerate(qubits)}
    slots: list[list[int]] = []  # each slot's gates, in gate order

    def fold(gates, control: int | None) -> dict[int, int]:
        # The slot of each axis the gates act on: the target's axis of the
        # state, or of the control = 1 half, whose axes skip the control's.
        axes: dict[int, int] = {}
        for i in gates:
            axis = axis_of[template[i][1]]
            if control is not None:
                axis -= axis > axis_of[control]
            if axis not in axes:
                axes[axis] = len(slots)
                slots.append([])
            slots[axes[axis]].append(i)
        return axes

    prefix_axes = fold(range(prefix), None)
    # rx/rz have no control, so grouping the gates by control splits them
    # into maximal same-control crx runs and stretches of rx/rz.
    runs = []
    for control, run in itertools.groupby(range(prefix, len(template)),
                                          lambda i: template[i][2]):
        gates = list(run)
        runs.append((gates[0], gates[-1] + 1, control, fold(gates, control)))
    identity = len(slots)
    slots.append([])

    # Renumber the slots by decreasing depth (stable), so that each depth
    # level covers a leading range of them.
    by_depth = sorted(range(len(slots)), key=lambda s: -len(slots[s]))
    number = {s: k for k, s in enumerate(by_depth)}
    levels = [np.array([slots[s][0] if slots[s] else len(template) for s in by_depth])]
    levels += [np.array([slots[s][d] for s in by_depth if len(slots[s]) > d])
               for d in range(1, len(slots[by_depth[0]]))]

    cos_part = np.zeros((len(template) + 1, 8))
    sin_part = np.zeros((len(template) + 1, 8))
    cos_part[:, [0, 6]] = 1.0  # m00 and m11
    for i, (kind, _, _) in enumerate(template):
        if kind == RZ:  # m00, m11 = exp(-/+ i angle/2)
            sin_part[i, [1, 7]] = -1.0, 1.0
        else:  # rx, or a crx's rx on the control = 1 half, in the frame F:
            sin_part[i, [2, 4]] = -1.0, 1.0  # m01 = -sin, m10 = sin

    views: dict[tuple, int] = {}

    def view(buffer: int, axis: int | None, real: bool) -> int:
        # The index of a view of ``buffer``, or of the control = 1 half on
        # ``axis`` for _HALF.
        if buffer != _HALF:
            return views.setdefault((buffer, None, real), len(views))
        inner = 1 << (n - 1 - axis + real)
        return views.setdefault((_STATES, (-1, 1 << axis, 2, inner), real), len(views))

    groups: list[list[list[int]]] = [[] for _ in range(FUSE_AXES + 1)]
    plan_runs = []
    for first, stop, control, axes in runs:
        if control is None:
            j, lead, n_axes, in_place, real = None, 0, n, False, False
        else:
            # A crx run rotates its half in place when its target axes all
            # lie after the control's axis j, where the half is 2^j blocks
            # of contiguous amplitudes, or when j is the last axis, where
            # the half is every other amplitude and has no float view.
            # Otherwise the half is gathered into the scratch and back.
            j = axis_of[control]
            after = min(axes) >= j
            lead = j if after else 0  # the half's axes before the targets'
            n_axes = n - 1 - lead
            in_place, real = after or j == n - 1, j != n - 1
        parts = _axis_groups(sorted(axes))
        moves = _moves(len(parts), in_place, control is None)
        steps = []
        for group, (src, dst) in zip(parts, moves):
            count = len(group)
            shape, form = _product_shape(1 << lead, group[0] - lead, count, n_axes, real)
            steps.append((count, len(groups[count]), shape, form,
                          view(src, j, form == _REAL), view(dst, j, form == _REAL)))
            groups[count].append([number[axes[axis]] for axis in group])
        copy_in = copy_out = None
        if control is None:
            if moves[-1][1] == _SCRATCH:
                copy_out = view(_STATES, None, False), view(_SCRATCH, None, False)
        elif not in_place:
            half = view(_HALF, j, False)
            copy_in = view(_FIRST, None, False), half
            copy_out = half, view(moves[-1][1], None, False)
        elif moves[-1][1] != _HALF:  # a single product, in the first scratch half
            copy_out = view(_HALF, j, False), view(_FIRST, None, False)
        plan_runs.append(_Run(first, stop, control, copy_in, copy_out, tuple(steps)))
    one = 4 * number[identity]  # its m00, exactly 1.0
    factors: list[np.ndarray] = []

    def products(found: list[list[int]], bits: np.ndarray) -> tuple[int, int]:
        # Append the entries of len(found) products whose factors have the
        # slots of one row of ``found``; ``bits`` holds each factor's offsets
        # within its 2x2 entries. Returns (start, count) of those products.
        start = sum(index.shape[1] for index in factors)
        if found:
            count = len(found[0])
            index = np.full((FUSE_AXES, len(found)) + bits.shape[1:], one)
            index[:count] = 4 * np.array(found).T.reshape((count, -1) + (1,) * (bits.ndim - 1))
            index[:count] += bits[:, None]
            factors.append(index.reshape(FUSE_AXES, -1))
        return start, len(found)

    # The prefix's axes in groups from the least significant up; a vector's
    # entries are the first column of a Kronecker matrix.
    prefix_spans = []
    for group in _axis_groups(list(range(n))):
        slots_of = [[number[prefix_axes.get(axis, identity)] for axis in group]]
        start, _ = products(slots_of, _KRON_BITS[len(group)][:, :, 0])
        prefix_spans.append((start, 1 << len(group)))
    forms = {(count, form) for run in plan_runs for count, _, _, form, _, _ in run.steps}
    kron_spans = tuple((*products(found, _KRON_BITS[count]),
                        tuple((count, form) in forms for form in (_ROWS, _COLUMNS, _REAL)))
                       for count, found in enumerate(groups))
    factors = np.concatenate(factors, axis=1)
    order = None if qubits == tuple(range(n)) else _qubit_order(qubits, len(controls))
    # Amplitudes of 16 bytes: the state and its scratch, the entries and one
    # gathered factor of them (which the real copies of crx stacks, made
    # after it is freed, never exceed), and about 8 per gate and per slot
    # for the 2x2 matrices.
    amplitudes = (2 << n) + 2 * factors.shape[1] + 8 * (len(template) + 1 + len(slots))
    return _Plan(prefix, tuple(levels), cos_part, sin_part, factors, tuple(prefix_spans),
                 kron_spans, tuple(views), tuple(plan_runs), order, 16 * amplitudes)


def _kron_bits(count: int) -> np.ndarray:
    # [l, r, c]: the offset, within factor l's flattened 2x2 entries, of the
    # entry at the bits of row r and column c that belong to its axis; the
    # product over l of those entries is the Kronecker matrix, without
    # np.kron's overhead.
    bits = np.arange(1 << count) >> np.arange(count - 1, -1, -1)[:, None] & 1
    return 2 * bits[:, :, None] + bits[:, None, :]


_KRON_BITS = [_kron_bits(count) for count in range(FUSE_AXES + 1)]


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


def _product_shape(lead: int, first: int, count: int, n_axes: int,
                   real: bool) -> tuple[tuple[int, ...], int]:
    # How a matrix on axes first..first+count-1 of a (B, lead) + (2,)*n_axes
    # block is applied: the block's shape for np.matmul, and the product's
    # form; ``real`` for a crx run whose half has a float view (its
    # Kronecker matrices are real). Its row products stay complex (with
    # imaginary parts 0): as real products by kron(K^T, I_2) they made an
    # n=4 hash, where every crx product is a row product, 1.4-1.9x as slow.
    # Each BLAS call does at most TILE_MACS complex multiply-adds, which
    # keeps OpenBLAS 0.3.31 on the calling thread (its zgemm threads from
    # 2^16): on a shared two-core host one threaded (16x16)@(16x2^15)
    # product took 8 ms against 0.15 ms on one thread. A real tile of the
    # same columns does 2 * dim^2 * cols real multiply-adds, 2^15 at 16x16,
    # and dgemm stays on one thread up to 2^19 (it threads from 2^20); real
    # tiles 2-8x wider were no faster.
    dim = 1 << count
    outer, inner = 1 << first, 1 << (n_axes - first - count)
    tile = TILE_MACS // (dim * dim)
    if inner == 1:
        # Rows of ``dim`` amplitudes, ``tile`` rows per product.
        rows = min(tile, outer)
        return (-1, lead, outer // rows, rows, dim), _ROWS
    # Columns of ``dim`` amplitudes ``inner`` apart, ``tile`` columns per
    # product; a real product's columns are their re/im parts.
    cols = min(tile, inner)
    if real:
        return (-1, lead, outer, dim, inner // cols, 2 * cols), _REAL
    return (-1, lead, outer, dim, inner // cols, cols), _COLUMNS


def probabilities(state: np.ndarray) -> np.ndarray:
    return (state.real * state.real) + (state.imag * state.imag)


def most_probable_state(state: np.ndarray) -> BasisOutcome:
    """The basis state maximizing |amplitude|^2; ties go to the lowest index.

    Probabilities at least ``p_max * (1 - TIE_TOL)`` tie with the maximum.
    The batch of one state of ``outcome_indices``.
    """
    n = num_qubits(state)
    idx = int(outcome_indices(state[None])[0])
    amp = state[idx]
    return BasisOutcome(format(idx, f"0{n}b"), float(amp.real * amp.real + amp.imag * amp.imag))


def outcome_indices(states: np.ndarray, scratch: np.ndarray | None = None,
                    order: QubitOrder | None = None) -> np.ndarray:
    """Per row of a (B, 2^n) block of states, the basis index the readout
    picks: the lowest whose probability is at least ``p_max * (1 - TIE_TOL)``.

    ``order`` is the states' qubit order from ``simulate_batch`` (None:
    ascending qubits). The probabilities go into float buffers carved from
    ``scratch`` (a (B, 2^n) complex array it may overwrite, such as
    simulate_batch's), or else into one allocation of two chunks per row. A
    row longer than READOUT_CHUNK is read chunk by chunk, so no 2^n
    temporary is allocated; the tie decisions are the same either way.
    """
    rows, length = states.shape
    chunk = min(length, READOUT_CHUNK)
    buffer = np.empty((rows, 2 * chunk)) if scratch is None else scratch.view(np.float64)
    probs, imag = buffer[:, :chunk], buffer[:, chunk:2 * chunk]
    if length > chunk:
        return _chunked_indices(states, probs, imag, order)
    _fill(states, probs, imag)
    thresholds = probs.max(axis=1, keepdims=True) * (1.0 - TIE_TOL)
    # Mark the ties in place (1.0 or 0.0) rather than in a new mask: a mask
    # allocated per hash slowed n=20 hashing by about 4%.
    np.greater_equal(probs, thresholds, out=probs)
    if order is None:
        return np.argmax(probs, axis=1)
    # A row without a tie (a NaN maximum ties nowhere) reads length &
    # (length - 1) = 0, as in ascending order.
    return _lowest_tied(probs, 0, order, length) & (length - 1)


def _fill(part: np.ndarray, probs: np.ndarray, imag: np.ndarray) -> None:
    # The probabilities of ``part``, by the same IEEE operations as
    # ``probabilities``.
    np.multiply(part.real, part.real, out=probs)
    np.multiply(part.imag, part.imag, out=imag)
    np.add(probs, imag, out=probs)


def _lowest_tied(marks: np.ndarray, start: int, order: QubitOrder, none: int) -> np.ndarray:
    # Per row of ``marks`` (1.0 at a tie, else 0.0) over the stored indices
    # from ``start`` on, the lowest basis index among its ties, or ``none``.
    # Within a block of fixed control bits the basis index grows with the
    # stored index, so the first tie of every block is mapped and the lowest
    # taken.
    block = min(order.block, marks.shape[1])
    stored = np.argmax(marks.reshape(len(marks), -1, block), axis=2)
    stored += np.arange(0, marks.shape[1], block)
    # Fancy indexing took two thirds of the time of np.take_along_axis.
    tied = marks[np.arange(len(marks))[:, None], stored] > 0
    return np.where(tied, order.basis(stored + start), none).min(axis=1)


def _chunked_indices(states: np.ndarray, probs: np.ndarray, imag: np.ndarray,
                     order: QubitOrder | None) -> np.ndarray:
    # ``outcome_indices`` chunk by chunk. Each chunk's probabilities are the
    # same elementwise operations as over the whole row, and the maximum of
    # the chunk maxima is the row's maximum, so every comparison with the
    # threshold comes out as in one pass. Three temporaries per chunk made
    # an n=20 readout about twice as slow.
    rows, length = states.shape
    chunk = probs.shape[1]
    peaks = np.empty((length // chunk, rows))
    for k, lo in enumerate(range(0, length, chunk)):
        _fill(states[:, lo:lo + chunk], probs, imag)
        probs.max(axis=1, out=peaks[k])
    thresholds = peaks.max(axis=0) * (1.0 - TIE_TOL)
    # In ascending order a row's first tied chunk holds its outcome;
    # otherwise any tied chunk may hold the lowest basis index. Each is read
    # again, the last one first, while probs still holds it. A NaN maximum
    # ties nowhere, and the row reads length & (length - 1) = 0, as in one
    # pass.
    indices = np.full(rows, length)
    for row in range(rows):
        marks = probs[row:row + 1]
        found = np.flatnonzero(peaks[:, row] >= thresholds[row]).tolist()
        for k in reversed(found[:1] if order is None else found):
            lo = k * chunk
            if k != len(peaks) - 1:
                _fill(states[row:row + 1, lo:lo + chunk], marks, imag[row:row + 1])
            np.greater_equal(marks, thresholds[row], out=marks)
            index = (lo + int(np.argmax(marks)) if order is None
                     else int(_lowest_tied(marks, lo, order, length)[0]))
            indices[row] = min(indices[row], index)
    return indices & (length - 1)


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
