"""Deterministic n-qubit rotational ansatz built from 64 digest-derived angles.

The gate stream is a fixed convention so that any two implementations agree
bit for bit: per layer, an rx/rz pair on every qubit in ascending order, then
all-to-all crx entanglers with controls descending and targets ascending.
Layers repeat until the 64 angles are consumed, truncating mid-layer, so each
angle parametrizes exactly one gate.

The stream depends only on n, so it is computed once per qubit count as a
template of (kind, target, control) triples; an ansatz circuit is that shared
template plus its 64 angles.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hashing import ANGLE_STEP, N_ANGLES

MIN_QUBITS = 2
MAX_QUBITS = 30

RX = "rx"
RZ = "rz"
CRX = "crx"

# One gate's structure: (kind, target, control); control is None for rx/rz.
Slot = tuple[str, int, int | None]


@dataclass(frozen=True)
class Gate:
    """One parametrized gate: rx/rz on ``target``, or crx from ``control`` to ``target``."""

    kind: str
    target: int
    angle: float
    control: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (RX, RZ, CRX):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not math.isfinite(self.angle):
            raise ValueError(f"gate angle must be finite, got {self.angle!r}")
        if self.kind == CRX:
            if self.control is None:
                raise ValueError("crx gate needs a control qubit")
            if self.control == self.target:
                raise ValueError("crx control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind} gate takes no control qubit")


@dataclass(frozen=True, init=False)
class Circuit:
    """A gate stream on ``n_qubits``: gate i has structure ``template[i]`` and angle ``angles[i]``.

    ``Circuit(n, gates)`` validates hand-built Gate records; ``build_ansatz``
    shares the cached per-n template and builds no Gate objects.
    """

    n_qubits: int
    template: tuple[Slot, ...]
    angles: tuple[float, ...]

    def __init__(self, n_qubits: int, gates: Iterable[Gate]) -> None:
        gates = tuple(gates)
        for gate in gates:
            qubits = (gate.target,) if gate.control is None else (gate.target, gate.control)
            for q in qubits:
                if not 0 <= q < n_qubits:
                    raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")
        self._fill(n_qubits, tuple((g.kind, g.target, g.control) for g in gates),
                   tuple(g.angle for g in gates))

    @classmethod
    def _of(cls, n_qubits: int, template: tuple[Slot, ...], angles: tuple[float, ...]) -> Circuit:
        # For templates that are valid by construction: no per-gate checks.
        circuit = object.__new__(cls)
        circuit._fill(n_qubits, template, angles)
        return circuit

    def _fill(self, n_qubits: int, template: tuple[Slot, ...], angles: tuple[float, ...]) -> None:
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "angles", angles)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The stream as Gate records, made on demand."""
        return tuple(map(_gate, self.template, self.angles))


@functools.lru_cache(maxsize=4096)
def _gate(slot: Slot, angle: float) -> Gate:
    # No hash builds Gate records; the cache serves the readers of
    # ``Circuit.gates`` (the traced benchmark replay's probe and the tests).
    # Records are immutable, so circuits share them; an ansatz has at most
    # 64 slots x 16 angle levels per n.
    kind, target, control = slot
    return Gate(kind, target, angle, control)


@functools.lru_cache(maxsize=None)
def ansatz_template(n_qubits: int) -> tuple[Slot, ...]:
    """The (kind, target, control) of each of the 64 ansatz gates at ``n_qubits``.

    Raises ValueError unless ``n_qubits`` is in [MIN_QUBITS, MAX_QUBITS].
    """
    if not MIN_QUBITS <= n_qubits <= MAX_QUBITS:
        raise ValueError(
            f"n_qubits must be in [{MIN_QUBITS}, {MAX_QUBITS}], got {n_qubits}")
    template: list[Slot] = []
    while len(template) < N_ANGLES:
        for q in range(n_qubits):
            template += [(RX, q, None), (RZ, q, None)]
        for control in range(n_qubits - 1, -1, -1):
            template += [(CRX, target, control) for target in range(n_qubits) if target != control]
    return tuple(template[:N_ANGLES])


def build_ansatz(angles: Sequence[float] | np.ndarray, n_qubits: int) -> Circuit:
    """Build the fixed-structure ansatz consuming the 64 angles in order.

    Angle i always lands on gate i of the emission order, so the circuit is a
    pure function of the digest that produced the angles.
    """
    template = ansatz_template(n_qubits)
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (N_ANGLES,):
        raise ValueError(f"expected {N_ANGLES} angles, got shape {angles.shape}")
    if not np.isfinite(angles).all():
        raise ValueError("ansatz angles must be finite")
    return Circuit._of(n_qubits, template, tuple(angles.tolist()))


def count_two_qubit_gates(circuit: Circuit) -> int:
    """Number of crx gates in the circuit (n*n - n per full entangling sub-layer)."""
    return sum(1 for kind, _, _ in circuit.template if kind == CRX)


def format_circuit(circuit: Circuit) -> str:
    """One gate per line (kind, control, target, angle in pi/8 units) for diffing."""
    lines = []
    for (kind, target, control), angle in zip(circuit.template, circuit.angles):
        shown = "-" if control is None else str(control)
        lines.append(f"{kind} {shown} {target} {angle / ANGLE_STEP:.6g}")
    return "\n".join(lines)
