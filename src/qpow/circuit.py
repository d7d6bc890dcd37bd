"""Deterministic n-qubit rotational ansatz built from 64 digest-derived angles.

The gate stream is a fixed convention so that any two implementations agree
bit for bit: per layer, an rx/rz pair on every qubit in ascending order, then
all-to-all crx entanglers with controls descending and targets ascending.
Layers repeat until the 64 angles are consumed, truncating mid-layer, so each
angle parametrizes exactly one gate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .hashing import ANGLE_STEP, N_ANGLES

MIN_QUBITS = 2
MAX_QUBITS = 30

RX = "rx"
RZ = "rz"
CRX = "crx"


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
        if self.kind == CRX:
            if self.control is None:
                raise ValueError("crx gate needs a control qubit")
            if self.control == self.target:
                raise ValueError("crx control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind} gate takes no control qubit")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        for gate in self.gates:
            qubits = (gate.target,) if gate.control is None else (gate.target, gate.control)
            for q in qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit index {q} out of range for {self.n_qubits} qubits")


def _gate_template(n_qubits: int) -> Iterator[tuple[str, int, int | None]]:
    # Endless emission order; zipping against the angle vector truncates it.
    while True:
        for q in range(n_qubits):
            yield RX, q, None
            yield RZ, q, None
        for control in range(n_qubits - 1, -1, -1):
            for target in range(n_qubits):
                if target != control:
                    yield CRX, target, control


def build_ansatz(angles: Sequence[float] | np.ndarray, n_qubits: int) -> Circuit:
    """Build the fixed-structure ansatz consuming the 64 angles in order.

    Angle i always lands on gate i of the emission order, so the circuit is a
    pure function of the digest that produced the angles.
    """
    if not MIN_QUBITS <= n_qubits <= MAX_QUBITS:
        raise ValueError(
            f"n_qubits must be in [{MIN_QUBITS}, {MAX_QUBITS}], got {n_qubits}")
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (N_ANGLES,):
        raise ValueError(f"expected {N_ANGLES} angles, got shape {angles.shape}")
    gates = tuple(
        Gate(kind, target, float(angle), control)
        for angle, (kind, target, control) in zip(angles, _gate_template(n_qubits))
    )
    return Circuit(n_qubits, gates)


def count_two_qubit_gates(circuit: Circuit) -> int:
    """Number of crx gates in the circuit (n*n - n per full entangling sub-layer)."""
    return sum(1 for gate in circuit.gates if gate.kind == CRX)


def format_circuit(circuit: Circuit) -> str:
    """One gate per line (kind, control, target, angle in pi/8 units) for diffing."""
    lines = []
    for gate in circuit.gates:
        control = "-" if gate.control is None else str(gate.control)
        lines.append(f"{gate.kind} {control} {gate.target} {gate.angle / ANGLE_STEP:.6g}")
    return "\n".join(lines)
