import math

import numpy as np
import pytest

from qpow.circuit import (CRX, RX, RZ, Circuit, Gate, build_ansatz,
                          count_two_qubit_gates, format_circuit)
from qpow.hashing import ANGLE_STEP, encode_angles, sha3_256


def random_angles(seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 16, 64) * ANGLE_STEP


def test_four_qubit_layer_arithmetic():
    # Per layer: 8 rotation angles + 12 entanglers; 64 angles = 3 full layers + 4.
    circuit = build_ansatz(random_angles(), 4)
    assert len(circuit.gates) == 64
    assert count_two_qubit_gates(circuit) == 36
    tail = circuit.gates[60:]
    assert [(g.kind, g.target) for g in tail] == [(RX, 0), (RZ, 0), (RX, 1), (RZ, 1)]


def test_two_qubit_entangling_sublayer():
    circuit = build_ansatz(random_angles(), 2)
    first_layer = circuit.gates[:6]
    assert [(g.kind, g.control, g.target) for g in first_layer] == [
        (RX, None, 0), (RZ, None, 0), (RX, None, 1), (RZ, None, 1),
        (CRX, 1, 0), (CRX, 0, 1),
    ]
    # All-to-all pairing forces n*n - n entanglers per full layer.
    assert count_two_qubit_gates(circuit) == 20  # 10 full layers of 2


def test_three_qubit_entangling_order():
    circuit = build_ansatz(random_angles(), 3)
    entanglers = [(g.control, g.target) for g in circuit.gates[6:12]]
    assert entanglers == [(2, 0), (2, 1), (1, 0), (1, 2), (0, 1), (0, 2)]


def test_angles_consumed_in_emission_order():
    angles = random_angles(7)
    circuit = build_ansatz(angles, 5)
    assert [g.angle for g in circuit.gates] == list(angles)


def test_zero_angles_zero_gates():
    circuit = build_ansatz(np.zeros(64), 4)
    assert all(g.angle == 0.0 for g in circuit.gates)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 30])
def test_always_sixty_four_gates(n):
    angles = random_angles(n)
    circuit = build_ansatz(angles, n)
    assert len(circuit.gates) == 64
    assert [g.angle for g in circuit.gates] == list(angles)


def test_deterministic_construction():
    angles = encode_angles(sha3_256(b"determinism"))
    assert build_ansatz(angles, 4) == build_ansatz(angles, 4)


@pytest.mark.parametrize("n", [0, 1, 31, -3])
def test_invalid_qubit_count_rejected(n):
    with pytest.raises(ValueError):
        build_ansatz(random_angles(), n)


def test_wrong_angle_count_rejected():
    with pytest.raises(ValueError):
        build_ansatz(np.zeros(63), 4)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_build_ansatz_rejects_non_finite_angles(angle):
    # Unchecked, a NaN angle reads out as a NaN probability and an infinite
    # one escapes simulate as a math domain error.
    angles = random_angles()
    angles[17] = angle
    with pytest.raises(ValueError, match="finite"):
        build_ansatz(angles, 2)


def test_count_two_qubit_gates_empty():
    assert count_two_qubit_gates(Circuit(2, ())) == 0


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(CRX, 1, 0.0, control=1)
    with pytest.raises(ValueError):
        Gate(RX, 1, 0.0, control=0)
    with pytest.raises(ValueError):
        Gate("h", 0, 0.0)
    with pytest.raises(ValueError):
        Circuit(2, (Gate(RX, 5, 0.0),))


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind, control", [(RX, None), (RZ, None), (CRX, 1)])
def test_gate_rejects_non_finite_angle(kind, control, angle):
    # Such a gate would leave simulate with a math domain error or a NaN state.
    with pytest.raises(ValueError, match="finite"):
        Gate(kind, 0, angle, control)


def test_format_circuit_lines():
    angles = np.zeros(64)
    angles[0] = 9 * ANGLE_STEP
    lines = format_circuit(build_ansatz(angles, 2)).splitlines()
    assert len(lines) == 64
    assert lines[0] == "rx - 0 9"
    assert lines[4] == "crx 1 0 0"
