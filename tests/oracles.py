"""Brute-force oracles kept independent of the library's strided simulator."""
import functools

import numpy as np

I2 = np.eye(2, dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def place(ops: dict, n: int) -> np.ndarray:
    """Kronecker chain with qubit 0 as the leftmost (most significant) factor."""
    full = np.eye(1, dtype=complex)
    for q in range(n):
        full = np.kron(full, ops.get(q, I2))
    return full


def gate_unitary(gate, n: int) -> np.ndarray:
    if gate.kind == "rx":
        return place({gate.target: rx_matrix(gate.angle)}, n)
    if gate.kind == "rz":
        return place({gate.target: rz_matrix(gate.angle)}, n)
    if gate.kind == "crx":
        return (place({gate.control: P0}, n)
                + place({gate.control: P1, gate.target: rx_matrix(gate.angle)}, n))
    raise ValueError(gate.kind)


def simulate_dense(circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix-chain simulation; only sensible for small n."""
    state = np.zeros(1 << circuit.n_qubits, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        state = gate_unitary(gate, circuit.n_qubits) @ state
    return state


def simulate_product_prefix(circuit) -> np.ndarray:
    """The same circuit, computed in another order with other rounding.

    The single-qubit gates before the first crx act on |0...0>, so they give
    a product state, built as a Kronecker product of one 2-vector per qubit.
    The remaining gates contract a 2x2 matrix into the target axis (inside
    the control = 1 slice for crx) with tensordot.
    """
    n = circuit.n_qubits
    gates = list(circuit.gates)
    qubits = [np.array([1, 0], dtype=complex) for _ in range(n)]
    prefix = 0
    for gate in gates:
        if gate.kind == "crx":
            break
        matrix = rx_matrix if gate.kind == "rx" else rz_matrix
        qubits[gate.target] = matrix(gate.angle) @ qubits[gate.target]
        prefix += 1
    psi = functools.reduce(np.kron, qubits).reshape((2,) * n)
    for gate in gates[prefix:]:
        sub, axis = psi, gate.target
        if gate.kind == "crx":
            sub = psi[(slice(None),) * gate.control + (1,)]
            axis -= gate.target > gate.control
        matrix = rz_matrix(gate.angle) if gate.kind == "rz" else rx_matrix(gate.angle)
        sub[...] = np.moveaxis(np.tensordot(matrix, sub, axes=([1], [axis])), 0, axis)
    return psi.reshape(-1)


def outcome_index(state: np.ndarray, tol: float = 1e-9) -> int:
    """Lowest index whose probability is within a relative ``tol`` of the maximum."""
    probs = np.abs(state) ** 2
    best = max(probs)
    return next(i for i, p in enumerate(probs) if p >= best * (1.0 - tol))


def argmax_exhaustive(state: np.ndarray) -> str:
    """Argmax by explicit enumeration; strict > keeps the lowest index on ties."""
    n = int(np.log2(len(state)))
    best_idx, best_p = 0, -1.0
    for idx in range(len(state)):
        p = abs(state[idx]) ** 2
        if p > best_p:
            best_idx, best_p = idx, p
    return format(best_idx, f"0{n}b")


def nibbles_by_bitstring(digest: bytes) -> list:
    """Quad extraction through a full 256-char bit string, MSB first."""
    bitstring = bin(int.from_bytes(digest, "big"))[2:].zfill(256)
    return [int(bitstring[i:i + 4], 2) for i in range(0, 256, 4)]
