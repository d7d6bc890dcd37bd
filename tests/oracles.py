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


def place(core: np.ndarray, first: int, n: int) -> np.ndarray:
    """``core`` on the qubits from ``first`` on, the identity on the others.

    Qubit 0 is the leftmost (most significant) factor; the qubits before and
    after the core are one identity block each, so a placement is two
    Kronecker products however large n is.
    """
    span = core.shape[0].bit_length() - 1
    return np.kron(np.kron(np.eye(1 << first), core), np.eye(1 << (n - first - span)))


def gate_unitary(gate, n: int) -> np.ndarray:
    if gate.kind == "rx":
        return place(rx_matrix(gate.angle), gate.target, n)
    if gate.kind == "rz":
        return place(rz_matrix(gate.angle), gate.target, n)
    if gate.kind == "crx":
        # The crx on the qubits from the lower of control and target to the
        # higher: P0 (x) identity + P1 (x) rx, with the identity between them.
        between = np.eye(1 << (abs(gate.target - gate.control) - 1))
        rx = rx_matrix(gate.angle)
        if gate.control < gate.target:
            core = np.kron(np.kron(P0, between), I2) + np.kron(np.kron(P1, between), rx)
        else:
            core = np.kron(np.kron(I2, between), P0) + np.kron(np.kron(rx, between), P1)
        return place(core, min(gate.control, gate.target), n)
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
