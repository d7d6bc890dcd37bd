"""A fixed yardstick of host speed, used to scale the timed runs' wall times.

The box is shared: neighbours on the same physical cores slow every run by
up to 60%, switching within seconds and for minutes at a time, which no run
length averages out. So a fixed kernel is timed before and after every timed
call, and the call's time is scaled by ``ref_ms`` over the mean of the two
samples. The kernel never changes between commits, so scaled times compare
code, not host state.

The kernel is a frozen copy of the in-place strided statevector pass that
`qpow.simulator` used when the benchmark was defined: it loads the host the
way the program does (Python dispatch plus NumPy on the same array sizes), and
tracked the n=4 hash time with a log-log slope of 1.00 where a generic
NumPy-and-loop kernel gave 0.76. It is never used to check outputs.
"""
from __future__ import annotations

import cmath
import math
import time

import numpy as np

import reference as ref

DIGEST = bytes(range(32))


def _rx(sub: np.ndarray, angle: float, s: np.ndarray, t: np.ndarray) -> None:
    c, ms = math.cos(0.5 * angle), -1j * math.sin(0.5 * angle)
    a0, a1 = sub[0, ...], sub[1, ...]
    s, t = s[:a0.size].reshape(a0.shape), t[:a0.size].reshape(a0.shape)
    np.multiply(a1, ms, out=s)
    np.multiply(a1, c, out=t)
    np.multiply(a0, ms, out=a1)
    a1 += t
    a0 *= c
    a0 += s


def kernel(circuit, state: np.ndarray, s: np.ndarray, t: np.ndarray) -> None:
    """One pass of ``circuit`` from |0...0> in ``state``, with half-size scratch s and t."""
    state[:] = 0.0
    state[0] = 1.0
    psi = state.reshape((2,) * circuit.n_qubits)
    for g in circuit.gates:
        if g.kind == "rx":
            _rx(np.moveaxis(psi, g.target, 0), g.angle, s, t)
        elif g.kind == "rz":
            sub = np.moveaxis(psi, g.target, 0)
            sub[0] *= cmath.exp(-0.5j * g.angle)
            sub[1] *= cmath.exp(0.5j * g.angle)
        else:
            _rx(np.moveaxis(psi, (g.control, g.target), (0, 1))[1], g.angle, s, t)


class HostSpeed:
    """Times ``reps`` kernel passes over the first ``gates`` gates at ``n_qubits``.

    ``ref_ms`` is the sample's median on the box the benchmark was defined on
    (2-vCPU Xeon VM at 2.1 GHz), so scaled times read like raw ones there.
    """

    def __init__(self, n_qubits: int, gates: int, reps: int, ref_ms: float) -> None:
        self.circuit = ref.circuit(DIGEST, n_qubits)
        self.circuit.gates = self.circuit.gates[:gates]
        self.reps, self.ref_ms = reps, ref_ms
        # Allocated once: freeing them after every sample would churn the
        # allocator and shift the program's peak RSS.
        self.buffers = [np.empty(1 << k, dtype=np.complex128) for k in (n_qubits, n_qubits - 1, n_qubits - 1)]
        self.sample()  # the first pass runs cold and reads slow
        self.samples = [self.sample()]

    @property
    def resident_mb(self) -> float:
        """The buffers' size; they stay resident from the first sample on."""
        return sum(b.nbytes for b in self.buffers) / 2**20

    def sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.reps):
            kernel(self.circuit, *self.buffers)
        return (time.perf_counter() - t0) * 1e3

    def time(self, fn, *args):
        """Call fn between two kernel samples; returns (result, raw s, scaled s)."""
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        self.samples.append(self.sample())
        return out, raw, raw * 2 * self.ref_ms / (self.samples[-2] + self.samples[-1])
