"""Runtime-scaling models, the speed/accuracy advantage estimate, and a bench harness.

Model times are dimensionless relative units; only their ratio matters. The
pinned fits describe a desktop-grade simulator (exponential in n) and a
hardware backend whose cost tracks circuit depth (quadratic in n). The bench
harness measures this machine instead, so both curves can be reported side
by side.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .chain import qpow_hash
from .noise import NoiseParams, accuracy_estimate

# Session-averaged simulator/hardware runtime ratios (in units of 1e-3)
# recorded on ibmq_quito for n = 2..5. Reference data only; reproducing them
# needs hardware access.
QUITO_TIME_RATIO_1E3: dict[int, float] = {2: 6.0, 3: 8.0, 4: 8.4, 5: 10.5}

MAX_SCAN_QUBITS = 200
BYTES_PER_AMPLITUDE = 16  # complex128
# Peak memory of parsing a chain file per byte of it: load_chain grew peak
# RSS by 3.4x the file for save_chain's indented files and by 3.85x for
# compact JSON (40k blocks, CPython 3.11).
CHAIN_PARSE_FACTOR = 4


@dataclass(frozen=True)
class AdvantageModel:
    """Pinned fit coefficients and error rates behind the advantage estimate.

    Classical runtime models as 10**(slope*n + intercept); quantum runtime as
    a*(n**2 + b*n) + c; the two-qubit gate count of an n-qubit ansatz layer
    as n**2 - n.
    """

    classical_slope: float = 0.33
    classical_intercept: float = -5.0
    quantum_a: float = 0.07
    quantum_b: float = 3.0
    quantum_c: float = 7.5
    noise: NoiseParams = field(default_factory=NoiseParams)


DEFAULT_MODEL = AdvantageModel()


def two_qubit_gate_count(n: int) -> int:
    return n * n - n


def classical_time(n: float, model: AdvantageModel = DEFAULT_MODEL) -> float:
    """Modeled simulator runtime 10**(0.33*n - 5); nominally valid for n >= 15."""
    return 10.0 ** (model.classical_slope * n + model.classical_intercept)


def quantum_time(n: float, model: AdvantageModel = DEFAULT_MODEL) -> float:
    """Modeled hardware runtime 0.07*(n**2 + 3*n) + 7.5, same relative units."""
    return model.quantum_a * (n * n + model.quantum_b * n) + model.quantum_c


def speed_ratio(n: int, model: AdvantageModel = DEFAULT_MODEL) -> float:
    """How many times faster the modeled hardware is than the modeled simulator."""
    _check_n(n)
    return classical_time(n, model) / quantum_time(n, model)


def advantage(n: int, model: AdvantageModel = DEFAULT_MODEL) -> float:
    """Speed ratio discounted by the expected accuracy at n**2 - n two-qubit gates."""
    _check_n(n)
    return speed_ratio(n, model) * accuracy_estimate(n, two_qubit_gate_count(n), model.noise)


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"model evaluation needs n >= 2, got {n}")


_PREDICATES = {"speed_ratio": speed_ratio, "advantage": advantage}


@dataclass(frozen=True)
class CrossoverScan:
    """Outcome of a crossover search: first n reaching 1, plus the best point seen."""

    n: int | None
    best_n: int
    best_value: float


def find_crossover(model: AdvantageModel = DEFAULT_MODEL, predicate: str = "speed_ratio",
                   n_max: int = 60) -> CrossoverScan:
    """Smallest integer n in [2, n_max] where the predicate quantity reaches 1.

    Returns n = None when the threshold is never reached; ``best_n`` and
    ``best_value`` always report the maximum attained over the scan.
    """
    if predicate not in _PREDICATES:
        raise ValueError(f"predicate must be one of {sorted(_PREDICATES)}, got {predicate!r}")
    if not 2 <= n_max <= MAX_SCAN_QUBITS:
        raise ValueError(f"n_max must be in [2, {MAX_SCAN_QUBITS}], got {n_max}")
    fn = _PREDICATES[predicate]
    best_n, best_value = 2, float("-inf")
    for n in range(2, n_max + 1):
        value = fn(n, model)
        if value > best_value:
            best_n, best_value = n, value
        if value >= 1.0:
            return CrossoverScan(n, best_n, best_value)
    return CrossoverScan(None, best_n, best_value)


@dataclass(frozen=True)
class BenchRecord:
    n_qubits: int
    wall_time: float
    repetitions: int


def available_memory_bytes() -> int:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 8 << 30  # assume 8 GiB when the platform gives no answer


def max_feasible_qubits() -> int:
    """Largest n >= 1 whose 2^(n+1)-amplitude block from ``simulate`` (the state
    and its scratch) fits in half of available memory."""
    return max(1, (available_memory_bytes() // (4 * BYTES_PER_AMPLITUDE)).bit_length() - 1)


def check_bench_feasible(n: int) -> None:
    """Raise ValueError unless this host can simulate n qubits; allocates nothing."""
    limit = max_feasible_qubits()
    if n > limit:
        raise ValueError(
            f"n={n} needs a block of 2^{n + 1} amplitudes of {BYTES_PER_AMPLITUDE} bytes; "
            f"at most n={limit} fits in half of available memory")


def check_chain_file_feasible(path: str | os.PathLike) -> None:
    """Raise ValueError unless parsing the chain file at ``path`` fits in half
    of available memory; reads only the file's size."""
    size = os.path.getsize(path)
    if size * CHAIN_PARSE_FACTOR > available_memory_bytes() // 2:
        raise ValueError(
            f"chain file {os.fspath(path)} of {size} bytes needs about "
            f"{CHAIN_PARSE_FACTOR * size} bytes of memory to parse; more than half "
            f"of available memory")


def bench_simulator(n_values: list[int], reps: int = 3, seed: int = 0,
                    fit_min: int = 15) -> tuple[list[BenchRecord], float]:
    """Time the full proof pipeline per qubit count and fit log10(t) against n.

    Every repetition hashes a fresh random input; the per-n time is the median
    over ``reps``. Memory feasibility is checked before any allocation.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for n in n_values:
        check_bench_feasible(n)
    rng = np.random.default_rng(seed)
    records = []
    for n in n_values:
        qpow_hash(rng.bytes(16), n)  # untimed warm-up absorbs first-touch costs
        times = []
        for _ in range(reps):
            text = rng.bytes(16)
            t0 = time.perf_counter()
            qpow_hash(text, n)
            times.append(time.perf_counter() - t0)
        records.append(BenchRecord(n, float(np.median(times)), reps))
    return records, fit_log10_slope(records, fit_min)


def fit_log10_slope(records: list[BenchRecord], fit_min: int = 15) -> float:
    """Least-squares slope of log10(wall time) versus qubit count.

    Points with n >= fit_min are used; if fewer than two qualify, all points
    are. The fit is a pure function of the records.
    """
    pts = [(r.n_qubits, r.wall_time) for r in records if r.n_qubits >= fit_min]
    if len(pts) < 2:
        pts = [(r.n_qubits, r.wall_time) for r in records]
    if len(pts) < 2:
        raise ValueError("need at least two bench records to fit a slope")
    ns = np.array([p[0] for p in pts], dtype=float)
    ts = np.array([p[1] for p in pts], dtype=float)
    slope, _ = np.polyfit(ns, np.log10(ts), 1)
    return float(slope)


ADVANTAGE_CSV_HEADER = "n,classical_time_model,quantum_time_model,speed_ratio,accuracy,advantage"
BENCH_CSV_HEADER = "n,wall_time_s,reps"


def advantage_csv(n_values: list[int], model: AdvantageModel = DEFAULT_MODEL) -> str:
    lines = [ADVANTAGE_CSV_HEADER]
    for n in n_values:
        ct = classical_time(n, model)
        qt = quantum_time(n, model)
        acc = accuracy_estimate(n, two_qubit_gate_count(n), model.noise)
        lines.append(f"{n},{ct:.6g},{qt:.6g},{ct / qt:.6g},{acc:.6g},{ct / qt * acc:.6g}")
    return "\n".join(lines) + "\n"


def bench_csv(records: list[BenchRecord]) -> str:
    lines = [BENCH_CSV_HEADER]
    lines.extend(f"{r.n_qubits},{r.wall_time:.6g},{r.repetitions}" for r in records)
    return "\n".join(lines) + "\n"
