"""Noisy-backend emulation and the closed-form accuracy model.

The channel is deliberately cheap: with the survival probability
(1 - e_cnot)**cnots the exact most-probable state comes through, otherwise a
uniformly random basis state is reported, and every output bit then flips
independently with probability e_readout. In expectation this reproduces the
survival formula exactly without simulating gate-level noise.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuit import build_ansatz
from .hashing import encode_angles
from .simulator import most_probable_state, num_qubits, simulate

PRESET_IDEAL = "ideal"
PRESET_TRANSPILED_QUITO = "transpiled-quito"

# Average CNOT counts of the ansatz after transpilation to the 5-qubit
# ibmq_quito device, keyed by qubit count.
TRANSPILED_QUITO_CNOTS: dict[int, float] = {2: 3.7, 3: 17.5, 4: 40.4, 5: 90.7}

# Device-vs-simulator coincidence rates measured on ibmq_quito; reference
# data for loose comparison, not a target the emulation is tuned to.
QUITO_MEASURED_MATCH_RATE: dict[int, float] = {2: 0.94, 3: 0.71, 4: 0.69, 5: 0.35}


@dataclass(frozen=True)
class NoiseParams:
    """Error rates of the emulated backend.

    ``effective_cnots`` pins the two-qubit gate count used in the survival
    probability (fractional values allowed, applied as a real exponent);
    ``None`` means count the crx gates of the actual circuit.
    """

    e_cnot: float = 0.01
    e_readout: float = 0.02
    effective_cnots: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name, p in (("e_cnot", self.e_cnot), ("e_readout", self.e_readout)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.effective_cnots is not None and self.effective_cnots < 0:
            raise ValueError(f"effective_cnots must be >= 0, got {self.effective_cnots}")


def accuracy_estimate(n: int, cnots: float, params: NoiseParams = NoiseParams()) -> float:
    """Expected agreement rate (1 - e_cnot)**cnots * (1 - e_readout)**n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if cnots < 0:
        raise ValueError(f"cnots must be >= 0, got {cnots}")
    return (1.0 - params.e_cnot) ** cnots * (1.0 - params.e_readout) ** n


def noisy_outcome(state: np.ndarray, params: NoiseParams, cnots: float,
                  rng: np.random.Generator | None = None) -> str:
    """One noisy readout of the most-probable state of ``state``, a
    statevector in ascending qubit order.

    Only the state's probabilities are read, so the frame of
    ``simulator.simulate_batch`` does not change the outcome, while its
    stored qubit order does; the pipeline calls ``noisy_bits`` instead. All
    randomness comes from ``rng`` (or a fresh generator seeded with
    ``params.seed``), so a fixed seed reproduces the outcome sequence.
    """
    return noisy_bits(lambda: most_probable_state(state).bits, num_qubits(state), params,
                      cnots, rng)


def noisy_bits(exact: Callable[[], str], n: int, params: NoiseParams, cnots: float,
               rng: np.random.Generator | None = None) -> str:
    """``noisy_outcome`` of an n-qubit state whose exact most-probable bits
    ``exact()`` gives; it is called only if the state survives the noise.

    The draws are ``random()``, then ``integers()`` unless the state
    survived, then ``random(n)`` for the readout flips.
    """
    if rng is None:
        rng = np.random.default_rng(params.seed)
    if rng.random() < (1.0 - params.e_cnot) ** cnots:
        bits = exact()
    else:
        bits = format(int(rng.integers(1 << n)), f"0{n}b")
    flips = rng.random(n) < params.e_readout
    return "".join("10"[b == "1"] if f else b for b, f in zip(bits, flips))


def preset_cnots(n: int, preset: str) -> float:
    """Two-qubit gate count a preset assumes for an n-qubit pipeline run."""
    if preset == PRESET_TRANSPILED_QUITO:
        if n not in TRANSPILED_QUITO_CNOTS:
            raise ValueError(
                f"preset {preset!r} is defined for n in {sorted(TRANSPILED_QUITO_CNOTS)}, got {n}")
        return TRANSPILED_QUITO_CNOTS[n]
    if preset == PRESET_IDEAL:
        return float(n * n - n)
    raise ValueError(f"unknown noise preset {preset!r}")


def emulated_match_rate(n: int, trials: int, preset: str = PRESET_TRANSPILED_QUITO,
                        params: NoiseParams = NoiseParams()) -> float:
    """Fraction of random digests where a noisy readout matches the exact one.

    Each trial pushes a fresh random digest through encode -> ansatz ->
    simulate and compares the exact most-probable state against one noisy
    readout using the preset's CNOT count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    cnots = preset_cnots(n, preset)
    rng = np.random.default_rng(params.seed)
    matches = 0
    for _ in range(trials):
        state = simulate(build_ansatz(encode_angles(rng.bytes(32)), n))
        exact = most_probable_state(state).bits
        if noisy_outcome(state, params, cnots, rng) == exact:
            matches += 1
    return matches / trials
