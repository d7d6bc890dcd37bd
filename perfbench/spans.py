"""Traced replay: the proof pipeline driven stage by stage from outside `src/`.

Every stage is a public function of one layer module, wrapped in a span. A
span is (name, start_ns, end_ns, parent, request); the name's first dotted
part is the layer. Spans stay in memory until `Tracer.dump`. Each replayed
request is followed by one `chain.qpow_hash` call on the same text, with a
single span around it. The staged h2 must equal its result, and the stage sum
and the tracing overhead are measured against its time.
"""
from __future__ import annotations

import json
import statistics
import time

import numpy as np

from qpow.chain import NoisyBackend, check_difficulty, pack_bits, qpow_hash, serialize_text
from qpow.circuit import build_ansatz, count_two_qubit_gates
from qpow.hashing import encode_angles, sha3_256
from qpow.noise import NoiseParams, noisy_outcome
from qpow.simulator import most_probable_state, simulate

ROOT_SPAN = "replay"
REFERENCE_SPAN = "chain.qpow_hash"
# Spans under a replay root that are not part of qpow_hash itself.
OUTSIDE_HASH = ("chain.serialize_text", "chain.check_difficulty")
LAYERS = ("hashing", "circuit", "simulator", "noise", "chain")
NEAR_TIE_GAP = 1e-6
AMPLITUDE_BYTES = 16  # complex128


class Tracer:
    """In-memory span recorder; costs two clock reads and one append per span."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, name: str, parent: int | None, request: int) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, parent, request])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][2] = time.perf_counter_ns()

    def call(self, name: str, parent: int | None, request: int, fn, *args):
        span = self.open(name, parent, request)
        out = fn(*args)
        self.close(span)
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "span_fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": self.spans}, fh)


class Replay:
    """Staged pipeline plus the counters measured where the work happens.

    ``noise`` is None for the exact backend. Otherwise the staged readout and
    the reference qpow_hash get a generator and a NoisyBackend seeded alike,
    so both draw identical noise.
    """

    def __init__(self, tracer: Tracer, n_qubits: int, difficulty: int,
                 noise: NoiseParams | None = None) -> None:
        self.tr = tracer
        self.n = n_qubits
        self.difficulty = difficulty
        self.noise = noise
        self.rng = np.random.default_rng(noise.seed) if noise else None
        self.backend = NoisyBackend(noise) if noise else None
        self.requests = 0
        self.mismatches = 0
        self.near_ties = 0
        self.survived = 0
        self.gates = 0
        self.crx = 0
        self.bytes = 0

    def block(self, nonce: int, payload: str, prev_hash: bytes) -> None:
        root, rid = self._open()
        text = self.tr.call("chain.serialize_text", root, rid, serialize_text, nonce, payload, prev_hash)
        self._finish(root, rid, text)

    def text(self, text: bytes) -> None:
        root, rid = self._open()
        self._finish(root, rid, text)

    def _open(self) -> tuple[int, int]:
        rid = self.requests
        self.requests += 1
        return self.tr.open(ROOT_SPAN, None, rid), rid

    def _finish(self, root: int, rid: int, text: bytes) -> None:
        """Run the hash stages, then count a mismatch with qpow_hash on the same text."""
        tr = self.tr
        h1 = tr.call("hashing.sha3_256", root, rid, sha3_256, text)
        angles = tr.call("hashing.encode_angles", root, rid, encode_angles, h1)
        circuit = tr.call("circuit.build_ansatz", root, rid, build_ansatz, angles, self.n)
        state = tr.call("simulator.simulate", root, rid, simulate, circuit)
        if self.noise is None:
            bits = tr.call("simulator.most_probable_state", root, rid, most_probable_state, state).bits
        else:
            bits = tr.call("noise.noisy_outcome", root, rid, noisy_outcome, state, self.noise,
                           self.noise.effective_cnots, self.rng)
        packed = tr.call("chain.pack_bits", root, rid, pack_bits, bits)
        h2 = tr.call("hashing.sha3_256", root, rid, sha3_256, h1 + packed)
        tr.call("chain.check_difficulty", root, rid, check_difficulty, h2, self.difficulty)
        tr.close(root)

        self.mismatches += tr.call(REFERENCE_SPAN, None, rid, qpow_hash, text, self.n, self.backend) != h2
        self._probe(circuit, state, bits)

    def _probe(self, circuit, state: np.ndarray, bits: str) -> None:
        # Untraced: counters and computed sizes, outside every span.
        probs = state.real * state.real + state.imag * state.imag
        second, first = np.partition(probs, -2)[-2:]
        self.near_ties += bool(first - second < NEAR_TIE_GAP * first)
        if self.noise is not None:
            self.survived += bits == most_probable_state(state).bits
        crx = count_two_qubit_gates(circuit)
        full = 1 << self.n
        self.gates += len(circuit.gates)
        self.crx += crx
        # A gate-by-gate pass reads and writes every amplitude a gate touches
        # (all of them for rx/rz, the control=1 half for crx), plus one write
        # to initialise the state and one read for the readout.
        touched = (len(circuit.gates) - crx) * full + crx * (full // 2)
        self.bytes += AMPLITUDE_BYTES * (2 * touched + 2 * full)


def summarize(tracer: Tracer, replay: Replay) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of one replay, and the counter bases.

    The tracing overhead compares each request's traced hash (its root span
    less serialize_text and check_difficulty) with the untraced qpow_hash on
    the same text right after it, so both see the same host speed.
    """
    spans = tracer.spans
    durations: dict[str, list[int]] = {}
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        durations.setdefault(name, []).append(end - start)
        if parent is not None:
            child_ns[parent] += end - start
    self_ns = dict.fromkeys(LAYERS, 0)
    stage_ns = root_ns = outside_ns = 0
    for (name, start, end, parent, _), children in zip(spans, child_ns):
        if name == ROOT_SPAN:
            root_ns += end - start
        elif parent is not None:
            self_ns[name.split(".", 1)[0]] += end - start - children
            if name in OUTSIDE_HASH:
                outside_ns += end - start
            else:
                stage_ns += end - start
    reference_ns = sum(durations.get(REFERENCE_SPAN, [])) or 1
    hashes = replay.requests or 1

    def us(name: str) -> float:
        """Median µs per call; 0 for a call the workload never makes."""
        return statistics.median(durations[name]) / 1e3 if name in durations else 0.0

    sim_us = us("simulator.simulate")
    gates = replay.gates / hashes

    metrics = {
        "hashing.sha3_256.us": us("hashing.sha3_256"),
        "hashing.encode_angles.us": us("hashing.encode_angles"),
        "circuit.build_ansatz.us": us("circuit.build_ansatz"),
        "circuit.gates_per_hash": gates,
        "circuit.crx_per_hash": replay.crx / hashes,
        "simulator.simulate.us": sim_us,
        "simulator.us_per_gate": sim_us / gates if gates else 0.0,
        "simulator.bytes_per_hash": replay.bytes / hashes,
        "simulator.most_probable_state.us": us("simulator.most_probable_state"),
        "simulator.near_tie_frac": replay.near_ties / hashes,
        "noise.noisy_outcome.us": us("noise.noisy_outcome"),
        "noise.survival_frac": replay.survived / hashes if replay.noise else 0.0,
        "chain.serialize_text.us": us("chain.serialize_text"),
        "chain.pack_bits.us": us("chain.pack_bits"),
        "chain.check_difficulty.us": us("chain.check_difficulty"),
        "chain.qpow_hash.us": us(REFERENCE_SPAN),
        "chain.stage_gap_frac": 1.0 - stage_ns / reference_ns,
        "trace.overhead_frac": (root_ns - outside_ns) / reference_ns - 1.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_us"] = self_ns[layer] / 1e3 / hashes
    counters = {
        "simulator.near_tie_frac": [replay.near_ties, replay.requests],
        "noise.survival_frac": [replay.survived, replay.requests if replay.noise else 0],
        "replay.h2_mismatches": [replay.mismatches, replay.requests],
    }
    return metrics, counters


def median_span_ms(tracer: Tracer, name: str, fn, *args, repeats: int = 3, per: int = 1):
    """Time ``fn`` in ``repeats`` spans; returns (median ms / per, last result)."""
    out, durations = None, []
    for _ in range(repeats):
        span = tracer.open(name, None, -1)
        out = fn(*args)
        tracer.close(span)
        durations.append(tracer.spans[span][2] - tracer.spans[span][1])
    return statistics.median(durations) / 1e6 / per, out
