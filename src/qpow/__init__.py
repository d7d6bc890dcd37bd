"""Quantum proof-of-work toolkit.

A deterministic hash pipeline (SHA3 -> angle-encoded circuit -> most-probable
state -> SHA3), a miniature blockchain mined and verified with it, a noise
emulator reproducing hardware-grade error statistics, and a runtime-scaling
advantage model.
"""
from .analysis import (AdvantageModel, BenchRecord, CrossoverScan, advantage,
                       advantage_csv, bench_csv, bench_simulator, classical_time,
                       find_crossover, fit_log10_slope, quantum_time, speed_ratio,
                       two_qubit_gate_count)
from .chain import (Block, ChainFormatError, ChainVerification, MiningExhausted,
                    NoisyBackend, Proof, Verdict, check_difficulty, check_structure,
                    load_chain, make_genesis, mine_block, pack_bits, prove, qpow_hash,
                    save_chain, serialize_text, verify_chain)
from .circuit import Circuit, Gate, build_ansatz, count_two_qubit_gates, format_circuit
from .hashing import encode_angles, nibbles, sha3_256
from .noise import (NoiseParams, accuracy_estimate, emulated_match_rate,
                    noisy_outcome, preset_cnots)
from .simulator import (BasisOutcome, histogram_csv, most_probable_state,
                        sample_counts, simulate)

__version__ = "0.1.0"
