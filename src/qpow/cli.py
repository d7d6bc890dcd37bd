"""Command-line front end: mine, verify, hash, bench, and advantage workflows.

Exit codes are a stable scripting contract: 0 success, 1 mining or
verification failure, 2 usage or IO error or a state too big for this host.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from .analysis import (DEFAULT_MODEL, advantage_csv, bench_csv, bench_simulator,
                       check_bench_feasible, find_crossover)
from .chain import (DEFAULT_MAX_ATTEMPTS, ChainFormatError, MiningExhausted,
                    NoisyBackend, check_structure, load_chain, make_genesis, mine_block,
                    prove, save_chain, verify_chain)
from .circuit import MAX_QUBITS, MIN_QUBITS, format_circuit
from .hashing import nibbles
from .noise import (PRESET_IDEAL, PRESET_TRANSPILED_QUITO, NoiseParams,
                    preset_cnots)
from .simulator import histogram_csv, probabilities, sample_counts

# Fixed so demo runs reproduce; override with --seed.
DEFAULT_SEED = 42
DEFAULT_QUBITS = 4


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _make_backend(args: argparse.Namespace, n_qubits: int) -> NoisyBackend | None:
    if args.backend == "exact":
        return None
    cnots = preset_cnots(n_qubits, args.noise_preset)
    return NoisyBackend(NoiseParams(effective_cnots=cnots, seed=args.seed))


def cmd_mine(args: argparse.Namespace) -> int:
    existing = os.path.exists(args.chain)
    if existing:
        chain = load_chain(args.chain)
        # Refuse to extend what verify would reject; proofs are left to verify.
        for block, reason in zip(chain, check_structure(chain)):
            if reason != "ok":
                raise ChainFormatError(f"block {block.index}: {reason} in {args.chain}")
        n_qubits = chain[0].n_qubits
        if args.qubits not in (None, n_qubits):
            raise ValueError(f"--qubits {args.qubits} differs from the chain's "
                             f"{n_qubits} qubits in {args.chain}")
    else:
        n_qubits = DEFAULT_QUBITS if args.qubits is None else args.qubits
    check_bench_feasible(n_qubits)
    if not existing:
        chain = [make_genesis(n_qubits)]
        print(f"created genesis block ({n_qubits} qubits)")
    backend = _make_backend(args, n_qubits)
    for _ in range(args.blocks):
        prev = chain[-1]
        start = time.perf_counter()
        block, attempts = mine_block(
            prev, f"tx {prev.index + 1}", args.difficulty, n_qubits,
            backend=backend, seed=args.seed + prev.index + 1,
            max_attempts=args.max_attempts, jobs=args.jobs)
        elapsed = time.perf_counter() - start
        chain.append(block)
        print(f"block {block.index}: nonce {block.nonce} after {attempts} attempts "
              f"in {elapsed:.2f}s -> {block.pow_hash.hex()}")
    if args.blocks > 0 or not existing:  # an existing chain is rewritten only if extended
        save_chain(chain, args.chain)
        print(f"wrote {len(chain)} blocks to {args.chain}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    chain = load_chain(args.chain)
    if MIN_QUBITS <= chain[0].n_qubits <= MAX_QUBITS:  # the only count ever simulated
        check_bench_feasible(chain[0].n_qubits)
    result = verify_chain(chain, args.difficulty)
    mined = [c for c in result.checks if c.index > 0]
    if mined:
        print(f"{sum(c.ok for c in mined)}/{len(mined)} mined blocks pass "
              f"({100.0 * result.pass_fraction:.1f}%)")
    if result.ok:
        print(f"chain verifies at difficulty {args.difficulty}")
        return 0
    failure = result.first_failure
    print(f"verification failed at block {failure.index}: {failure.reason}",
          file=sys.stderr)
    return 1


def cmd_hash(args: argparse.Namespace) -> int:
    check_bench_feasible(args.qubits)
    proof = prove(args.text.encode("utf-8"), args.qubits)
    probability = probabilities(proof.state)[int(proof.bits, 2)]
    print(f"h1: {proof.h1.hex()}")
    print("angles (pi/8 units): " + " ".join(str(k) for k in nibbles(proof.h1)))
    print(f"outcome: {proof.bits} (p = {probability:.6f})")
    print(f"h2: {proof.h2.hex()}")
    if args.dump_circuit:
        print(format_circuit(proof.circuit))
    if args.out is not None:
        _write_out(histogram_csv(sample_counts(proof.state, args.shots, seed=args.seed)),
                   args.out)
        print(f"wrote {args.shots}-shot histogram to {args.out}")
    return 0


def _qubit_range(args: argparse.Namespace) -> list[int]:
    if args.min_qubits > args.max_qubits:
        raise ValueError(
            f"--min-qubits {args.min_qubits} exceeds --max-qubits {args.max_qubits}")
    return list(range(args.min_qubits, args.max_qubits + 1))


def cmd_bench(args: argparse.Namespace) -> int:
    records, slope = bench_simulator(_qubit_range(args), reps=args.reps, seed=args.seed)
    _write_out(bench_csv(records), args.out)
    print(f"fitted log10 slope: {slope:.4f} per qubit "
          f"(pinned model: {DEFAULT_MODEL.classical_slope})", file=sys.stderr)
    return 0


def cmd_advantage(args: argparse.Namespace) -> int:
    _write_out(advantage_csv(_qubit_range(args)), args.out)
    speed = find_crossover(DEFAULT_MODEL, "speed_ratio", n_max=200)
    adv = find_crossover(DEFAULT_MODEL, "advantage", n_max=200)
    print(f"speed ratio reaches 1 at n = {speed.n}", file=sys.stderr)
    if adv.n is None:
        print(f"advantage stays below 1 up to n = 200 "
              f"(peak {adv.best_value:.3g} at n = {adv.best_n})", file=sys.stderr)
    else:
        print(f"advantage reaches 1 at n = {adv.n}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpow",
        description="Quantum proof-of-work toolkit: hash pipeline, miniature "
                    "blockchain, noise emulation, and runtime-scaling analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine blocks onto a chain file")
    mine.add_argument("--chain", default="chain.json", help="chain file path")
    mine.add_argument("--blocks", type=int, default=5, help="blocks to append")
    mine.add_argument("--difficulty", type=int, default=1,
                      help="required leading zero hex characters")
    mine.add_argument("--qubits", type=int, default=None,
                      help=f"qubits of a new chain (default {DEFAULT_QUBITS}); "
                           "an existing chain keeps its own")
    mine.add_argument("--backend", choices=["exact", "noisy"], default="exact")
    mine.add_argument("--noise-preset", choices=[PRESET_IDEAL, PRESET_TRANSPILED_QUITO],
                      default=PRESET_TRANSPILED_QUITO)
    mine.add_argument("--seed", type=int, default=DEFAULT_SEED)
    mine.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the nonce search (exact backend)")
    mine.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    mine.set_defaults(func=cmd_mine)

    verify = sub.add_parser("verify", help="verify a chain file with the exact backend")
    verify.add_argument("--chain", default="chain.json")
    verify.add_argument("--difficulty", type=int, default=1)
    verify.set_defaults(func=cmd_verify)

    hash_cmd = sub.add_parser("hash", help="trace the proof pipeline for one input")
    hash_cmd.add_argument("text", help="input text to push through the pipeline")
    hash_cmd.add_argument("--qubits", type=int, default=DEFAULT_QUBITS)
    hash_cmd.add_argument("--shots", type=int, default=20000,
                          help="shots for the histogram written with --out")
    hash_cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    hash_cmd.add_argument("--out", default=None,
                          help="write a bitstring,count histogram CSV here")
    hash_cmd.add_argument("--dump-circuit", action="store_true",
                          help="print the gate list, one gate per line")
    hash_cmd.set_defaults(func=cmd_hash)

    bench = sub.add_parser("bench", help="time the pipeline per qubit count")
    bench.add_argument("--min-qubits", type=int, default=2)
    bench.add_argument("--max-qubits", type=int, default=16)
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--out", default=None, help="CSV output path (default stdout)")
    bench.set_defaults(func=cmd_bench)

    adv = sub.add_parser("advantage", help="emit the modeled speed/accuracy sweep")
    adv.add_argument("--min-qubits", type=int, default=2)
    adv.add_argument("--max-qubits", type=int, default=40)
    adv.add_argument("--out", default=None, help="CSV output path (default stdout)")
    adv.set_defaults(func=cmd_advantage)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MiningExhausted as exc:
        print(f"mining failed: {exc}", file=sys.stderr)
        return 1
    except (ChainFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
