#!/usr/bin/env python3
"""The qpow benchmark: exact and noisy mining, chain verification, n=20 hashing.

    python3 perfbench/run.py --workload mine-n4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with one client in one process: the next
mine_block, verify or hash starts when the previous one returns. The timed
runs call only qpow.chain entry points. After the timed run every output is
checked against an independent re-derivation (reference.py); a failed check
or a raised error counts as a failed operation and makes the exit code 1.

With --trace 1 the timed run is followed by a traced replay of the same
amount of work through each layer's public functions (spans.py), and the
per-layer metrics are reported instead of the end-to-end ones. The last
stdout line is one JSON object: correct, attempted, failed, metrics. The line
before it is a JSON report with the environment, raw times, sample counts and
counter bases. `--workload all` runs each workload in a fresh process.
"""
import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3


def import_qpow() -> None:
    """Import qpow from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import qpow
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qpow from {SRC}: {exc}")
    if not Path(qpow.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: qpow resolved to {qpow.__file__}, not under {SRC}")


import_qpow()
import numpy as np  # noqa: E402  (after the checkout's src/ is on the path)

import reference as ref  # noqa: E402
import spans  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from qpow.chain import (NoisyBackend, load_chain, make_genesis, mine_block,  # noqa: E402
                        qpow_hash, save_chain, verify_chain)
from qpow.noise import PRESET_TRANSPILED_QUITO, NoiseParams, preset_cnots  # noqa: E402

IMPORT_S = time.perf_counter() - PROCESS_START


@dataclass
class Timed:
    """What one timed run did: one (hashes, raw s, scaled s) sample per call."""

    ops: int = 0
    failed: int = 0
    samples: list = field(default_factory=list)
    named: dict = field(default_factory=dict)  # extra end-to-end figures, name -> (value, unit)

    @property
    def hashes(self) -> int:
        return sum(h for h, _, _ in self.samples)

    def per_s(self, count: int, column: int) -> float:
        return count / sum(s[column] for s in self.samples)

    def ms_per_hash(self, column: int) -> list[float]:
        return [s[column] * 1e3 / s[0] for s in self.samples if s[0]]


def failed_op(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc()


class Mine:
    """mine_block from a timestamp-0 genesis at n=4, difficulty 2, then save_chain."""

    N, DIFFICULTY, MAX_BLOCKS, WARMUP_HASHES = 4, 2, 4096, 32
    HOST = (4, 64, 8, 9.5)

    def __init__(self, name: str, noisy: bool) -> None:
        self.name, self.noisy = name, noisy

    def params(self, seed: int):
        return NoiseParams(effective_cnots=preset_cnots(self.N, PRESET_TRANSPILED_QUITO), seed=seed)

    def backend(self, seed: int):
        return NoisyBackend(self.params(seed)) if self.noisy else None

    def setup(self, seed: int, tmp: Path) -> None:
        rng = np.random.default_rng(seed)
        self.jobs = [(f"tx {i} {tag:08x}", int(s)) for i, (tag, s) in enumerate(
            zip(rng.integers(1 << 32, size=self.MAX_BLOCKS), rng.integers(1 << 31, size=self.MAX_BLOCKS)))]
        self.seed = seed
        self.genesis = make_genesis(self.N, timestamp=0)
        warm = self.backend(seed + 1)
        for k in range(self.WARMUP_HASHES):
            qpow_hash(b"warm-up %d" % k, self.N, warm)
        self.path = tmp / "chain.json"

    def timed(self, seconds: float, host: HostSpeed) -> Timed:
        run, backend, chain = Timed(), self.backend(self.seed), [self.genesis]
        start = time.perf_counter()
        for payload, nonce_seed in self.jobs:
            if time.perf_counter() - start >= seconds:
                break
            run.ops += 1
            try:
                (block, attempts), raw, scaled = host.time(
                    mine_block, chain[-1], payload, self.DIFFICULTY, self.N, backend, nonce_seed)
            except Exception:
                failed_op(f"mine_block {len(chain)}")
                run.failed += 1
                continue
            chain.append(block)
            run.samples.append((attempts, raw, scaled))
        else:
            sys.exit(f"perfbench: {self.name} ran out of its {self.MAX_BLOCKS} block inputs")
        self.attempts = [h for h, _, _ in run.samples]
        _, raw, scaled = host.time(save_chain, chain, self.path)
        run.samples.append((0, raw, scaled))
        run.named["blocks_per_s"] = (run.per_s(len(self.attempts), 2), "1/s")
        self.chain = chain
        return run

    def check(self, run: Timed) -> None:
        chain = self.chain
        try:
            loaded = load_chain(self.path)
        except Exception:
            failed_op("load_chain")
            loaded = []
        bad = {i for i in range(1, len(chain)) if i >= len(loaded) or loaded[i] != chain[i]}
        if not self.noisy and loaded:
            bad |= {c.index for c in verify_chain(loaded, self.DIFFICULTY).checks if not c.ok}
        oracles = ref.load_oracles()
        for prev, block in zip(chain, chain[1:]):
            h1 = ref.sha3(ref.block_text(block.nonce, block.payload, block.prev_hash))
            if self.noisy:
                proofs = ref.any_outcome_proofs(h1, self.N)
            else:
                proofs = ref.proof_candidates(h1, oracles.simulate_dense(ref.circuit(h1, self.N)), self.N)
            if (block.pow_hash not in proofs or not ref.meets_difficulty(block.pow_hash, self.DIFFICULTY)
                    or block.prev_hash != prev.pow_hash or block.index != prev.index + 1):
                bad.add(block.index)
        run.failed += len(bad)

    def replay(self, tracer, run: Timed):
        """Replay as many attempts as the timed run made, on fresh nonces and prev hashes."""
        params = self.params(self.seed + 2)
        replay = spans.Replay(tracer, self.N, self.DIFFICULTY, params if self.noisy else None)
        rng = np.random.default_rng(params.seed)
        for i in range(run.hashes):
            replay.block(int(rng.integers(1 << 32)), self.jobs[i % len(self.attempts)][0], rng.bytes(32))
        save_ms, _ = spans.median_span_ms(tracer, "chain.save_chain", save_chain, self.chain, self.path)
        blocks, attempts = len(self.attempts), sum(self.attempts)
        counters = {"chain.attempts_per_block": [attempts, blocks], "chain.accept_frac": [blocks, attempts]}
        return replay, {"chain.attempts_per_block": attempts / blocks, "chain.accept_frac": blocks / attempts,
                        "chain.save_chain.ms": save_ms}, counters


class Verify:
    """load_chain + verify_chain of an n=12 chain mined at difficulty 0 in setup.

    One block in EDIT_EVERY has its payload edited after mining, so it must get
    the pow-hash verdict; all others must verify.
    """

    name, N, BLOCKS, EDIT_EVERY = "verify-n12", 12, 300, 10
    HOST = (12, 64, 4, 15.0)

    def setup(self, seed: int, tmp: Path) -> None:
        rng = np.random.default_rng(seed)
        chain = [make_genesis(self.N, timestamp=0)]
        for i in range(1, self.BLOCKS + 1):
            block, _ = mine_block(chain[-1], f"tx {i} {int(rng.integers(1 << 32)):08x}", 0, self.N,
                                  seed=int(rng.integers(1 << 31)))
            chain.append(block)
        edited = {int(i) for i in rng.choice(range(1, self.BLOCKS + 1), self.BLOCKS // self.EDIT_EVERY,
                                             replace=False)}
        for i in edited:
            chain[i] = replace(chain[i], payload=chain[i].payload + " (edited)")
        self.expected = ["pow-hash" if i in edited else "ok" for i in range(len(chain))]
        self.path = tmp / "chain.json"
        save_chain(chain, self.path)

    def load_and_verify(self) -> list[str]:
        return [c.reason for c in verify_chain(load_chain(self.path), 0).checks]

    def timed(self, seconds: float, host: HostSpeed) -> Timed:
        run, self.verdicts = Timed(), []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            run.ops += len(self.expected)
            try:
                reasons, raw, scaled = host.time(self.load_and_verify)
            except Exception:
                failed_op("load_chain + verify_chain")
                continue
            run.samples.append((len(reasons), raw, scaled))
            self.verdicts.append(reasons)
        run.named["verify_blocks_per_s"] = (run.per_s(run.hashes, 2), "1/s")
        return run

    def check(self, run: Timed) -> None:
        verified = sum(map(len, self.verdicts))
        run.failed += run.ops - verified + sum(
            a != b for reasons in self.verdicts for a, b in zip(reasons, self.expected))

    def replay(self, tracer, run: Timed):
        """Replay every block of the chain once, after timing load and verify."""
        load_ms, chain = spans.median_span_ms(tracer, "chain.load_chain", load_chain, self.path)
        verify_ms, _ = spans.median_span_ms(tracer, "chain.verify_chain", verify_chain, chain, 0,
                                            per=len(chain))
        replay = spans.Replay(tracer, self.N, 0)
        for block in chain:
            replay.block(block.nonce, block.payload, block.prev_hash)
        return replay, {"chain.load_chain.ms": load_ms, "chain.verify_chain.ms_per_block": verify_ms}, {}


class Hash:
    """qpow_hash on distinct block-shaped inputs at n=20."""

    name, N, MAX_INPUTS = "hash-n20", 20, 512
    # n=19 tracks the n=20 hash time best (log-log slope 0.85; n=16 gave 0.49),
    # and its 16 MiB working set stays under the n=20 pipeline's peak RSS.
    HOST = (19, 24, 1, 46.0)

    def setup(self, seed: int, tmp: Path) -> None:
        rng = np.random.default_rng(seed)
        self.texts = [ref.block_text(int(rng.integers(1 << 32)), f"tx {i}", rng.bytes(32))
                      for i in range(self.MAX_INPUTS)]
        qpow_hash(b"warm-up", self.N)

    def timed(self, seconds: float, host: HostSpeed) -> Timed:
        run, self.proofs = Timed(), []
        start = time.perf_counter()
        for text in self.texts:
            if time.perf_counter() - start >= seconds:
                break
            run.ops += 1
            try:
                h2, raw, scaled = host.time(qpow_hash, text, self.N)
            except Exception:
                failed_op("qpow_hash")
                self.proofs.append(None)
                continue
            run.samples.append((1, raw, scaled))
            self.proofs.append(h2)
        else:
            sys.exit(f"perfbench: {self.name} ran out of its {self.MAX_INPUTS} inputs")
        return run

    def check(self, run: Timed) -> None:
        for text, h2 in zip(self.texts, self.proofs):
            h1 = ref.sha3(text)
            run.failed += h2 not in ref.proof_candidates(h1, ref.statevector(ref.circuit(h1, self.N)), self.N)

    def replay(self, tracer, run: Timed):
        replay = spans.Replay(tracer, self.N, 0)
        for text in self.texts[:run.ops]:
            replay.text(text)
        return replay, {}, {}


WORKLOADS = {w.name: w for w in (Mine("mine-n4", False), Mine("mine-noisy-n4", True), Verify(), Hash())}
# Chain metrics of whole blocks and files; 0 on workloads that never make the call.
BLOCK_METRICS = ("chain.attempts_per_block", "chain.accept_frac", "chain.save_chain.ms",
                 "chain.load_chain.ms", "chain.verify_chain.ms_per_block")


def l3_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown"


def environment(args) -> dict:
    return {"cpu_count": os.cpu_count(), "l3": l3_size(), "python": platform.python_version(),
            "numpy": np.__version__, "git_revision": git_revision(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "jobs": 1}


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        return measure(args, Path(tmp))


def measure(args, tmp: Path) -> int:
    units = load_units()
    work = WORKLOADS[args.workload]
    host = HostSpeed(*work.HOST)
    setups = [host.time(work.setup, args.seed, tmp) for _ in range(SETUP_REPEATS)]
    run = work.timed(args.seconds, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - host.resident_mb
    work.check(run)

    def end_to_end(column: int) -> dict:
        return {
            # Import is left unscaled: it slowed ~25% where the yardstick slowed ~70%.
            "setup_s": IMPORT_S + statistics.median(s[column] for s in setups),
            "hashes_per_s": run.per_s(run.hashes, column),
            "hash_ms_p50": statistics.median(run.ms_per_hash(column)),
            "peak_rss_mb": peak_rss_mb,
        }

    scaled = end_to_end(2)
    report = {
        "env": environment(args),
        "samples": {"setup_s": SETUP_REPEATS, "hash_ms_p50": len(run.ms_per_hash(2)),
                    "host_speed": len(host.samples)},
        "hashes": run.hashes,
        "import_s": IMPORT_S,
        "raw": end_to_end(1),
        "host_speed_ms": {"ref": host.ref_ms, "median": statistics.median(host.samples),
                          "min": min(host.samples), "max": max(host.samples)},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in run.named.items()},
    }
    attempted, failed = run.ops, run.failed
    if args.trace:
        tracer = spans.Tracer()
        replay, chain_metrics, counters = work.replay(tracer, run)
        metrics, replay_counters = spans.summarize(tracer, replay)
        metrics.update({**dict.fromkeys(BLOCK_METRICS, 0.0), **chain_metrics})
        counters.update(replay_counters)
        attempted += replay.requests
        failed += replay.mismatches
        report["counters"] = {k: {"num": a, "den": b} for k, (a, b) in counters.items()}
        tracer.dump(OUT_DIR / f"trace-{args.workload}.json", {"env": report["env"]})
    else:
        metrics = scaled
    report["failed_frac"] = failed / attempted
    report["end_to_end"] = {k: {"value": v, "unit": units[k]} for k, v in scaled.items()}

    for name, value in {**scaled, **metrics}.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    for name, entry in report["named"].items():
        print(f"{name:36s} {entry['value']:14.6g} {entry['unit']}")
    print(f"{'failed_frac':36s} {report['failed_frac']:14.6g} ({failed}/{attempted})")
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS and setup are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        print(f"== {name}\n{proc.stdout}", end="")
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1):
            combined["correct"] = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
