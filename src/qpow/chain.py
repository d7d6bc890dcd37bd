"""Block structure, qPoW hash composition, mining loop, and chain verification.

The proof hash sandwiches the quantum sampling step between two SHA3-256
applications: h1 = sha3(text), then the circuit built from h1 yields an n-bit
outcome b, and the proof is h2 = sha3(h1 ++ pack(b)). Re-including h1 in the
second hash keeps the full 256-bit preimage resistance even though b carries
only n bits, and makes the proof a pure function of the input text under the
exact backend. A block verifies when its recorded proof re-derives exactly,
which costs a single circuit simulation.
"""
from __future__ import annotations

import contextlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circuit import MAX_QUBITS, MIN_QUBITS, Circuit, build_ansatz, count_two_qubit_gates
from .hashing import DIGEST_SIZE, check_digest, encode_angles, sha3_256
from .noise import NoiseParams, noisy_outcome
from .simulator import most_probable_state, simulate

ZERO_HASH = bytes(DIGEST_SIZE)
NONCE_BITS = 32
MAX_DIFFICULTY = 2 * DIGEST_SIZE
DEFAULT_MAX_ATTEMPTS = 1 << 20
GENESIS_PAYLOAD = "genesis"

# Nonces are drawn in independently seeded chunks of this size so that the
# parallel search visits the same stream as the sequential one.
NONCE_CHUNK = 32


class ChainFormatError(ValueError):
    """A chain file does not parse into the documented block schema."""


class MiningExhausted(RuntimeError):
    """The attempt cap was hit before any nonce passed the difficulty test."""

    def __init__(self, attempts: int):
        super().__init__(f"no valid nonce within {attempts} attempts")
        self.attempts = attempts


class NoisyBackend:
    """Backend whose answers degrade like noisy hardware.

    Owns its generator; concurrent use requires separate instances.
    """

    def __init__(self, params: NoiseParams):
        self.params = params
        self._rng = np.random.default_rng(params.seed)

    def outcome(self, state: np.ndarray, circuit: Circuit) -> str:
        cnots = self.params.effective_cnots
        if cnots is None:
            cnots = float(count_two_qubit_gates(circuit))
        return noisy_outcome(state, self.params, cnots, self._rng)


@dataclass(frozen=True)
class Block:
    """One ledger entry; ``pow_hash`` re-derives from the other hashed fields."""

    index: int
    timestamp: int
    prev_hash: bytes
    payload: str
    nonce: int
    n_qubits: int
    pow_hash: bytes


@dataclass(frozen=True)
class Verdict:
    """The judgement of one block: ``reason`` is "ok" or a failure code."""

    index: int
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ChainVerification:
    ok: bool
    checks: tuple[Verdict, ...]

    def __bool__(self) -> bool:
        return self.ok

    @property
    def first_failure(self) -> Verdict | None:
        return next((c for c in self.checks if not c.ok), None)

    @property
    def pass_fraction(self) -> float:
        """Fraction of mined (non-genesis) blocks that verify."""
        mined = [c for c in self.checks if c.index > 0]
        if not mined:
            return 1.0
        return sum(c.ok for c in mined) / len(mined)


def serialize_text(nonce: int, payload: str, prev_hash: bytes) -> bytes:
    """UTF-8 bytes of: decimal nonce, payload, lowercase hex of the previous hash."""
    if not 0 <= nonce < 1 << NONCE_BITS:
        raise ValueError(f"nonce must be an unsigned {NONCE_BITS}-bit integer, got {nonce}")
    check_digest(prev_hash)
    return f"{nonce}{payload}{prev_hash.hex()}".encode("utf-8")


def pack_bits(bits: str) -> bytes:
    """Pack an n-bit string into ceil(n/8) bytes, MSB first, zero-padded on the right."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"expected a non-empty bit string, got {bits!r}")
    n_bytes = (len(bits) + 7) // 8
    return (int(bits, 2) << (8 * n_bytes - len(bits))).to_bytes(n_bytes, "big")


@dataclass(frozen=True, eq=False)
class Proof:
    """Every stage of one run of the proof pipeline; ``h2`` is the proof hash."""

    h1: bytes
    circuit: Circuit
    state: np.ndarray
    bits: str
    h2: bytes


def prove(text: bytes, n_qubits: int, backend: NoisyBackend | None = None) -> Proof:
    """The full proof pipeline: sha3 -> angles -> ansatz -> outcome -> sha3.

    ``backend`` None is the exact backend: the simulator's most-probable state.
    """
    h1 = sha3_256(text)
    circuit = build_ansatz(encode_angles(h1), n_qubits)
    state = simulate(circuit)
    bits = most_probable_state(state).bits if backend is None else backend.outcome(state, circuit)
    return Proof(h1, circuit, state, bits, sha3_256(h1 + pack_bits(bits)))


def qpow_hash(text: bytes, n_qubits: int, backend: NoisyBackend | None = None) -> bytes:
    """The proof hash h2 of ``text``."""
    return prove(text, n_qubits, backend).h2


def check_difficulty(digest: bytes, difficulty: int) -> bool:
    """True iff the hex rendering starts with ``difficulty`` zero characters."""
    if not 0 <= difficulty <= MAX_DIFFICULTY:
        raise ValueError(f"difficulty must be in [0, {MAX_DIFFICULTY}], got {difficulty}")
    return check_digest(digest).hex().startswith("0" * difficulty)


def make_genesis(n_qubits: int = 4, timestamp: int | None = None) -> Block:
    """The fixed-form first block: payload 'genesis', zero nonce, all-zero prev hash."""
    ts = int(time.time()) if timestamp is None else timestamp
    pow_hash = qpow_hash(serialize_text(0, GENESIS_PAYLOAD, ZERO_HASH), n_qubits)
    return Block(0, ts, ZERO_HASH, GENESIS_PAYLOAD, 0, n_qubits, pow_hash)


def _nonce_chunk(seed: int, chunk_index: int, size: int) -> np.ndarray:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.default_rng(seq).integers(0, 1 << NONCE_BITS, size=size, dtype=np.uint64)


def _scan_chunk(args: tuple) -> tuple[int, int, bytes] | None:
    # One chunk of the nonce stream: (offset, nonce, digest) of its first hit.
    payload, prev_hash, n_qubits, difficulty, backend, seed, chunk_index, size = args
    for offset, nonce in enumerate(_nonce_chunk(seed, chunk_index, size)):
        digest = qpow_hash(serialize_text(int(nonce), payload, prev_hash), n_qubits, backend)
        if check_difficulty(digest, difficulty):
            return offset, int(nonce), digest
    return None


def mine_block(prev: Block, payload: str, difficulty: int, n_qubits: int,
               backend: NoisyBackend | None = None, seed: int = 0,
               max_attempts: int = DEFAULT_MAX_ATTEMPTS, jobs: int = 1) -> tuple[Block, int]:
    """Draw random nonces until the proof passes the difficulty test.

    Returns the mined block and the number of attempts spent; raises
    MiningExhausted past ``max_attempts``. Chunks of the nonce stream are
    scanned in order, in waves of ``2 * jobs``; with ``jobs`` > 1 each wave
    fans out to worker processes (exact backend only). The mined block is
    identical for any job count because the earliest successful attempt wins
    regardless of completion order.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and backend is not None:
        raise ValueError("parallel nonce search supports the exact backend only")

    n_chunks = (max_attempts + NONCE_CHUNK - 1) // NONCE_CHUNK
    wave = 2 * jobs
    # Builtin map is lazy, so a sequential search stops at the first hit and a
    # stateful backend sees exactly the attempts up to it.
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    with pool or contextlib.nullcontext():
        scan = map if pool is None else pool.map
        for start in range(0, n_chunks, wave):
            batch = range(start, min(start + wave, n_chunks))
            args = ((payload, prev.pow_hash, n_qubits, difficulty, backend, seed, ci,
                     min(NONCE_CHUNK, max_attempts - ci * NONCE_CHUNK)) for ci in batch)
            for ci, found in zip(batch, scan(_scan_chunk, args)):
                if found is not None:
                    offset, nonce, digest = found
                    block = Block(prev.index + 1, int(time.time()), prev.pow_hash,
                                  payload, nonce, n_qubits, digest)
                    return block, ci * NONCE_CHUNK + offset + 1
    raise MiningExhausted(max_attempts)


def _judge(block: Block, prev: Block | None, n_qubits: int, difficulty: int | None) -> str:
    """The first rule ``block`` breaks, or "ok"; ``prev`` is None for the genesis.

    The structural rules allocate nothing. Unless ``difficulty`` is None, the
    proof is then re-derived with the exact backend: one simulation.
    """
    if prev is None:
        if block.index != 0 or block.prev_hash != ZERO_HASH:
            return "genesis-structure"
    elif block.index != prev.index + 1:
        return "index"
    elif block.n_qubits != n_qubits:
        return "n-qubits"
    elif block.prev_hash != prev.pow_hash:
        return "prev-hash"
    if not MIN_QUBITS <= block.n_qubits <= MAX_QUBITS:
        return "n-qubits"
    if not 0 <= block.nonce < 1 << NONCE_BITS:
        return "nonce-range"
    if difficulty is None:
        return "ok"
    text = serialize_text(block.nonce, block.payload, block.prev_hash)
    if qpow_hash(text, block.n_qubits) != block.pow_hash:
        return "pow-hash"
    if prev is not None and not check_difficulty(block.pow_hash, difficulty):
        return "difficulty"
    return "ok"


def _judge_chain(chain: list[Block], difficulty: int | None) -> list[str]:
    if not chain:
        raise ValueError("chain must be non-empty")
    return [_judge(block, prev, chain[0].n_qubits, difficulty)
            for prev, block in zip([None, *chain], chain)]


def check_structure(chain: list[Block]) -> list[str]:
    """Per block, the first rule it breaks that needs no simulation, or "ok".

    These are genesis-structure, index, n-qubits, prev-hash and nonce-range.
    """
    return _judge_chain(chain, None)


def verify_block(block: Block, prev: Block, difficulty: int) -> Verdict:
    """Judge a mined block against its predecessor; at most one simulation.

    The boolean verdict carries a reason code: index, n-qubits, prev-hash,
    nonce-range, pow-hash, difficulty, or ok. A block outside
    [MIN_QUBITS, MAX_QUBITS] is judged n-qubits before anything is allocated.
    """
    reason = _judge(block, prev, prev.n_qubits, difficulty)
    return Verdict(block.index, reason == "ok", reason)


def verify_chain(chain: list[Block], difficulty: int) -> ChainVerification:
    """Check the genesis structure and every adjacent pair of blocks.

    Each mined block is judged independently against its stored predecessor,
    so one bad block does not mask the verdicts of the blocks after it.
    The genesis is held to structure and proof re-derivation, not difficulty.
    Every block must use the genesis's qubit count, in [MIN_QUBITS, MAX_QUBITS];
    verdicts never depend on the host, whose memory the caller checks first.
    """
    reasons = _judge_chain(chain, difficulty)
    checks = tuple(Verdict(b.index, r == "ok", r) for b, r in zip(chain, reasons))
    return ChainVerification(all(checks), checks)


# Chain file interchange: a JSON array of block objects with exactly these
# fields; hashes render as 64-char lowercase hex.
_BLOCK_FIELDS = ("index", "timestamp", "prev_hash", "payload", "nonce", "n_qubits", "pow_hash")
_STRING_FIELDS = ("prev_hash", "payload", "pow_hash")


def block_to_dict(block: Block) -> dict:
    return {
        "index": block.index,
        "timestamp": block.timestamp,
        "prev_hash": block.prev_hash.hex(),
        "payload": block.payload,
        "nonce": block.nonce,
        "n_qubits": block.n_qubits,
        "pow_hash": block.pow_hash.hex(),
    }


def block_from_dict(data: dict) -> Block:
    if not isinstance(data, dict) or set(data) != set(_BLOCK_FIELDS):
        raise ChainFormatError(f"block object must have exactly the fields {_BLOCK_FIELDS}")
    for name in _BLOCK_FIELDS:
        # Exact types: a JSON true or 1.5 is not an integer, a list not a string.
        if type(data[name]) is not (str if name in _STRING_FIELDS else int):
            raise ChainFormatError(f"block field {name!r} has the wrong type: {data[name]!r}")
    try:
        data["payload"].encode("utf-8")  # a lone surrogate cannot be hashed
        block = Block(
            index=data["index"],
            timestamp=data["timestamp"],
            prev_hash=bytes.fromhex(data["prev_hash"]),
            payload=data["payload"],
            nonce=data["nonce"],
            n_qubits=data["n_qubits"],
            pow_hash=bytes.fromhex(data["pow_hash"]),
        )
    except ValueError as exc:
        raise ChainFormatError(f"bad block field: {exc}") from exc
    if len(block.prev_hash) != DIGEST_SIZE or len(block.pow_hash) != DIGEST_SIZE:
        raise ChainFormatError("hash fields must be 64 hex characters")
    return block


def save_chain(chain: list[Block], path: str | os.PathLike) -> None:
    """Save atomically: a synced temporary file beside ``path`` is renamed over it."""
    tmp = f"{os.fspath(path)}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            json.dump([block_to_dict(b) for b in chain], fh, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_chain(path: str | os.PathLike) -> list[Block]:
    """Parse a chain file; raises ChainFormatError on any structural problem."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
            raise ChainFormatError(f"chain file does not parse as JSON: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise ChainFormatError("chain file must be a non-empty JSON array of blocks")
    return [block_from_dict(entry) for entry in data]
