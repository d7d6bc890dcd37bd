import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpow.chain as chain_mod
from qpow.chain import (ZERO_HASH, Block, ChainFormatError, MiningExhausted,
                        NoisyBackend, block_from_dict, block_to_dict,
                        check_difficulty, check_structure, load_chain, make_genesis,
                        mine_block, pack_bits, prove, qpow_hash, save_chain,
                        serialize_text, verify_block, verify_chain)
from qpow.circuit import CRX, Gate, ansatz_template, build_ansatz, count_two_qubit_gates
from qpow.hashing import encode_angles, sha3_256
from qpow.noise import NoiseParams, noisy_outcome
from qpow.simulator import most_probable_state, simulate

PREV = sha3_256(b"previous block")


def mined_chain(n_blocks, n_qubits=2, difficulty=1, backend=None, seed=0):
    chain = [make_genesis(n_qubits, timestamp=0)]
    for i in range(n_blocks):
        block, _ = mine_block(chain[-1], f"tx {i + 1}", difficulty, n_qubits,
                              backend=backend, seed=seed + i)
        chain.append(block)
    return chain


def test_serialize_text_concatenation_rule():
    prev = bytes.fromhex("04ca1a782621a440d03b5d87ecff8b68e2cc6124f57957b49a76bca91dede3a8")
    text = serialize_text(4, "Schroedinger paid Einstein 1 qBTC", prev)
    assert text == b"4Schroedinger paid Einstein 1 qBTC" + prev.hex().encode()
    assert text.decode().startswith("4Schroedinger")


def test_serialize_text_zero_case():
    assert serialize_text(0, "", ZERO_HASH) == b"0" + b"0" * 64


def test_serialize_text_validation():
    with pytest.raises(ValueError):
        serialize_text(-1, "x", PREV)
    with pytest.raises(ValueError):
        serialize_text(1 << 32, "x", PREV)
    with pytest.raises(ValueError):
        serialize_text(0, "x", b"short")


@settings(max_examples=60)
@given(
    st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=8, max_size=8),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=8, max_size=8),
    st.binary(min_size=32, max_size=32),
)
def test_serialize_text_injective_at_fixed_payload_length(n1, n2, p1, p2, prev):
    s1 = serialize_text(n1, p1, prev)
    s2 = serialize_text(n2, p2, prev)
    assert (s1 == s2) == ((n1, p1) == (n2, p2))


def test_pack_bits():
    assert pack_bits("1010") == b"\xa0"
    assert pack_bits("10100000") == b"\xa0"
    assert pack_bits("101010101") == b"\xaa\x80"
    assert pack_bits("0" * 4) == b"\x00"
    with pytest.raises(ValueError):
        pack_bits("")
    with pytest.raises(ValueError):
        pack_bits("012")


def test_qpow_hash_deterministic():
    assert qpow_hash(b"determinism check", 4) == qpow_hash(b"determinism check", 4)


# sha3-256 over the h2 of texts "consensus pin {n} {i}", i < 64 (i < 4 at
# n = 16), recorded from the six-op simulator that ran every gate on the full
# state. Any simulator change that alters a single outcome forks consensus.
CONSENSUS_PIN = {
    2: "92096151ee8e0c28d04c8e8811472cbc1f25982dab7ae0ea328362a3d60975dd",
    3: "98628e25cfc29b19f5ed824febd5fd979edb96cda804e110ca01fb683b72a8e2",
    4: "882e2dd60f6cccb38618a03be6809ab67bf9cf0ffed5a9f3ed9f50b257090e30",
    5: "5b31a5ce9789ff8e24934ce9b935d543969d11969d63da9ef90563a7db1d8588",
    6: "4206b0182b6ea16e863ab519b304490692e020f761d0774acbe07aa27dddee9d",
    7: "1514336c9008a43adf9f0e5c4de8bbbe8c6517257c87b3d39572fb18e02e18e4",
    8: "dcdab4359562bfeb6ceae9bf5d92f47027ea6910f61c4d808e6cf80f25d5445e",
    9: "de8da263d1c4dbdb578509beb72020350e12094f30affd4b0363aa3c7d36d304",
    10: "1676b5fc163a535f9b55a8171ff3bf66588aabb0e5d74faaecae70f6001a2446",
    11: "7c7142c47c72f1a263ac314eb8dec5a71c92d9a2edbec21423f210d1b10a4d6e",
    12: "7d5c075f627a7b03fe3ac7335cc0a5d8fe0b9e04cea84d32d4dd159a5d70a4ff",
    13: "3f8790636b3d6f2c606ad473e3c9b797fe83093f972919f67ab024113dd5b806",
    14: "7d500374c8724915efea0dd6e64871f6a52566f728c44ca13d0522f704307bf2",
    16: "abf1211269ec36d6a62e500906e9a7cd15854bc4f9bbe14330aac5287d95b79a",
}


@pytest.mark.parametrize("n_qubits", sorted(CONSENSUS_PIN))
def test_qpow_hash_consensus_pin(n_qubits):
    count = 4 if n_qubits == 16 else 64
    h2s = b"".join(qpow_hash(f"consensus pin {n_qubits} {i}".encode(), n_qubits)
                   for i in range(count))
    assert sha3_256(h2s).hex() == CONSENSUS_PIN[n_qubits]


def test_qpow_hash_avalanche():
    rng = np.random.default_rng(0)
    for _ in range(10):
        text = bytes(rng.bytes(24))
        flipped = bytearray(text)
        flipped[rng.integers(len(text))] ^= 1 << int(rng.integers(8))
        assert qpow_hash(text, 2) != qpow_hash(bytes(flipped), 2)


def test_prove_exposes_every_stage():
    text = b"staged pipeline"
    proof = prove(text, 4)
    assert proof.h1 == sha3_256(text)
    assert proof.circuit.n_qubits == 4
    assert proof.bits == most_probable_state(proof.state).bits
    assert proof.h2 == sha3_256(proof.h1 + pack_bits(proof.bits)) == qpow_hash(text, 4)


@pytest.mark.parametrize("noisy", [False, True])
def test_staged_layers_equal_qpow_hash(noisy):
    # The layer functions chained by hand, as the traced benchmark replay
    # drives them, must give qpow_hash's proof; noisy runs share a seed.
    for n in range(2, 7):
        params = NoiseParams(effective_cnots=40.4, seed=n)
        rng = np.random.default_rng(params.seed)
        backend = NoisyBackend(params) if noisy else None
        crx = sum(kind == CRX for kind, _, _ in ansatz_template(n))
        for i in range(40):
            text = f"layers {n} {i}".encode()
            h1 = sha3_256(text)
            circuit = build_ansatz(encode_angles(h1), n)
            assert (len(circuit.gates), count_two_qubit_gates(circuit)) == (64, crx)
            state = simulate(circuit)
            if noisy:
                bits = noisy_outcome(state, params, params.effective_cnots, rng)
            else:
                bits = most_probable_state(state).bits
            assert sha3_256(h1 + pack_bits(bits)) == qpow_hash(text, n, backend)


def test_qpow_hash_builds_no_gate_records(monkeypatch):
    built = 0
    real_post_init = Gate.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        real_post_init(self)

    monkeypatch.setattr(Gate, "__post_init__", counting)
    qpow_hash(b"template only", 4)
    qpow_hash(b"template only", 4, NoisyBackend(NoiseParams()))
    assert built == 0
    Gate(CRX, 0, 0.5, control=1)
    assert built == 1


def test_check_difficulty_cases():
    assert check_difficulty(PREV, 0)
    low = bytes.fromhex("0f" + "00" * 31)
    high = bytes.fromhex("f0" + "00" * 31)
    assert check_difficulty(low, 1)
    assert not check_difficulty(high, 1)
    assert check_difficulty(ZERO_HASH, 64)
    with pytest.raises(ValueError):
        check_difficulty(PREV, 65)
    with pytest.raises(ValueError):
        check_difficulty(PREV, -1)


def test_check_difficulty_pass_rate_one_sixteenth():
    rng = np.random.default_rng(17)
    trials = 4000
    hits = sum(check_difficulty(rng.bytes(32), 1) for _ in range(trials))
    assert hits / trials == pytest.approx(1 / 16, abs=0.015)


def test_mine_trivial_difficulty_first_nonce():
    genesis = make_genesis(2, timestamp=0)
    block, attempts = mine_block(genesis, "payload", 0, 2, seed=3)
    assert attempts == 1
    assert block.index == 1
    assert block.prev_hash == genesis.pow_hash


def test_mine_verify_round_trip():
    genesis = make_genesis(2, timestamp=0)
    block, attempts = mine_block(genesis, "round trip", 1, 2, seed=4)
    assert attempts >= 1
    assert check_difficulty(block.pow_hash, 1)
    assert verify_block(block, genesis, 1)


def test_mine_exhaustion_raises_with_attempt_count():
    genesis = make_genesis(2, timestamp=0)
    with pytest.raises(MiningExhausted) as excinfo:
        mine_block(genesis, "impossible", 64, 2, seed=0, max_attempts=8)
    assert excinfo.value.attempts == 8


def test_parallel_mining_matches_sequential():
    genesis = make_genesis(2, timestamp=0)
    seq, seq_attempts = mine_block(genesis, "parallel", 1, 2, seed=6, jobs=1)
    par, par_attempts = mine_block(genesis, "parallel", 1, 2, seed=6, jobs=2)
    assert (seq.nonce, seq.pow_hash) == (par.nonce, par.pow_hash)
    assert seq_attempts == par_attempts


def _mine_pinned(n_qubits, n_blocks, seed, backend=None, jobs=1):
    prev = make_genesis(n_qubits, timestamp=0)
    mined = []
    for i in range(n_blocks):
        prev, attempts = mine_block(prev, f"tx {i + 1}", 2, n_qubits, backend=backend,
                                    seed=seed + i, jobs=jobs)
        mined.append((prev.nonce, prev.pow_hash.hex(), attempts))
    return mined


def test_mining_pinned_nonce_stream():
    # Recorded from the two-loop miner: any change to the nonce stream, the
    # noisy backend's draw order or the earliest-hit rule shows up here.
    assert _mine_pinned(4, 3, seed=11) == [
        (898922921, "00c6a66a46c68e75aa98b4a46aa8a9cfa2296e75c80fbabf665c523031e06be5", 288),
        (3898152906, "00d671321f2a3090cba8175124dc439fe3157740f94fa883e05a7bb9a30251c8", 155),
        (1939453579, "00aee1f1b34212b6cbd1be45191dd40da5bf8038cffc83e5cc66eab09c5ffa15", 834),
    ]
    noisy = NoisyBackend(NoiseParams(effective_cnots=40.4, seed=7))
    assert _mine_pinned(4, 3, seed=21, backend=noisy) == [
        (2550911897, "00f4aca6106e2854d44799c36f5354cedae6e15223d7808a23971f4a7e08d4bd", 69),
        (2732754371, "00755263bb1d8c1990d22f75349ab0f01e33812622e3379ebb7b9133d22361b7", 210),
        (2925690814, "00365615c7904a0d314944098c63bc43f7e66bf2f50dff0fbab5baa3116bc3d5", 270),
    ]
    assert _mine_pinned(3, 1, seed=31, jobs=2) == [
        (514822950, "00cb50b169098e7627bd0363d8f2c04253acb986cf2ff317b71ee144458f9489", 542),
    ]


def test_parallel_noisy_mining_rejected():
    genesis = make_genesis(2, timestamp=0)
    with pytest.raises(ValueError):
        mine_block(genesis, "x", 1, 2, backend=NoisyBackend(NoiseParams()), jobs=2)


def test_verify_block_reason_codes():
    genesis = make_genesis(2, timestamp=0)
    block, _ = mine_block(genesis, "verify me", 1, 2, seed=8)

    tampered_payload = Block(block.index, block.timestamp, block.prev_hash,
                             "tampered", block.nonce, block.n_qubits, block.pow_hash)
    assert verify_block(tampered_payload, genesis, 1).reason == "pow-hash"

    wrong_prev = Block(block.index, block.timestamp, sha3_256(b"other"),
                       block.payload, block.nonce, block.n_qubits, block.pow_hash)
    assert verify_block(wrong_prev, genesis, 1).reason == "prev-hash"

    easy, _ = mine_block(genesis, "easy", 0, 2, seed=9)
    if not check_difficulty(easy.pow_hash, 1):
        assert verify_block(easy, genesis, 1).reason == "difficulty"


def test_verify_block_runs_one_simulation(monkeypatch):
    genesis = make_genesis(2, timestamp=0)
    block, _ = mine_block(genesis, "count sims", 1, 2, seed=10)
    calls = 0
    real_simulate = chain_mod.simulate

    def counting(circuit, **kwargs):
        nonlocal calls
        calls += 1
        return real_simulate(circuit, **kwargs)

    monkeypatch.setattr(chain_mod, "simulate", counting)
    assert verify_block(block, genesis, 1)
    assert calls == 1


def test_verify_chain_genesis_only():
    assert verify_chain([make_genesis(2, timestamp=0)], 1).ok


def test_verify_chain_five_blocks():
    chain = mined_chain(5)
    result = verify_chain(chain, 1)
    assert result.ok
    assert result.pass_fraction == 1.0


def test_verify_chain_detects_tampered_nonce():
    chain = mined_chain(3)
    bad = chain[2]
    chain[2] = Block(bad.index, bad.timestamp, bad.prev_hash, bad.payload,
                     (bad.nonce + 1) % (1 << 32), bad.n_qubits, bad.pow_hash)
    result = verify_chain(chain, 1)
    assert not result.ok
    assert result.first_failure.index == 2
    # Later blocks still judged against the stored hashes.
    assert result.checks[3].ok


@pytest.mark.parametrize("position", [0, 2])
def test_verify_chain_out_of_range_nonce_is_a_verdict(position):
    chain = mined_chain(3)
    bad = chain[position]
    chain[position] = Block(bad.index, bad.timestamp, bad.prev_hash, bad.payload,
                            1 << 32, bad.n_qubits, bad.pow_hash)
    result = verify_chain(chain, 1)
    assert not result.ok
    assert result.checks[position] == chain_mod.Verdict(position, False, "nonce-range")
    assert [c.ok for c in result.checks[position + 1:]] == [True] * (3 - position)


@pytest.mark.parametrize("position, n_qubits", [(0, 1), (2, 1), (2, 31), (2, 3)])
def test_verify_chain_n_qubits_is_a_verdict(position, n_qubits):
    # Out of [2, 30] or unlike the genesis: judged before anything is simulated.
    chain = mined_chain(3)
    chain[position] = dataclasses.replace(chain[position], n_qubits=n_qubits)
    result = verify_chain(chain, 1)
    if position == 0:
        assert [c.reason for c in result.checks] == ["n-qubits"] * 4
    else:
        assert [c.reason for c in result.checks] == ["ok", "ok", "n-qubits", "ok"]
        if n_qubits != 3:
            assert verify_block(chain[2], chain[1], 1).reason == "n-qubits"


def test_verify_chain_detects_index_gap():
    chain = mined_chain(2)
    skipped = chain[2]
    chain[2] = Block(7, skipped.timestamp, skipped.prev_hash, skipped.payload,
                     skipped.nonce, skipped.n_qubits, skipped.pow_hash)
    result = verify_chain(chain, 1)
    assert not result.ok
    assert result.first_failure.reason == "index"


def test_verify_chain_rejects_empty():
    with pytest.raises(ValueError):
        verify_chain([], 1)


def test_verify_chain_bad_genesis_structure():
    chain = mined_chain(1)
    result = verify_chain(chain[1:], 1)
    assert not result.ok
    assert result.checks[0].reason == "genesis-structure"


def test_check_structure_runs_no_simulation(monkeypatch):
    chain = mined_chain(4)

    def no_simulation(*args, **kwargs):
        raise AssertionError("check_structure hashed or simulated")

    monkeypatch.setattr(chain_mod, "qpow_hash", no_simulation)
    monkeypatch.setattr(chain_mod, "simulate", no_simulation)
    assert check_structure(chain) == ["ok"] * 5
    chain[0] = dataclasses.replace(chain[0], prev_hash=chain[1].pow_hash)
    chain[1] = dataclasses.replace(chain[1], nonce=-1)
    chain[2] = dataclasses.replace(chain[2], n_qubits=3)
    chain[3] = dataclasses.replace(chain[3], prev_hash=ZERO_HASH)
    chain[4] = dataclasses.replace(chain[4], index=9)
    assert check_structure(chain) == ["genesis-structure", "nonce-range", "n-qubits",
                                      "prev-hash", "index"]
    with pytest.raises(ValueError):
        check_structure([])


def test_chain_file_round_trip(tmp_path):
    chain = mined_chain(2)
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    assert load_chain(path) == chain

    raw = json.loads(path.read_text())
    assert [list(entry.keys()) for entry in raw] == [
        ["index", "timestamp", "prev_hash", "payload", "nonce", "n_qubits", "pow_hash"]
    ] * 3
    assert all(len(entry["pow_hash"]) == 64 for entry in raw)
    assert all(entry["pow_hash"] == entry["pow_hash"].lower() for entry in raw)


def test_save_chain_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "chain.json"
    old = mined_chain(1)
    save_chain(old, path)

    def failing_dump(obj, fh, **kwargs):
        fh.write('[{"index": 0,')
        raise OSError("disk full")

    monkeypatch.setattr(chain_mod.json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        save_chain(mined_chain(2), path)
    monkeypatch.undo()
    assert load_chain(path) == old
    assert [p.name for p in tmp_path.iterdir()] == ["chain.json"]


def test_block_dict_round_trip():
    block = mined_chain(1)[1]
    assert block_from_dict(block_to_dict(block)) == block


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("nonce"),
    lambda d: d.update(pow_hash="zz" * 32),
    lambda d: d.update(pow_hash="ab"),
    lambda d: d.update(extra=1),
    lambda d: d.update(index=True),
    lambda d: d.update(timestamp=0.0),
    lambda d: d.update(nonce=1.9),
    lambda d: d.update(n_qubits="2"),
    lambda d: d.update(payload=["x"]),
    lambda d: d.update(prev_hash=None),
    lambda d: d.update(pow_hash=0),
    lambda d: d.update(payload="\ud800"),
])
def test_block_from_dict_rejects_bad_shapes(mutate):
    data = block_to_dict(make_genesis(2, timestamp=0))
    mutate(data)
    with pytest.raises(ChainFormatError):
        block_from_dict(data)


def test_load_chain_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(ChainFormatError):
        load_chain(path)
    path.write_text("{}")
    with pytest.raises(ChainFormatError):
        load_chain(path)
    path.write_text("[]")
    with pytest.raises(ChainFormatError):
        load_chain(path)


def test_noisy_backend_from_circuit_cnots():
    # With zero error rates the noisy backend collapses to the exact one.
    backend = NoisyBackend(NoiseParams(e_cnot=0.0, e_readout=0.0))
    assert qpow_hash(b"agree", 4, backend) == qpow_hash(b"agree", 4)


def test_genesis_re_derivable():
    genesis = make_genesis(3, timestamp=1234)
    assert genesis.index == 0
    assert genesis.prev_hash == ZERO_HASH
    assert qpow_hash(serialize_text(genesis.nonce, genesis.payload, genesis.prev_hash),
                     genesis.n_qubits) == genesis.pow_hash
