import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpow.analysis as analysis_mod
import qpow.chain as chain_mod
import qpow.cli as cli_mod
from qpow.chain import load_chain, qpow_hash
from qpow.cli import main
from qpow.hashing import sha3_256
from qpow.noise import preset_cnots


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mine_then_verify_round_trip(tmp_path, capsys):
    chain_path = str(tmp_path / "chain.json")
    code, out, _ = run(capsys, "mine", "--chain", chain_path, "--blocks", "3",
                       "--qubits", "2", "--seed", "1")
    assert code == 0
    assert "created genesis block" in out
    assert out.count("attempts") == 3
    chain = load_chain(chain_path)
    assert len(chain) == 4

    code, out, _ = run(capsys, "verify", "--chain", chain_path)
    assert code == 0
    assert "3/3 mined blocks pass" in out


def test_mine_extends_existing_chain(tmp_path, capsys):
    chain_path = str(tmp_path / "chain.json")
    assert run(capsys, "mine", "--chain", chain_path, "--blocks", "1", "--qubits", "2")[0] == 0
    assert run(capsys, "mine", "--chain", chain_path, "--blocks", "2", "--qubits", "2")[0] == 0
    assert [b.index for b in load_chain(chain_path)] == [0, 1, 2, 3]


def test_mine_extends_at_the_chains_qubit_count(tmp_path, capsys, monkeypatch):
    chain_path = str(tmp_path / "chain.json")
    assert run(capsys, "mine", "--chain", chain_path, "--blocks", "1", "--qubits", "2")[0] == 0
    presets = []
    monkeypatch.setattr(cli_mod, "preset_cnots",
                        lambda n, preset: presets.append(n) or preset_cnots(n, preset))
    assert run(capsys, "mine", "--chain", chain_path, "--blocks", "1", "--backend", "noisy",
               "--noise-preset", "ideal")[0] == 0
    assert run(capsys, "mine", "--chain", chain_path, "--blocks", "1")[0] == 0
    assert presets == [2]
    assert [b.n_qubits for b in load_chain(chain_path)] == [2, 2, 2, 2]
    assert run(capsys, "verify", "--chain", chain_path)[0] == 0


def test_mine_rejects_qubits_that_differ_from_the_chain(tmp_path, capsys):
    chain_path = tmp_path / "chain.json"
    assert run(capsys, "mine", "--chain", str(chain_path), "--blocks", "1", "--qubits", "2")[0] == 0
    before = chain_path.read_bytes()
    code, out, err = run(capsys, "mine", "--chain", str(chain_path), "--blocks", "1",
                         "--qubits", "3")
    assert code == 2
    assert "--qubits 3" in err and "attempts" not in out
    assert chain_path.read_bytes() == before


@pytest.mark.parametrize("position, field, value, named, reason", [
    (0, "prev_hash", "11" * 32, 0, "genesis-structure"),
    (2, "index", 7, 7, "index"),
    (2, "prev_hash", "00" * 32, 2, "prev-hash"),
    (2, "n_qubits", 3, 2, "n-qubits"),
    (1, "nonce", -1, 1, "nonce-range"),
])
def test_mine_refuses_a_chain_that_breaks_a_structural_rule(
        tmp_path, capsys, position, field, value, named, reason):
    chain_path = tmp_path / "chain.json"
    assert run(capsys, "mine", "--chain", str(chain_path), "--blocks", "2", "--qubits", "2")[0] == 0
    data = json.loads(chain_path.read_text())
    data[position][field] = value
    chain_path.write_text(json.dumps(data))
    before = chain_path.read_bytes()

    code, out, err = run(capsys, "mine", "--chain", str(chain_path), "--blocks", "1")
    assert code == 2
    assert f"block {named}: {reason}" in err and "attempts" not in out
    assert chain_path.read_bytes() == before
    assert f"block {named}: {reason}" in run(capsys, "verify", "--chain", str(chain_path))[2]


def test_mine_new_chain_over_the_memory_limit_is_refused_before_simulating(
        tmp_path, capsys, monkeypatch):
    chain_path = tmp_path / "chain.json"
    monkeypatch.setattr(analysis_mod, "max_feasible_qubits", lambda: 2)

    def no_simulation(*args, **kwargs):
        raise AssertionError("a genesis over the limit was simulated")

    monkeypatch.setattr(chain_mod, "simulate_batch", no_simulation)
    code, out, err = run(capsys, "mine", "--chain", str(chain_path), "--blocks", "1",
                         "--qubits", "3")
    assert code == 2
    assert "memory" in err and "created genesis" not in out
    assert not chain_path.exists()


def test_mine_zero_blocks_writes_genesis_only(tmp_path, capsys):
    chain_path = str(tmp_path / "genesis.json")
    code, _, _ = run(capsys, "mine", "--chain", chain_path, "--blocks", "0", "--qubits", "2")
    assert code == 0
    chain = load_chain(chain_path)
    assert len(chain) == 1
    assert chain[0].payload == "genesis"
    assert chain[0].nonce == 0


def test_mine_zero_blocks_leaves_an_existing_chain_untouched(tmp_path, capsys):
    chain_path = tmp_path / "chain.json"
    assert run(capsys, "mine", "--chain", str(chain_path), "--blocks", "2", "--qubits", "3")[0] == 0
    chain_path.write_text(json.dumps(json.loads(chain_path.read_text())))
    before = chain_path.read_bytes()
    code, out, _ = run(capsys, "mine", "--chain", str(chain_path), "--blocks", "0")
    assert code == 0
    assert "wrote" not in out
    assert chain_path.read_bytes() == before


def test_mine_deterministic_under_seed(tmp_path, capsys):
    paths = [str(tmp_path / f"chain{i}.json") for i in (0, 1)]
    for path in paths:
        assert run(capsys, "mine", "--chain", path, "--blocks", "2",
                   "--qubits", "2", "--seed", "7")[0] == 0
    chains = [load_chain(p) for p in paths]
    for a, b in zip(*chains):
        assert (a.nonce, a.pow_hash, a.payload) == (b.nonce, b.pow_hash, b.payload)


def test_mining_failure_exit_code(tmp_path, capsys):
    chain_path = str(tmp_path / "hard.json")
    code, _, err = run(capsys, "mine", "--chain", chain_path, "--blocks", "1",
                       "--qubits", "2", "--difficulty", "64", "--max-attempts", "8")
    assert code == 1
    assert "mining failed" in err


def test_mining_failure_on_a_new_chain_keeps_the_blocks_mined_before_it(tmp_path, capsys):
    # Block 1 takes 5 attempts at seed 3; block 2 finds none in 12.
    chain_path = str(tmp_path / "new.json")
    code, out, err = run(capsys, "mine", "--chain", chain_path, "--blocks", "4", "--qubits", "2",
                         "--difficulty", "1", "--max-attempts", "12", "--seed", "3")
    assert code == 1
    assert "mining failed" in err
    assert "block 1:" in out and "wrote 2 blocks" in out
    assert [b.index for b in load_chain(chain_path)] == [0, 1]
    assert run(capsys, "verify", "--chain", chain_path, "--difficulty", "1")[0] == 0


@pytest.mark.parametrize("seed,mined", [(5, 2), (3, 0)])
def test_mining_failure_on_an_existing_chain_keeps_the_blocks_mined_before_it(
        tmp_path, capsys, seed, mined):
    chain_path = tmp_path / "chain.json"
    assert run(capsys, "mine", "--chain", str(chain_path), "--blocks", "4", "--qubits", "2",
               "--seed", "1")[0] == 0
    before = chain_path.read_bytes()
    code, out, err = run(capsys, "mine", "--chain", str(chain_path), "--blocks", "3",
                         "--difficulty", "1", "--max-attempts", "12", "--seed", str(seed))
    assert code == 1
    assert "mining failed" in err
    assert [b.index for b in load_chain(chain_path)] == list(range(5 + mined))
    if mined:
        assert f"wrote {5 + mined} blocks" in out
        assert run(capsys, "verify", "--chain", str(chain_path), "--difficulty", "1")[0] == 0
    else:  # nothing mined, nothing rewritten
        assert "wrote" not in out
        assert chain_path.read_bytes() == before


def test_verify_detects_tampering(tmp_path, capsys):
    chain_path = str(tmp_path / "chain.json")
    run(capsys, "mine", "--chain", chain_path, "--blocks", "2", "--qubits", "2")
    data = json.loads(Path(chain_path).read_text())
    data[1]["payload"] = "rewritten history"
    Path(chain_path).write_text(json.dumps(data))

    code, _, err = run(capsys, "verify", "--chain", chain_path)
    assert code == 1
    assert "block 1" in err
    assert "pow-hash" in err


def test_verify_reports_out_of_range_nonce_per_block(tmp_path, capsys):
    chain_path = str(tmp_path / "chain.json")
    run(capsys, "mine", "--chain", chain_path, "--blocks", "3", "--qubits", "2")
    data = json.loads(Path(chain_path).read_text())
    data[1]["nonce"] = 1 << 40
    Path(chain_path).write_text(json.dumps(data))

    code, out, err = run(capsys, "verify", "--chain", chain_path)
    assert code == 1
    assert "2/3 mined blocks pass" in out
    assert "block 1: nonce-range" in err


@pytest.mark.parametrize("position, n_qubits", [(0, 1), (2, 3)])
def test_verify_reports_bad_qubit_count_per_block(tmp_path, capsys, position, n_qubits):
    chain_path = str(tmp_path / "chain.json")
    run(capsys, "mine", "--chain", chain_path, "--blocks", "3", "--qubits", "2")
    data = json.loads(Path(chain_path).read_text())
    data[position]["n_qubits"] = n_qubits
    Path(chain_path).write_text(json.dumps(data))

    code, out, err = run(capsys, "verify", "--chain", chain_path)
    assert code == 1
    assert f"block {position}: n-qubits" in err


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated although the command was refused")


@pytest.fixture
def n3_chain(tmp_path, capsys):
    chain_path = tmp_path / "chain.json"
    assert run(capsys, "mine", "--chain", str(chain_path), "--blocks", "2", "--qubits", "3")[0] == 0
    return chain_path


def test_verify_refuses_a_chain_over_the_memory_limit_before_simulating(
        n3_chain, capsys, monkeypatch):
    monkeypatch.setattr(analysis_mod, "max_feasible_qubits", lambda: 2)
    monkeypatch.setattr(chain_mod, "simulate_batch", _no_simulation)
    code, out, err = run(capsys, "verify", "--chain", str(n3_chain))
    assert code == 2
    assert "memory" in err and "verification failed" not in err
    assert "mined blocks pass" not in out

    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "--chain", str(n3_chain))
    assert code == 0
    assert "2/2 mined blocks pass" in out


def test_mine_refuses_an_existing_chain_over_the_memory_limit_before_simulating(
        n3_chain, capsys, monkeypatch):
    before = n3_chain.read_bytes()
    monkeypatch.setattr(analysis_mod, "max_feasible_qubits", lambda: 2)
    monkeypatch.setattr(chain_mod, "simulate_batch", _no_simulation)
    code, out, err = run(capsys, "mine", "--chain", str(n3_chain), "--blocks", "1")
    assert code == 2
    assert "memory" in err and "attempts" not in out
    assert n3_chain.read_bytes() == before


def test_hash_refuses_qubits_over_the_memory_limit_before_simulating(capsys, monkeypatch):
    monkeypatch.setattr(analysis_mod, "max_feasible_qubits", lambda: 2)
    monkeypatch.setattr(chain_mod, "simulate_batch", _no_simulation)
    code, out, err = run(capsys, "hash", "x", "--qubits", "3")
    assert code == 2
    assert "memory" in err and out == ""


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_hash_refuses_a_histogram_of_no_shots_before_simulating(tmp_path, capsys, monkeypatch,
                                                                shots):
    monkeypatch.setattr(analysis_mod, "max_feasible_qubits", lambda: 2)
    monkeypatch.setattr(chain_mod, "simulate_batch", _no_simulation)
    out_path = tmp_path / "hist.csv"
    code, out, err = run(capsys, "hash", "abc", "--qubits", "3", "--shots", shots,
                         "--out", str(out_path))
    assert code == 2
    assert "--shots must be >= 1" in err and out == ""
    assert not out_path.exists()

    monkeypatch.undo()
    # Without --out no histogram is drawn, so the shot count is not used.
    assert run(capsys, "hash", "abc", "--qubits", "3", "--shots", shots)[0] == 0


@pytest.mark.parametrize("difficulty", ["-3", "65", "99"])
def test_verify_refuses_an_out_of_range_difficulty_before_simulating(n3_chain, tmp_path, capsys,
                                                                    monkeypatch, difficulty):
    genesis_only = tmp_path / "genesis.json"
    genesis_only.write_text(json.dumps(json.loads(n3_chain.read_text())[:1]))
    monkeypatch.setattr(chain_mod, "simulate_batch", _no_simulation)
    for path in genesis_only, n3_chain:
        code, out, err = run(capsys, "verify", "--chain", str(path), "--difficulty", difficulty)
        assert code == 2
        assert "difficulty must be in [0, 64]" in err and out == ""


@pytest.mark.parametrize("argv, message", [
    pytest.param(("--difficulty", "99"), "difficulty must be in [0, 64]", id="difficulty-99"),
    pytest.param(("--difficulty", "-3"), "difficulty must be in [0, 64]", id="difficulty-minus-3"),
    pytest.param(("--blocks", "-2"), "--blocks must be >= 0", id="blocks-minus-2"),
    pytest.param(("--max-attempts", "0"), "--max-attempts must be >= 1", id="max-attempts-0"),
])
def test_mine_refuses_an_out_of_range_argument_before_writing(n3_chain, tmp_path, capsys,
                                                              monkeypatch, argv, message):
    monkeypatch.setattr(chain_mod, "simulate_batch", _no_simulation)
    new_path = tmp_path / "new.json"
    code, out, err = run(capsys, "mine", "--chain", str(new_path), *argv)
    assert code == 2
    assert message in err
    assert out == "" and not new_path.exists()
    before = n3_chain.read_bytes()
    assert run(capsys, "mine", "--chain", str(n3_chain), *argv)[0] == 2
    assert n3_chain.read_bytes() == before


@pytest.mark.parametrize("command", ["verify", "mine"])
def test_a_chain_file_too_big_to_parse_is_refused_before_parsing(n3_chain, capsys, monkeypatch,
                                                                command):
    before = n3_chain.read_bytes()
    # Parsing needs CHAIN_PARSE_FACTOR times the file; half of this is less.
    monkeypatch.setattr(analysis_mod, "available_memory_bytes",
                        lambda: analysis_mod.CHAIN_PARSE_FACTOR * len(before) * 2 - 2)

    def no_parse(*args, **kwargs):
        raise AssertionError("a chain file over the memory limit was parsed")

    monkeypatch.setattr(cli_mod, "load_chain", no_parse)
    monkeypatch.setattr(chain_mod, "simulate_batch", _no_simulation)
    code, out, err = run(capsys, command, "--chain", str(n3_chain))
    assert code == 2
    assert "memory" in err and "mined blocks pass" not in out and "attempts" not in out
    assert n3_chain.read_bytes() == before

    monkeypatch.setattr(analysis_mod, "available_memory_bytes",
                        lambda: analysis_mod.CHAIN_PARSE_FACTOR * len(before) * 2)
    with pytest.raises(AssertionError, match="parsed"):
        run(capsys, command, "--chain", str(n3_chain))


def test_verify_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--chain", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error" in err


def test_verify_malformed_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("[{]")
    code, _, err = run(capsys, "verify", "--chain", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "mine"])
def test_deeply_nested_json_is_a_format_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, _, err = run(capsys, command, "--chain", str(path))
    assert code == 2
    assert "JSON" in err
    assert path.read_text() == "[" * 100_000


STRUCTURAL_REASONS = ("genesis-structure", "index", "n-qubits", "prev-hash", "nonce-range")
_WRONG_TYPES = [None, True, 1.5, "2", [], {}]
_INTS = [-1, 0, 1, 2, 3, (1 << 32) - 1, 1 << 32, 1 << 40]
_HEX = ["zz" * 32, "00" * 31, "0" * 63, "00" * 32, "AB" * 32]  # bad, short, odd, zero, upper
FIELD_VALUES = {
    "index": _INTS,
    "timestamp": _INTS,
    "nonce": _INTS,
    # Small enough that no example allocates a large state.
    "n_qubits": [-1, 0, 1, 2, 3, 5, 31, 2**40],
    "payload": ["", "tx 9", "\ud800"],
    "prev_hash": _HEX,
    "pow_hash": _HEX,
}


@pytest.fixture(scope="module")
def valid_chain_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("valid") / "chain.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["mine", "--chain", str(path), "--blocks", "3", "--qubits", "3"]) == 0
    return path.read_text()


def _mutate(text, data):
    blocks = json.loads(text)
    kind = data.draw(st.sampled_from(["field", "drop", "add", "swap", "truncate"]))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    i = data.draw(st.integers(0, len(blocks) - 1))
    if kind == "field":
        field = data.draw(st.sampled_from(sorted(FIELD_VALUES)))
        blocks[i][field] = data.draw(st.sampled_from(FIELD_VALUES[field] + _WRONG_TYPES))
    elif kind == "drop":
        del blocks[i]
    elif kind == "add":
        blocks.insert(data.draw(st.integers(0, len(blocks))), dict(blocks[i]))
    else:
        j = data.draw(st.integers(0, len(blocks) - 1))
        blocks[i], blocks[j] = blocks[j], blocks[i]
    return json.dumps(blocks)


def _hashed_blocks(text):
    # What a verdict depends on: everything but the unhashed timestamps.
    try:
        return [{k: v for k, v in b.items() if k != "timestamp"} for b in json.loads(text)]
    except ValueError:
        return None


def _quiet_main(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_chain_files_get_a_verdict_and_mine_only_extends_sound_structure(
        valid_chain_text, tmp_path_factory, data):
    mutant = _mutate(valid_chain_text, data)
    path = str(tmp_path_factory.getbasetemp() / "mutant.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mutant)

    # Only a mutant that is still a prefix of the valid chain, up to
    # timestamps, may verify.
    blocks = _hashed_blocks(mutant)
    prefix = blocks is not None and blocks == _hashed_blocks(valid_chain_text)[:len(blocks)]
    code, _ = _quiet_main("verify", "--chain", path)
    assert code in (1, 2) or (code == 0 and prefix)
    if _quiet_main("mine", "--chain", path, "--blocks", "0")[0] == 0:
        code, err = _quiet_main("verify", "--chain", path)
        assert code in (0, 1)
        assert not any(f": {reason}" in err for reason in STRUCTURAL_REASONS)


def test_noisy_mine_then_verify_reports_fraction(tmp_path, capsys):
    chain_path = str(tmp_path / "noisy.json")
    code, _, _ = run(capsys, "mine", "--chain", chain_path, "--blocks", "8",
                     "--backend", "noisy", "--noise-preset", "transpiled-quito",
                     "--qubits", "4", "--seed", "3")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--chain", chain_path)
    assert code in (0, 1)
    assert "mined blocks pass" in out


def test_hash_trace_is_deterministic_and_consistent(capsys):
    code1, out1, _ = run(capsys, "hash", "hello world", "--qubits", "4")
    code2, out2, _ = run(capsys, "hash", "hello world", "--qubits", "4")
    assert code1 == code2 == 0
    assert out1 == out2

    lines = dict(line.split(": ", 1) for line in out1.strip().splitlines())
    assert lines["h1"] == sha3_256(b"hello world").hex()
    assert bytes.fromhex(lines["h2"]) == qpow_hash(b"hello world", 4)
    assert len(lines["angles (pi/8 units)"].split()) == 64
    assert set(lines["outcome"].split()[0]) <= {"0", "1"}


def test_hash_dump_circuit(capsys):
    code, out, _ = run(capsys, "hash", "dump me", "--dump-circuit")
    assert code == 0
    gate_lines = [l for l in out.splitlines() if l.split(" ", 1)[0] in ("rx", "rz", "crx")]
    assert len(gate_lines) == 64


def test_hash_histogram_output(tmp_path, capsys):
    out_path = tmp_path / "hist.csv"
    code, out, _ = run(capsys, "hash", "histogram", "--shots", "5000",
                       "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "bitstring,count"
    counts = [int(l.split(",")[1]) for l in lines[1:]]
    assert sum(counts) == 5000


def test_bench_smoke_csv(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, _, err = run(capsys, "bench", "--min-qubits", "2", "--max-qubits", "4",
                       "--reps", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,wall_time_s,reps"
    assert len(lines) == 4
    assert "fitted log10 slope" in err


def test_bench_rejects_bad_range(capsys):
    code, _, err = run(capsys, "bench", "--min-qubits", "5", "--max-qubits", "2")
    assert code == 2


def test_bench_rejects_oversized_n(capsys):
    code, _, err = run(capsys, "bench", "--min-qubits", "60", "--max-qubits", "60")
    assert code == 2
    assert "memory" in err


def test_advantage_csv_crossover_row(capsys):
    code, out, err = run(capsys, "advantage", "--min-qubits", "2", "--max-qubits", "25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,classical_time_model,quantum_time_model,speed_ratio,accuracy,advantage"
    row20 = next(l for l in lines[1:] if l.startswith("20,"))
    assert float(row20.split(",")[3]) == pytest.approx(1.0, abs=0.01)
    assert "speed ratio reaches 1 at n = 20" in err
    assert "advantage stays below 1" in err
