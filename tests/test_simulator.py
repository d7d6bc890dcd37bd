import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qpow.circuit import CRX, RX, RZ, Circuit, Gate, ansatz_template, build_ansatz
from qpow.hashing import encode_angles, sha3_256
from qpow.simulator import (_COLUMNS, _REAL, BATCH_BYTES, PLAN_CACHE, READOUT_CHUNK, TIE_TOL,
                            _plan, _views, batch_rows,
                            histogram_csv, most_probable_state, num_qubits, outcome_indices,
                            probabilities, sample_counts, simulate, simulate_batch, to_basis)

from oracles import (argmax_exhaustive, outcome_index, simulate_dense,
                     simulate_product_prefix)


def ansatz_from(seed_text: bytes, n: int):
    return build_ansatz(encode_angles(sha3_256(seed_text)), n)


def test_empty_circuit_is_identity():
    state = simulate(Circuit(3, ()))
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.array_equal(state, expected)


def test_rx_pi_is_pauli_x_up_to_phase():
    state = simulate(Circuit(2, (Gate(RX, 0, math.pi),)))
    probs = np.abs(state) ** 2
    # Qubit 0 is the most significant bit, so flipping it lands on index 2.
    assert probs[2] == pytest.approx(1.0, abs=1e-12)
    assert most_probable_state(state).bits == "10"


def test_rz_only_leaves_probabilities():
    gates = tuple(Gate(RZ, q, 1.23 + q) for q in range(3))
    state = simulate(Circuit(3, gates))
    assert abs(state[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_crx_inactive_control_is_identity():
    # Control stays |0>, so probabilities cannot move.
    state = simulate(Circuit(2, (Gate(CRX, 1, 2.5, control=0),)))
    assert abs(state[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_crx_active_control_rotates_target():
    gates = (Gate(RX, 0, math.pi), Gate(CRX, 1, math.pi, control=0))
    state = simulate(Circuit(2, gates))
    assert most_probable_state(state).bits == "11"


@pytest.mark.parametrize("seed", [b"a", b"b", b"c", b"d"])
def test_matches_dense_matrix_chain_oracle(seed):
    circuit = ansatz_from(seed, 4)
    np.testing.assert_allclose(simulate(circuit), simulate_dense(circuit), atol=1e-9)


def test_argmax_matches_exhaustive_enumeration():
    for i in range(20):
        circuit = ansatz_from(f"argmax {i}".encode(), 3)
        state = simulate(circuit)
        assert most_probable_state(state).bits == argmax_exhaustive(state)


def test_readout_is_a_function_of_the_mathematics():
    # Ties in the top probability are common from n = 8 on; plain argmax then
    # follows rounding, so an equivalent simulator would fork the outcome.
    argmax_differs = 0
    for n, digests in ((8, 400), (10, 350), (12, 300)):
        for i in range(digests):
            circuit = ansatz_from(f"readout {n} {i}".encode(), n)
            state = simulate(circuit)
            idx = int(most_probable_state(state).bits, 2)
            other = simulate_product_prefix(circuit)
            assert idx == outcome_index(other), (n, i)
            if n == 8 and i < 100:
                assert idx == outcome_index(simulate_dense(circuit)), (n, i)
            argmax_differs += np.argmax(np.abs(state) ** 2) != np.argmax(np.abs(other) ** 2)
    assert argmax_differs > 0


# Hand-built circuits around the end of the single-qubit prefix that
# simulate folds into a product state before the first crx.
PREFIX_BOUNDARY_CIRCUITS = {
    "empty": Circuit(3, ()),
    "no-crx": Circuit(3, (Gate(RX, 0, 0.3), Gate(RZ, 1, 1.1), Gate(RX, 2, -2.0),
                          Gate(RZ, 0, 0.7), Gate(RX, 1, 2.9))),
    "crx-first": Circuit(3, (Gate(CRX, 2, 1.3, control=0), Gate(RX, 0, 0.8),
                             Gate(CRX, 1, -0.6, control=0), Gate(RZ, 1, 0.4))),
    "some-qubits": Circuit(4, (Gate(RX, 1, 1.9), Gate(RZ, 3, 0.5), Gate(RX, 3, -1.2),
                               Gate(CRX, 0, 2.2, control=1), Gate(CRX, 2, 0.9, control=3),
                               Gate(RX, 2, 0.1))),
    "one-qubit-many": Circuit(3, (Gate(RX, 1, 0.4), Gate(RZ, 1, 1.7), Gate(RX, 1, -2.5),
                                  Gate(RZ, 1, 0.2), Gate(RX, 1, 3.0),
                                  Gate(CRX, 0, 1.0, control=1), Gate(RX, 1, 0.6))),
    "n2": Circuit(2, (Gate(RX, 0, 1.4), Gate(RZ, 1, 0.6), Gate(RX, 1, 2.1),
                      Gate(CRX, 1, 0.9, control=0), Gate(CRX, 0, -1.7, control=1),
                      Gate(RZ, 0, 0.3))),
}


@pytest.mark.parametrize("name", sorted(PREFIX_BOUNDARY_CIRCUITS))
def test_prefix_boundary_matches_dense_oracle(name):
    circuit = PREFIX_BOUNDARY_CIRCUITS[name]
    np.testing.assert_allclose(simulate(circuit, check_norm=True), simulate_dense(circuit),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_random_angle_ansatz_matches_dense_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        circuit = build_ansatz(rng.uniform(-2 * math.pi, 2 * math.pi, 64), n)
        np.testing.assert_allclose(simulate(circuit, check_norm=True), simulate_dense(circuit),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_gate_streams_match_dense_oracle(n):
    # Streams of every kind in random order, so the prefix ends anywhere.
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        gates = []
        for _ in range(int(rng.integers(0, 16))):
            kind = (RX, RZ, CRX)[int(rng.integers(3))]
            target, control = (int(q) for q in rng.choice(n, 2, replace=False))
            gates.append(Gate(kind, target, float(rng.uniform(-7, 7)),
                              control if kind == CRX else None))
        circuit = Circuit(n, gates)
        np.testing.assert_allclose(simulate(circuit, check_norm=True), simulate_dense(circuit),
                                   rtol=0, atol=1e-12)


def planned_case(n: int, name: str) -> Circuit:
    """Hand-built runs that exercise each part of a template's plan."""
    rng = np.random.default_rng(sum(name.encode()) + 7 * n)

    def angle():
        return float(rng.uniform(-2 * math.pi, 2 * math.pi))

    def crx(control, *targets):
        return [Gate(CRX, t, angle(), control=control) for t in targets]

    def one(kind, *targets):
        return [Gate(kind, t, angle()) for t in targets]

    last = n - 1
    body = {
        # Depth > 1: one axis's matrix is a product of several gates.
        "repeated-in-stretch": crx(last, 0) + one(RX, 1) + one(RZ, 1, 2) + one(RX, 1, 1)
        + one(RZ, 1) + crx(0, 1),
        "repeated-in-crx-run": crx(last, 2, 0, 2, 1, 2, 0),
        # Depths 1 to 4 in one circuit, in stretches and in crx runs.
        "mixed-depths": crx(1, 0, 2, 0, 3) + one(RZ, 0) + one(RX, 3, 3, 3, 3) + one(RZ, 1)
        + crx(last, 0, 1, 0, 1, 0, 2),
        "one-gate-runs": crx(0, 1) + one(RX, 2) + crx(last, 1) + one(RZ, 0) + crx(2, last)
        + crx(0, 2),
        "same-control-split": crx(2, 0, 1) + one(RZ, last) + crx(2, 3, last) + one(RX, 0)
        + crx(2, 1),
        "control-0": crx(0, *range(1, n)) + one(RX, 0) + crx(0, *range(n - 1, 0, -1)),
        "control-last": crx(last, *range(last)) + one(RZ, last) + crx(last, *range(last)),
    }[name]
    spread = [Gate(kind, q, angle()) for q in range(n) for kind in (RX, RZ)]
    return Circuit(n, spread + body)


PLANNED_CASES = ["repeated-in-stretch", "repeated-in-crx-run", "mixed-depths",
                 "one-gate-runs", "same-control-split", "control-0", "control-last"]


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("name", PLANNED_CASES)
def test_planned_runs_match_dense_oracle(name, n):
    circuit = planned_case(n, name)
    np.testing.assert_allclose(simulate(circuit, check_norm=True), simulate_dense(circuit),
                               rtol=0, atol=1e-12)


def test_n2_ansatz_matches_dense_oracle():
    # 30 runs of one to four gates after a four-gate prefix.
    for i in range(20):
        circuit = ansatz_from(f"n2 plan {i}".encode(), 2)
        np.testing.assert_allclose(simulate(circuit, check_norm=True), simulate_dense(circuit),
                                   rtol=0, atol=1e-12)


def test_plan_cache_stays_bounded():
    # 3000 distinct templates of five rx/rz gates and one crx on 3 qubits.
    kinds = [(kind, q) for kind in (RX, RZ) for q in range(3)]
    for i in range(3000):
        digits = [i // 6 ** k % 6 for k in range(5)]
        gates = [Gate(*kinds[d], 0.1 * k + 0.3) for k, d in enumerate(digits)]
        circuit = Circuit(3, gates + [Gate(CRX, i % 3, 0.7, control=(i + 1) % 3)])
        state = simulate(circuit)
        assert _plan.cache_info().currsize <= PLAN_CACHE
    np.testing.assert_allclose(state, simulate_dense(circuit), rtol=0, atol=1e-12)
    # An ansatz template still plans once and then hits.
    hits = _plan.cache_info().hits
    simulate(ansatz_from(b"after many", 3))
    simulate(ansatz_from(b"after many again", 3))
    assert _plan.cache_info().hits == hits + 1


def fused_case(n: int, name: str) -> Circuit:
    """Hand-built crx runs, after an rx/rz on every qubit."""
    rng = np.random.default_rng(sum(name.encode()) + n)

    def angle():
        return float(rng.uniform(-2 * math.pi, 2 * math.pi))

    def crx(control, *targets):
        return [Gate(CRX, t, angle(), control=control) for t in targets]

    last = n - 1
    mid = n // 2
    body = {
        "broken-by-rz": crx(last, 0, 1, 2) + [Gate(RZ, 3, angle())] + crx(last, 3, 4, 5),
        "broken-by-rx": crx(last, 0, 1, 2) + [Gate(RX, 1, angle())] + crx(last, 1, 2, 3),
        "repeated-target": crx(last, 2, 5, 2, 3, 2, 5),
        # At n = 10 target 9 is the control, so it is left out.
        "descending-gapped": crx(last, *(t for t in (n - 3, 9, 7, 6, 3, 0) if t != last)),
        "control-0": crx(0, 1, 2, 3, 4, 5, last),
        "control-middle": crx(mid, *range(mid - 3, mid), *range(mid + 1, mid + 4)),
        "control-last": crx(last, *range(last)),
        "length-1": crx(mid, 2),
        "runs-back-to-back": crx(last, 0, 1, 2, 3, 4) + crx(last - 1, 0, 1, 2, last),
    }[name]
    spread = [Gate(kind, q, angle()) for q in range(n) for kind in (RX, RZ)]
    return Circuit(n, spread + body)


FUSED_CASES = ["broken-by-rz", "broken-by-rx", "repeated-target", "descending-gapped",
               "control-0", "control-middle", "control-last", "length-1",
               "runs-back-to-back"]


def assert_matches_product_prefix_oracle(circuit):
    state = simulate(circuit, check_norm=True)
    other = simulate_product_prefix(circuit)
    np.testing.assert_allclose(state, other, rtol=0, atol=1e-12)
    assert int(most_probable_state(state).bits, 2) == outcome_index(other)


@pytest.mark.parametrize("n", [10, 11, 14, 15])
@pytest.mark.parametrize("name", FUSED_CASES)
def test_fused_crx_runs_match_product_prefix_oracle(name, n):
    assert_matches_product_prefix_oracle(fused_case(n, name))


@pytest.mark.parametrize("n", [14, 15, 16])
def test_fused_random_angle_ansatz_matches_product_prefix_oracle(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(2):
        assert_matches_product_prefix_oracle(
            build_ansatz(rng.uniform(-2 * math.pi, 2 * math.pi, 64), n))


def frame_cases():
    """(template, n) of every ansatz template for n = 2..16 and of the
    hand-built planned and fused cases."""
    cases = [(ansatz_template(n), n) for n in range(2, 17)]
    cases += [(planned_case(n, name).template, n) for name in PLANNED_CASES for n in (4, 5, 6)]
    cases += [(fused_case(n, name).template, n) for name in FUSED_CASES for n in (10, 11)]
    return cases


def crx_step_matrices(template, n, angles):
    # Per crx step, its complex Kronecker stack and the stack its product
    # uses (a float copy for a real step).
    plan = _plan(template, n)
    every_form = dataclasses.replace(plan, kron_spans=tuple(
        (start, groups, (True, True, True)) for start, groups, _ in plan.kron_spans))
    _, krons = every_form.matrices(angles)
    _, used = plan.matrices(angles)
    return [(krons[_COLUMNS][count][index], used[form][count][index])
            for run in plan.runs if run.control is not None
            for count, index, _, form, _, _ in run.steps]


def test_crx_kronecker_matrices_are_real_in_the_frame():
    # In the frame F rx is a real rotation and crx's control projectors are
    # diagonal, so every crx run's matrices are real, for any angles.
    rng = np.random.default_rng(5)
    for template, n in frame_cases():
        steps = crx_step_matrices(template, n, rng.uniform(-7, 7, (3, len(template))))
        assert steps, (template, n)
        for stack, used in steps:
            assert np.all(stack.imag == 0), (template, n)
            if used.dtype == np.float64:
                assert np.array_equal(used, stack.real)
    # From n = 8 on the ansatz's crx runs have real columnwise products.
    forms = {form for run in _plan(ansatz_template(12), 12).runs for _, _, _, form, _, _ in run.steps}
    assert _REAL in forms


def test_frame_rows_convert_back_to_simulate():
    rng = np.random.default_rng(6)
    for template, n in frame_cases():
        angles = rng.uniform(-7, 7, (3, len(template)))
        states, scratch, order = simulate_batch(template, n, angles)
        for row, state in zip(angles, to_basis(states, order, scratch)):
            np.testing.assert_allclose(state, simulate(Circuit._of(n, template, tuple(row))),
                                       rtol=0, atol=1e-12)


def test_to_basis_multiplies_by_powers_of_minus_i():
    for n in range(1, 8):
        expected = np.array([(-1j) ** bin(i).count("1") for i in range(1 << n)])
        assert np.array_equal(to_basis(np.ones((2, 1 << n), dtype=complex)), [expected] * 2)


def plan_cases():
    """(template, n) of every ansatz template for n = 2..22 and of the
    hand-built planned and fused cases."""
    cases = [(ansatz_template(n), n) for n in range(2, 23)]
    cases += [(planned_case(n, name).template, n) for name in PLANNED_CASES for n in (4, 5, 6)]
    cases += [(fused_case(n, name).template, n) for name in FUSED_CASES for n in (10, 11, 14, 15)]
    return cases


def test_every_step_and_copy_reshapes_its_views_without_copying():
    # A reshape that copied would leave a product's result in a temporary.
    # np.empty touches no page, so the blocks cost nothing even at n = 22.
    for template, n in plan_cases():
        plan = _plan(template, n)
        states, scratch = np.empty((2, 3 if n < 15 else 1, 1 << n), dtype=complex)
        views = _views(plan, states, scratch)
        for run in plan.runs:
            for _, _, shape, _, src, dst in run.steps:
                np.reshape(views[src], shape, copy=False)
                np.reshape(views[dst], shape, copy=False)
            if run.copy_in is not None:
                dst, src = (views[i] for i in run.copy_in)
                np.reshape(dst, src.shape, copy=False)
            if run.copy_out is not None:
                dst, src = (views[i] for i in run.copy_out)
                np.reshape(src, dst.shape, copy=False)


def test_no_product_writes_over_its_own_operand():
    # NumPy reads an operand that overlaps its output from a temporary copy,
    # which a half of 2^(n-1) amplitudes would put beyond the block.
    for template, n in plan_cases():
        plan = _plan(template, n)
        states, scratch = np.empty((2, 3 if n < 15 else 1, 1 << n), dtype=complex)
        views = _views(plan, states, scratch)
        for run in plan.runs:
            for _, _, _, _, src, dst in run.steps:
                assert not np.may_share_memory(views[src], views[dst]), (n, run)


def test_simulation_keeps_within_its_block():
    # At n = 16 the ansatz's last crx run is one product on a half of 2^15
    # amplitudes; a temporary copy of that half would add 512 KiB.
    n = 16
    template = ansatz_template(n)
    angles = np.random.default_rng(3).uniform(-7, 7, (1, len(template)))
    simulate_batch(template, n, angles)  # plans the template
    tracemalloc.start()
    try:
        simulate_batch(template, n, angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (32 << n) < (8 << n) // 2


def gathered_runs(n):
    crx = [run for run in _plan(ansatz_template(n), n).runs if run.control is not None]
    return sum(run.copy_in is not None for run in crx), len(crx)


def test_crx_runs_gather_unless_their_targets_follow_the_control():
    # Every qubit is a crx control up to n = 7, so the qubits stay in
    # ascending order; from n = 8 on the controls lead.
    assert all(_plan(ansatz_template(n), n).order is None for n in range(2, 8))
    assert _plan(ansatz_template(12), 12).order.qubits == (11, 10, 9, 8, *range(8))
    assert _plan(ansatz_template(20), 20).order.qubits == (19, 18, *range(18))
    assert gathered_runs(4) == (6, 12)
    assert gathered_runs(12) == (2, 4)
    assert [n for n in range(17, 31) if gathered_runs(n)[0]] == []
    # Controls on axes 0 and 1 of 6: the run of control 3 with a target on
    # axis 0 gathers, also when that is its only target.
    plan = _plan(controls_inside_case().template, 6)
    assert [(run.control, run.copy_in is not None) for run in plan.runs
            if run.control is not None] == [(1, False), (3, True), (1, False), (3, True)]


def controls_inside_case() -> Circuit:
    """Crx runs whose controls, 1 and 3, are neither the first nor the last
    qubits, one of them with its only target before its control's axis."""
    rng = np.random.default_rng(11)
    spread = [Gate(kind, q, float(rng.uniform(-7, 7))) for q in range(6) for kind in (RX, RZ)]
    runs = [(1, (0, 2, 3)), (3, (0, 1, 4, 5)), (1, (4, 5)), (3, (1,))]
    return Circuit(6, spread + [Gate(CRX, t, float(rng.uniform(-7, 7)), control=c)
                                for c, targets in runs for t in targets])


def test_controls_inside_case_matches_dense_oracle():
    circuit = controls_inside_case()
    assert _plan(circuit.template, 6).order.qubits == (1, 3, 0, 2, 4, 5)
    np.testing.assert_allclose(simulate(circuit, check_norm=True), simulate_dense(circuit),
                               rtol=0, atol=1e-12)


def one_array_index(state):
    # The readout rule over a whole basis-order row; a row without a tie (a
    # NaN maximum) reads 0.
    probs = probabilities(state)
    return int(np.concatenate([np.flatnonzero(probs >= probs.max() * (1.0 - TIE_TOL)), [0]])[0])


def stored_index(order, index, n):
    return sum((index >> (n - 1 - q) & 1) << (n - 1 - k) for k, q in enumerate(order.qubits))


def tied_rows(order, n, rng):
    """Rows of basis-order states: one tie; two in one block of fixed control
    bits; two in different blocks, the lower basis index stored later; three
    with rotated phases, across blocks; a near tie just past the rule's gap
    before the maximum; a NaN row."""
    size = 1 << n

    def block(index):
        return 0 if order is None else stored_index(order, index, n) // order.block

    def stored(index):
        return index if order is None else stored_index(order, index, n)

    def pair(want):
        while True:
            a, b = sorted(int(i) for i in rng.choice(size, 2, replace=False))
            if want(a, b):
                return a, b

    same = pair(lambda a, b: block(a) == block(b))
    crossed = pair(lambda a, b: block(a) != block(b) and stored(a) > stored(b)) if order else same
    rows = rng.uniform(0.5, 1.0, (6, size)) * np.exp(2j * math.pi * rng.random((6, size))) / 1e3
    peak = 0.1 * np.exp(0.3j)
    rows[0, rng.integers(size)] = peak
    rows[1, list(same)] = peak
    rows[2, list(crossed)] = peak, peak * 1j
    for k, index in enumerate(rng.choice(size, 3, replace=False)):
        rows[3, index] = peak * 1j ** k
    rows[4, crossed[0]] = peak * math.sqrt(1 - 3 * TIE_TOL)
    rows[4, crossed[1]] = peak
    rows[5, 7] = math.nan
    return rows


def to_stored(states, order):
    # States in the order simulate_batch stores them (the inverse of
    # to_basis's permutation; the frame is left out, since the readout reads
    # only probabilities).
    if order is None:
        return states.copy()
    n = states.shape[1].bit_length() - 1
    axes = (0,) + tuple(1 + q for q in order.qubits)
    return np.ascontiguousarray(states.reshape((-1,) + (2,) * n).transpose(axes)).reshape(
        states.shape)


@pytest.mark.parametrize("template, n", [
    pytest.param(ansatz_template(4), 4, id="ansatz-4"),
    pytest.param(ansatz_template(12), 12, id="ansatz-12"),
    pytest.param(ansatz_template(17), 17, id="ansatz-17-chunked"),
    pytest.param(controls_inside_case().template, 6, id="controls-inside"),
])
def test_readout_in_stored_order_keeps_the_lowest_basis_index(template, n):
    order = _plan(template, n).order
    rows = tied_rows(order, n, np.random.default_rng(n))
    states = to_stored(rows, order)
    converted = to_basis(states.copy(), order, np.empty_like(states))
    expected = [one_array_index(row) for row in converted]
    assert expected == [one_array_index(row) for row in rows]
    assert expected[5] == 0
    if order is not None:  # the rule, not the stored order, picks row 2's outcome
        assert stored_index(order, expected[2], n) > min(
            stored_index(order, int(i), n) for i in np.flatnonzero(np.abs(rows[2]) > 0.05))
    assert outcome_indices(states, order=order).tolist() == expected
    assert outcome_indices(states, np.empty_like(states), order).tolist() == expected
    for row in range(len(states)):
        assert outcome_indices(states[row:row + 1], order=order).tolist() == [expected[row]]


def one_array_readout(state):
    probs = probabilities(state)
    idx = int(np.flatnonzero(probs >= probs.max() * (1.0 - TIE_TOL))[0])
    return format(idx, f"0{num_qubits(state)}b"), float(probs[idx])


def chunked_readout_case(name: str) -> np.ndarray:
    edge = READOUT_CHUNK
    rng = np.random.default_rng(17)
    state = (rng.uniform(0.5, 1.0, 2 * edge) * np.exp(2j * math.pi * rng.random(2 * edge)))
    state /= 1000.0
    peak = 0.1 * np.exp(0.3j)
    if name == "tie-across-edge":
        state[edge - 1] = state[edge] = peak
    elif name == "tie-across-edge-rotated":
        state[edge - 1], state[edge] = peak, peak * 1j
    elif name == "max-in-last-chunk":
        state[-1] = peak
    elif name == "near-tie-before-max":
        state[5] = peak * math.sqrt(1 - 0.4 * TIE_TOL)
        state[edge + 7] = peak
    elif name == "gap-before-max":
        state[5] = peak * math.sqrt(1 - 3 * TIE_TOL)
        state[edge + 7] = peak
    elif name == "max-in-first-chunk":  # with a runner-up above the last chunk
        state[1] = peak * 0.9999
        state[3] = peak
        state[edge + 3] = peak * 0.999
    return state


@pytest.mark.parametrize("name", ["tie-across-edge", "tie-across-edge-rotated",
                                  "max-in-last-chunk", "near-tie-before-max",
                                  "gap-before-max", "max-in-first-chunk"])
def test_chunked_readout_matches_one_array_rule(name):
    state = chunked_readout_case(name)
    assert num_qubits(state) == 17 and len(state) > READOUT_CHUNK
    outcome = most_probable_state(state)
    assert (outcome.bits, outcome.probability) == one_array_readout(state)


def top_two_gap(state: np.ndarray) -> float:
    second, first = np.partition(probabilities(state), -2)[-2:]
    return (first - second) / first


@pytest.mark.parametrize("n, rows", [(2, 37), (4, 13), (8, 11), (12, 7)])
def test_batched_outcomes_equal_scalar_outcomes(n, rows):
    # 1000 digests per n in batches that do not divide it, so the last batch
    # is short; the scalar path is simulate and most_probable_state.
    digests = [sha3_256(f"batch {n} {i}".encode()) for i in range(1000)]
    angles = np.array([encode_angles(d) for d in digests])
    template = ansatz_template(n)
    near_ties = 0
    for lo in range(0, len(digests), rows):
        states, scratch, order = simulate_batch(template, n, angles[lo:lo + rows])
        # The batch's states are in the simulator's qubit order and frame F;
        # simulate converts back.
        converted = to_basis(states.copy(), order, np.empty_like(states))
        for row, state in enumerate(converted):
            circuit = build_ansatz(angles[lo + row], n)
            scalar = simulate(circuit)
            np.testing.assert_allclose(state, scalar, rtol=0, atol=1e-12)
            near_ties += top_two_gap(scalar) < 1e-6
        expected = [int(most_probable_state(state).bits, 2) for state in converted]
        # outcome_indices overwrites the scratch with the probabilities.
        assert outcome_indices(states, scratch, order).tolist() == expected
        assert outcome_indices(states, order=order).tolist() == expected
    assert len(digests) % rows
    if n == 12:
        assert near_ties > 100  # the rule decides these, not rounding


def test_batch_norm_check_is_per_row():
    template = ansatz_template(3)
    angles = np.array([encode_angles(sha3_256(b"norm row %d" % i)) for i in range(5)])
    simulate_batch(template, 3, angles, check_norm=True)
    angles[3, 4] = math.nan  # the first crx of row 3
    with pytest.raises(RuntimeError, match="norm of row 3"):
        simulate_batch(template, 3, angles, check_norm=True)


def test_batch_rows_keep_a_batch_within_its_bytes():
    rows = {n: batch_rows(ansatz_template(n), n) for n in range(2, 21)}
    for n, count in rows.items():
        assert count == 1 or count * _plan(ansatz_template(n), n).row_bytes <= BATCH_BYTES
    assert rows[12] == 8
    # From n = 15 on no two circuits fit, and every batch is one circuit.
    assert [n for n, count in rows.items() if count == 1] == list(range(15, 21))


def ansatz_with_nan_at(index: int):
    # Gate and build_ansatz refuse a NaN angle; Circuit._of does not check.
    angles = [0.5] * 64
    angles[index] = math.nan
    return Circuit._of(2, ansatz_template(2), tuple(angles))


@pytest.mark.parametrize("gates", [ansatz_with_nan_at(0),   # the first rx
                                   ansatz_with_nan_at(4)])  # the first crx
def test_norm_check_rejects_non_finite_state(gates):
    with pytest.raises(RuntimeError, match="norm"):
        simulate(gates, check_norm=True)


def test_norm_checked_simulation_passes():
    for i in range(10):
        simulate(ansatz_from(f"norm {i}".encode(), 5), check_norm=True)


def test_most_probable_ground_state():
    outcome = most_probable_state(simulate(Circuit(4, ())))
    assert outcome.bits == "0000"
    assert outcome.probability == pytest.approx(1.0)


def test_tie_breaks_to_lowest_index():
    state = np.zeros(8, dtype=complex)
    state[3] = state[5] = 1 / math.sqrt(2)
    assert most_probable_state(state).bits == "011"
    uniform = np.full(4, 0.5, dtype=complex)
    assert most_probable_state(uniform).bits == "00"


def test_num_qubits_validation():
    with pytest.raises(ValueError):
        num_qubits(np.zeros(6, dtype=complex))
    with pytest.raises(ValueError):
        num_qubits(np.zeros(1, dtype=complex))


def test_sample_counts_ground_state():
    counts = sample_counts(simulate(Circuit(3, ())), shots=500, seed=1)
    assert counts == {"000": 500}


def test_sample_counts_deterministic_under_seed():
    state = simulate(ansatz_from(b"sampling", 4))
    assert sample_counts(state, 2000, seed=9) == sample_counts(state, 2000, seed=9)


def test_sample_counts_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample_counts(simulate(Circuit(2, ())), shots=0)


def test_sampled_frequencies_track_born_probabilities():
    shots = 20000
    state = simulate(ansatz_from(b"frequencies", 4))
    probs = np.abs(state) ** 2
    counts = sample_counts(state, shots, seed=3)
    for idx, p in enumerate(probs):
        observed = counts.get(format(idx, "04b"), 0)
        sigma = math.sqrt(max(p * (1 - p) * shots, 1.0))
        assert abs(observed - p * shots) < 4 * sigma


def test_histogram_csv_format():
    csv = histogram_csv({"01": 3, "00": 7})
    assert csv == "bitstring,count\n00,7\n01,3\n"
