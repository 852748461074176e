import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from random_matrices import haar_unitary, random_density

from gentleleak import linalg
from gentleleak.cloning import (
    CloningBoundResult,
    CloningSweep,
    cloning_lower_bound,
    lower_bound_sweep,
    min_feasible_p2,
    quadratic_coefficients,
    region_disagreement_report,
    region_quadratic_form,
    region_sqrt_form,
    tradeoff_p2,
)
from gentleleak.leakage import (
    LeakageEstimate,
    depolarized_leakage,
    maximal_quantum_leakage,
    sibson_infinity,
)
from gentleleak.linalg import (
    SchemaError, as_complex_matrix, as_hermitian, matrix_to_json, trace_distance,
)
from gentleleak.measurements import (
    GentlenessSpec,
    Povm,
    PovmImplementation,
    gentle_povm,
    post_measurement_state,
    povm_from_json,
    povm_to_json,
    projective_povm,
)
from gentleleak.simulate import default_gentle_probe, tradeoff_sweep
from gentleleak.states import (
    CqEnsemble,
    apply_unitary,
    average_state,
    bb84_ensemble,
    depolarize,
    ensemble_from_json,
    ensemble_to_json,
    ket,
    pure_state,
    unitary_disturbance,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

probs01 = st.floats(0.0, 1.0, allow_nan=False)


@pytest.fixture
def bb84():
    return bb84_ensemble()


class TestDensityOperator:
    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            CqEnsemble(np.array([1.0]), (np.diag([1.5, -0.5]),))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            CqEnsemble(np.array([1.0]), (np.diag([0.7, 0.7]),))

    def test_accepts_mixed_state(self):
        e = CqEnsemble(np.array([1.0]), (np.diag([0.3, 0.7]),))
        assert e.dim == 2


class TestEnsembleConstruction:
    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError, match=r"^prob 1: must be a number in \(0, 1\], got 0.0$"):
            CqEnsemble(np.array([1.0, 0.0]), (pure_state([1, 0]), pure_state([0, 1])))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            CqEnsemble(np.array([0.6, 0.6]), (pure_state([1, 0]), pure_state([0, 1])))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([1, 0, 0])))

    def test_checks_the_whole_stack_with_one_decomposition(self, monkeypatch):
        calls = []
        real = linalg._spectrum
        monkeypatch.setattr(linalg, "_spectrum", lambda h: calls.append(h.shape) or real(h))
        rng = np.random.default_rng(5)
        e = CqEnsemble(np.full(3, 1 / 3), tuple(random_density(3, rng) for _ in range(3)))
        assert calls == [(3, 3, 3)]
        ensemble_from_json(ensemble_to_json(e))
        assert calls == [(3, 3, 3)] * 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: CqEnsemble(np.array([np.nan, 1.0]), (pure_state([1, 0]), pure_state([0, 1]))),
        lambda: sibson_infinity([[np.nan, 0.5], [0.5, 0.5]]),
        lambda: depolarized_leakage(np.nan, 0.3),
        lambda: depolarized_leakage(np.inf, 0.3),
        lambda: lower_bound_sweep(bb84_ensemble(), [0.1], np.nan),
        lambda: lower_bound_sweep(bb84_ensemble(), [0.1], np.inf),
    ],
    ids=["ensemble-probs", "sibson-channel", "depolarized-base-bits", "depolarized-inf-bits",
         "sweep-q-bits", "sweep-inf-q-bits"],
)
def test_nan_fails_public_range_checks(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sibson_infinity([[1.5, 1.0], [-0.5, 0.0]]), "negative channel entry"),
        (lambda: depolarized_leakage(0.5, 1.5), r"depolarizing parameter must be in \[0, 1\]"),
        (lambda: CqEnsemble(np.array([]), np.zeros((0, 2, 2))), "need one probability per state"),
        (lambda: CqEnsemble(np.array([1.0]), (np.eye(2) / 2, np.eye(2) / 2)),
         "need one probability per state"),
        (lambda: CqEnsemble(np.array([0.5, 0.5]), (np.eye(2) / 2, np.eye(2) / 2), ("a", "a")),
         "labels must be unique"),
        (lambda: ket([0, 0]), "zero vector"),
        (lambda: Povm(()), "at least one element"),
        (lambda: Povm((np.eye(2),), labels=("a", "b")), "labels must align"),
        (lambda: PovmImplementation(projective_povm(np.eye(2)).povm, (np.eye(2),)),
         "one operator per POVM element"),
        (lambda: post_measurement_state(np.eye(3) / 3, projective_povm(np.eye(2)), 0),
         "dimension mismatch"),
        (lambda: quadratic_coefficients(1), r"^dimension must be an integer in \[2, inf\), got 1$"),
        (lambda: region_sqrt_form(0.1, 0.1, 1),
         r"^dimension must be an integer in \[2, inf\), got 1$"),
        (lambda: tradeoff_p2(0.1, 1), r"^dimension must be an integer in \[2, inf\), got 1$"),
        (lambda: quadratic_coefficients(2.5),
         r"^dimension must be an integer in \[2, inf\), got 2.5$"),
        (lambda: tradeoff_p2(0.3, 2.5), r"^dimension must be an integer in \[2, inf\), got 2.5$"),
        (lambda: min_feasible_p2(0.3, 2.5),
         r"^dimension must be an integer in \[2, inf\), got 2.5$"),
        (lambda: region_disagreement_report(2, True),
         r"^grid must be an integer in \[2, inf\), got True$"),
        (lambda: region_disagreement_report(2, 1),
         r"^grid must be an integer in \[2, inf\), got 1$"),
        (lambda: region_disagreement_report(2, 2.5),
         r"^grid must be an integer in \[2, inf\), got 2.5$"),
        (lambda: region_disagreement_report(1, 1),  # the grid first, then the dimension
         r"^grid must be an integer in \[2, inf\), got 1$"),
        (lambda: region_disagreement_report(1, 3),
         r"^dimension must be an integer in \[2, inf\), got 1$"),
        (lambda: depolarize(bb84_ensemble(), True),
         r"^depolarizing parameter must be in \[0, 1\], got True$"),
        (lambda: depolarized_leakage(True, 0.5), r"^base_bits must be in \[0, inf\), got True$"),
        (lambda: depolarized_leakage(1.0, True),
         r"^depolarizing parameter must be in \[0, 1\], got True$"),
        (lambda: cloning_lower_bound(bb84_ensemble(), True, 1.0),
         r"^alpha must be in \[0, 1\], got \[True\]$"),
        (lambda: lower_bound_sweep(bb84_ensemble(), [True, False], 1.0),
         r"^alpha must be in \[0, 1\], got \[True, False\]$"),
        (lambda: lower_bound_sweep(bb84_ensemble(), [0.1, True], 1.0),
         r"^alpha must be in \[0, 1\], got \[0.1, True\]$"),
        (lambda: tradeoff_sweep([False], 10, 0),
         r"^gentle epsilon must be in \[0, 0.1\], got False$"),
        (lambda: lower_bound_sweep(bb84_ensemble(), [[0.1]], 1.0), "one-dimensional"),
        (lambda: as_complex_matrix(np.zeros((2, 2, 2))), "expected a square matrix"),
        (lambda: as_hermitian(np.zeros((2, 3))), "expected a square matrix"),
        (lambda: region_quadratic_form(True, 0.5, 2), r"^p1 must be in \[0, 1\], got True$"),
        (lambda: region_sqrt_form(0.5, np.True_, 2),
         r"^p2 must be in \[0, 1\], got (np\.True_|True)$"),  # numpy 2 and 1 reprs
    ],
    ids=["sibson-negative-entry", "depolarized-p", "ensemble-no-states", "ensemble-probs-short",
         "ensemble-duplicate-labels", "ket-zero", "povm-empty", "povm-labels",
         "implementation-operator-count", "post-state-dimension", "quadratic-dimension",
         "sqrt-form-dimension", "tradeoff-dimension", "quadratic-non-integer-dimension",
         "tradeoff-non-integer-dimension", "min-feasible-non-integer-dimension",
         "report-bool-grid", "report-grid-1", "report-non-integer-grid",
         "report-grid-before-dimension", "report-dimension-1",
         "depolarize-bool-p", "depolarized-bool-bits", "depolarized-bool-p", "bound-bool-alpha",
         "sweep-bool-alphas", "sweep-bool-among-alphas", "tradeoff-bool-epsilon", "sweep-alphas-2d",
         "complex-matrix-stack", "hermitian-not-square", "quadratic-bool-point",
         "sqrt-form-numpy-bool-point"],
)
def test_input_checks_name_what_they_refuse(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _sweep_bits_are_depolarized_leakage():
    q = maximal_quantum_leakage(bb84_ensemble()).bits
    sweep = lower_bound_sweep(bb84_ensemble(), np.linspace(0.0, 1.0, 721), q)
    return sweep.lower_bits.tolist() == [depolarized_leakage(q, p) for p in sweep.p2_star.tolist()]


def _float32_point_is_computed_in_float64():
    ok, slack = region_quadratic_form(np.float32(0.2), np.float32(0.30557), 2)
    want = region_quadratic_form(float(np.float32(0.2)), float(np.float32(0.30557)), 2)
    return isinstance(slack, float) and (ok, slack) == want


def _region_forms_compute_on_lists():
    # the forms' own point check compared a float with a list and raised TypeError
    p1, p2 = [0.9, 1.0], [0.1, 0.5]
    quad, sqrt = region_quadratic_form(p1, p2, 2)[1], region_sqrt_form(p1, p2, 2)[2]
    return (quad.tolist() == [region_quadratic_form(a, b, 2)[1] for a, b in zip(p1, p2)]
            and sqrt.tolist() == [region_sqrt_form(a, b, 2)[2] for a, b in zip(p1, p2)])


def _estimate_with_float32_ends_is_json():
    est = maximal_quantum_leakage(bb84_ensemble())
    doc = LeakageEstimate(np.float32(0.5), np.float32(1.0), 1, est.achieving_povm, est.dual)
    return json.dumps(doc.to_json())


@pytest.mark.parametrize(
    "call",
    [
        lambda: povm_from_json(povm_to_json(gentle_povm(default_gentle_probe(), np.float32(0.05)))),
        lambda: ensemble_from_json(ensemble_to_json(depolarize(bb84_ensemble(), np.float16(0.3)))),
        lambda: json.dumps(cloning_lower_bound(bb84_ensemble(), 0.1, np.float32(1.0)).to_json()),
        lambda: json.dumps(CloningSweep(*[np.zeros(1)] * 5, np.float32(1.0))[0].to_json()),
        lambda: (isinstance(p2 := min_feasible_p2(np.float32(0.3), 2), float)
                 and p2 == min_feasible_p2(float(np.float32(0.3)), 2)),
        _sweep_bits_are_depolarized_leakage,
        _float32_point_is_computed_in_float64,
        lambda: json.dumps(CloningBoundResult(alpha=np.float32(0.1), p2_star=0.3, lower_bits=0.7,
                                              p1_cap=0.2, q_bits=1.0, slack=0.0).to_json()),
        _estimate_with_float32_ends_is_json,
        _region_forms_compute_on_lists,
        lambda: type(region_quadratic_form(np.array(0.2), 0.3, 2)[1]) is float,
        lambda: all(type(c) is float for c in quadratic_coefficients(np.int64(3))),
        lambda: not np.signbit(GentlenessSpec(-0.0, 0.1).alpha),
        lambda: not np.signbit(lower_bound_sweep(bb84_ensemble(), [-0.0], 1.0).alpha[0]),
    ],
    ids=["gentle-povm-float32-epsilon", "depolarize-float16-p", "bound-row-float32-q-bits",
         "sweep-row-float32-q-bits", "min-feasible-float32-p1",
         "sweep-bits-are-depolarized-leakage", "quadratic-float32-point",
         "bound-row-float32-alpha-json", "estimate-float32-ends-json", "region-forms-on-lists",
         "quadratic-0d-point", "numpy-int-dimension-coefficients", "negative-zero-alpha",
         "negative-zero-alpha-grid"],
)
def test_real_parameters_enter_as_python_floats(call):
    # a parameter is used as its float64 value, so what it builds passes as input again
    assert call()


def _array_constructor(name):
    """(build, the caller's arrays it takes, its array fields) of a public array constructor."""
    diag = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    if name == "CqEnsemble":
        probs, states = np.array([0.5, 0.5]), diag.copy()
        return lambda: CqEnsemble(probs, states), (probs, states), ("probs", "states")
    if name == "Povm":
        return lambda: Povm(diag), (diag,), ("elements",)
    if name == "PovmImplementation":
        povm = Povm(diag.copy())
        return lambda: PovmImplementation(povm, diag), (diag,), ("operators",)
    columns = tuple(np.linspace(0.0, 0.5, 3) + k for k in range(5))
    fields = ("alpha", "p1_cap", "p2_star", "lower_bits", "slack")
    return lambda: CloningSweep(*columns, 1.0), columns, fields


@pytest.mark.parametrize("name", ["CqEnsemble", "Povm", "PovmImplementation", "CloningSweep"])
def test_constructors_leave_the_callers_arrays_writeable(name):
    # CqEnsemble froze the caller's probs, CloningSweep all five of its columns
    build, taken, fields = _array_constructor(name)
    kept = [a.copy() for a in taken]
    obj = build()
    assert all(a.flags.writeable for a in taken)
    assert all(np.array_equal(a, b) for a, b in zip(taken, kept))
    for field_name in fields:
        value = getattr(obj, field_name)
        assert not value.flags.writeable
        assert not any(np.shares_memory(value, a) for a in taken)


class TestAverageState:
    def test_single_item(self):
        rho = pure_state([1, 1j])
        e = CqEnsemble(np.array([1.0]), (rho,))
        assert np.allclose(average_state(e), rho)

    def test_bb84_is_maximally_mixed(self, bb84):
        assert np.allclose(average_state(bb84), np.eye(2) / 2, atol=1e-12)

    def test_classical_bit(self):
        e = CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([0, 1])))
        assert np.allclose(average_state(e), np.diag([0.5, 0.5]))

    def test_is_not_checked_again_at_the_tolerance_edge(self):
        # each input passes its 1e-10 check, but their sum's trace misses 1 by 1.8e-10
        e = CqEnsemble(
            np.array([0.5, 0.5 + 0.9e-10]),
            (np.diag([0.5 + 0.9e-10, 0.5]), np.diag([0.3, 0.7 + 0.9e-10])),
        )
        avg = average_state(e)
        assert not avg.flags.writeable
        assert np.array_equal(avg, avg.conj().T)
        assert np.allclose(avg, np.diag([0.4, 0.6]), atol=1e-9)


class TestApplyUnitary:
    def test_identity(self, bb84):
        out = apply_unitary(bb84, np.eye(2))
        for a, b in zip(out.states, bb84.states):
            assert np.allclose(a, b)

    def test_hadamard_permutes_bb84(self, bb84):
        # H|0> = |+>, H|1> = |->, H|+> = |0>, H|-> = |1>
        out = apply_unitary(bb84, HADAMARD)
        expected = [bb84.states[2], bb84.states[3], bb84.states[0], bb84.states[1]]
        for a, b in zip(out.states, expected):
            assert np.allclose(a, b, atol=1e-12)

    def test_preserves_pairwise_distances(self, bb84):
        u = haar_unitary(2, np.random.default_rng(0))
        out = apply_unitary(bb84, u)
        for i in range(4):
            for j in range(i + 1, 4):
                before = trace_distance(bb84.states[i], bb84.states[j])
                after = trace_distance(out.states[i], out.states[j])
                assert after == pytest.approx(before, abs=1e-10)

    def test_rejects_non_unitary(self, bb84):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(bb84, np.diag([1.0, 0.5]))

    @pytest.mark.parametrize("call", [apply_unitary, unitary_disturbance])
    def test_names_a_dimension_mismatch(self, bb84, call):
        with pytest.raises(ValueError, match="dimension mismatch: unitary 3, ensemble 2"):
            call(bb84, np.eye(3))

    def test_output_is_symmetrized_read_only_and_keeps_the_rest(self, bb84):
        out = apply_unitary(bb84, haar_unitary(2, np.random.default_rng(1)))
        assert np.array_equal(out.states, out.states.conj().swapaxes(-1, -2))
        assert not out.states.flags.writeable
        assert out.probs is bb84.probs and out.labels == bb84.labels


class TestDepolarize:
    def test_p_zero_is_identity(self, bb84):
        out = depolarize(bb84, 0.0)
        for a, b in zip(out.states, bb84.states):
            assert np.allclose(a, b)

    def test_p_one_is_maximally_mixed(self, bb84):
        out = depolarize(bb84, 1.0)
        for s in out.states:
            assert np.allclose(s, np.eye(2) / 2)

    def test_half_on_ground_state(self):
        e = CqEnsemble(np.array([1.0]), (pure_state([1, 0]),))
        out = depolarize(e, 0.5)
        assert np.allclose(out.states[0], np.diag([0.75, 0.25]))

    def test_rejects_out_of_range(self, bb84):
        with pytest.raises(ValueError):
            depolarize(bb84, 1.5)

    @given(probs01, probs01)
    @settings(max_examples=40)
    def test_semigroup(self, p, q):
        e = bb84_ensemble()
        once = depolarize(depolarize(e, p), q)
        combined = depolarize(e, p + q - p * q)
        for a, b in zip(once.states, combined.states):
            assert np.max(np.abs(a - b)) <= 1e-12

    @given(probs01)
    @settings(max_examples=30)
    def test_contracts_distances_linearly(self, p):
        e = bb84_ensemble()
        out = depolarize(e, p)
        for i in range(4):
            for j in range(i + 1, 4):
                before = trace_distance(e.states[i], e.states[j])
                after = trace_distance(out.states[i], out.states[j])
                assert after == pytest.approx((1.0 - p) * before, abs=1e-10)

    @given(probs01)
    @settings(max_examples=30)
    def test_commutes_with_average(self, p):
        e = bb84_ensemble()
        left = depolarize(e, p)
        assert np.max(
            np.abs(average_state(left) - (p * np.eye(2) / 2 + (1 - p) * average_state(e)))
        ) <= 1e-12


class TestUnitaryDisturbance:
    def test_identity_is_zero(self, bb84):
        assert unitary_disturbance(bb84, np.eye(2)) == 0.0

    def test_global_phase_is_zero(self, bb84):
        u = np.exp(1j * 0.7) * np.eye(2)
        assert unitary_disturbance(bb84, u) <= 1e-12

    def test_bit_flip_on_ground_state(self):
        e = CqEnsemble(np.array([1.0]), (pure_state([1, 0]),))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert unitary_disturbance(e, x) == pytest.approx(1.0, abs=1e-12)


class TestBb84:
    def test_encoding_table(self, bb84):
        assert bb84.labels == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
        assert np.allclose(bb84.states[0], np.diag([1.0, 0.0]))
        assert np.allclose(bb84.states[1], np.diag([0.0, 1.0]))
        assert np.allclose(bb84.states[2], np.full((2, 2), 0.5))
        assert np.allclose(bb84.states[3], np.array([[0.5, -0.5], [-0.5, 0.5]]))

    def test_uniform_probabilities(self, bb84):
        assert np.allclose(bb84.probs, 0.25)


class TestEnsembleJson:
    def test_roundtrip(self, bb84):
        doc = ensemble_to_json(bb84)
        back = ensemble_from_json(doc)
        assert back.labels == bb84.labels
        assert np.allclose(back.probs, bb84.probs)
        for a, b in zip(back.states, bb84.states):
            assert np.allclose(a, b)

    def test_reports_first_bad_state_with_index(self, bb84):
        doc = ensemble_to_json(bb84)
        doc["states"][2]["entries"][0][0] = [5.0, 0.0]  # breaks trace
        with pytest.raises(SchemaError, match="state 2"):
            ensemble_from_json(doc)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                {2: [[0.5, 0.7], [0.7, 0.5]]},
                "state 2: state is not PSD: min eigenvalue -2.000e-01",
            ),
            ({2: [[0.5, 0.0], [0.0, 0.25]]}, "state 2: state trace 0.75 is not 1"),
            ({1: [[np.nan, 0.0], [0.0, 1.0]]}, "state 1: matrix has non-finite entries"),
            (
                {1: [[0.5, 0.3], [0.0, 0.5]]},
                "state 1: matrix is not Hermitian: max asymmetry 3.000e-01 > 1.000e-10",
            ),
            ({2: np.diag([1.0, 0.0, 0.0])}, "state 2 has dimension 3, expected 2"),
            (
                {1: [[0.7, 0.0], [0.0, 0.7]], 3: [[0.5, 0.3], [0.0, 0.5]]},
                "state 1: state trace 1.4 is not 1",
            ),
        ],
        ids=["not-psd", "bad-trace", "nan", "not-hermitian", "mixed-dimension", "two-bad"],
    )
    def test_names_the_failing_state(self, bb84, bad, message):
        doc = ensemble_to_json(bb84)
        for i, m in bad.items():
            m = np.asarray(m, dtype=complex)
            doc["states"][i] = {
                "dim": len(m),
                "entries": [[[z.real, z.imag] for z in row] for row in m.tolist()],
            }
        with pytest.raises(SchemaError) as info:
            ensemble_from_json(json.loads(json.dumps(doc)))  # NaN as a JSON literal
        assert str(info.value) == message

    def test_reports_bad_prob_with_index(self, bb84):
        doc = ensemble_to_json(bb84)
        doc["probs"][1] = -0.25
        with pytest.raises(SchemaError, match="prob 1"):
            ensemble_from_json(doc)

    def test_rejects_length_mismatch(self, bb84):
        doc = ensemble_to_json(bb84)
        doc["labels"] = doc["labels"][:-1]
        with pytest.raises(SchemaError, match="lengths"):
            ensemble_from_json(doc)

    def test_rejects_non_object(self):
        with pytest.raises(SchemaError):
            ensemble_from_json([1, 2, 3])


def _built_or_refused(build):
    """(priors as a list, None for a POVM, and labels) of what build() returns, or its refusal."""
    try:
        made = build()
    except ValueError as exc:
        return str(exc)
    probs = getattr(made, "probs", None)
    return (None if probs is None else probs.tolist()), made.labels


def _json_side(value):
    """value as a JSON file gives it: a numpy array as its list, NaN as a literal."""
    return json.loads(json.dumps(value.tolist() if isinstance(value, np.ndarray) else value))


PRIOR_TEXT = "prob {}: must be a number in (0, 1], got {}"
Z_BASIS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


@pytest.mark.parametrize(
    "probs, labels, want",
    [
        ([True], None, PRIOR_TEXT.format(0, True)),
        (np.array([True]), None, PRIOR_TEXT.format(0, True)),
        (np.array([1.0, 0.0]), None, PRIOR_TEXT.format(1, 0.0)),
        ([1.25, -0.25], None, PRIOR_TEXT.format(0, 1.25)),
        ([0.5, -0.25], None, PRIOR_TEXT.format(1, -0.25)),
        ([0.5, np.nan], None, PRIOR_TEXT.format(1, "nan")),
        ([0.5, 0.5], [0, 1], ([0.5, 0.5], ("0", "1"))),
        ([0.5, 0.5], np.array(["a", "b"]), ([0.5, 0.5], ("a", "b"))),
        ([0.5, 0.5], [[0], [1]], ([0.5, 0.5], ("[0]", "[1]"))),
        ([0.5, 0.5], ["a", "a"], "labels must be unique and aligned with states"),
    ],
    ids=["true-prior", "numpy-bool-priors", "zero-prior", "prior-above-1", "negative-prior",
         "nan-prior", "int-labels", "numpy-labels", "nested-labels", "duplicate-labels"],
)
def test_a_json_file_and_a_direct_call_build_the_same_ensemble(probs, labels, want):
    # each value has one check, in the constructor, so both entry paths refuse with the
    # same text or build the same priors and string labels
    states = Z_BASIS[:len(probs)]
    doc = {"labels": [str(i) for i in range(len(probs))] if labels is None else _json_side(labels),
           "probs": _json_side(probs), "states": [matrix_to_json(s) for s in states]}
    direct = _built_or_refused(lambda: CqEnsemble(probs, states, labels))
    parsed = _built_or_refused(lambda: ensemble_from_json(doc))
    assert direct == parsed == want


@pytest.mark.parametrize(
    "labels, want",
    [([0, 1], ("0", "1")), (np.array(["a", "b"]), ("a", "b")), ([[0], [1]], ("[0]", "[1]")),
     (["a", "a"], ("a", "a"))],
    ids=["int-labels", "numpy-labels", "nested-labels", "duplicate-labels"],
)
def test_a_json_file_and_a_direct_call_build_the_same_povm(labels, want):
    doc = {"labels": _json_side(labels), "elements": [matrix_to_json(f) for f in Z_BASIS]}
    direct = _built_or_refused(lambda: Povm(Z_BASIS, labels))
    parsed = _built_or_refused(lambda: povm_from_json(doc)[0])
    assert direct == parsed == (None, want)
