import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentleleak.linalg import SchemaError, haar_unitary, trace_distance
from gentleleak.states import (
    CqEnsemble,
    DensityOperator,
    apply_unitary,
    average_state,
    bb84_ensemble,
    depolarize,
    ensemble_from_json,
    ensemble_to_json,
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
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.diag([0.7, 0.7]))

    def test_accepts_mixed_state(self):
        rho = DensityOperator(np.diag([0.3, 0.7]))
        assert rho.dim == 2


class TestEnsembleConstruction:
    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError, match="strictly positive"):
            CqEnsemble(np.array([1.0, 0.0]), (pure_state([1, 0]), pure_state([0, 1])))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            CqEnsemble(np.array([0.6, 0.6]), (pure_state([1, 0]), pure_state([0, 1])))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([1, 0, 0])))


class TestAverageState:
    def test_single_item(self):
        rho = pure_state([1, 1j])
        e = CqEnsemble(np.array([1.0]), (rho,))
        assert np.allclose(average_state(e).mat, rho.mat)

    def test_bb84_is_maximally_mixed(self, bb84):
        assert np.allclose(average_state(bb84).mat, np.eye(2) / 2, atol=1e-12)

    def test_classical_bit(self):
        e = CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([0, 1])))
        assert np.allclose(average_state(e).mat, np.diag([0.5, 0.5]))


class TestApplyUnitary:
    def test_identity(self, bb84):
        out = apply_unitary(bb84, np.eye(2))
        for a, b in zip(out.states, bb84.states):
            assert np.allclose(a.mat, b.mat)

    def test_hadamard_permutes_bb84(self, bb84):
        # H|0> = |+>, H|1> = |->, H|+> = |0>, H|-> = |1>
        out = apply_unitary(bb84, HADAMARD)
        expected = [bb84.states[2], bb84.states[3], bb84.states[0], bb84.states[1]]
        for a, b in zip(out.states, expected):
            assert np.allclose(a.mat, b.mat, atol=1e-12)

    def test_preserves_pairwise_distances(self, bb84):
        u = haar_unitary(2, np.random.default_rng(0))
        out = apply_unitary(bb84, u)
        for i in range(4):
            for j in range(i + 1, 4):
                before = trace_distance(bb84.states[i].mat, bb84.states[j].mat)
                after = trace_distance(out.states[i].mat, out.states[j].mat)
                assert after == pytest.approx(before, abs=1e-10)

    def test_rejects_non_unitary(self, bb84):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(bb84, np.diag([1.0, 0.5]))


class TestDepolarize:
    def test_p_zero_is_identity(self, bb84):
        out = depolarize(bb84, 0.0)
        for a, b in zip(out.states, bb84.states):
            assert np.allclose(a.mat, b.mat)

    def test_p_one_is_maximally_mixed(self, bb84):
        out = depolarize(bb84, 1.0)
        for s in out.states:
            assert np.allclose(s.mat, np.eye(2) / 2)

    def test_half_on_ground_state(self):
        e = CqEnsemble(np.array([1.0]), (pure_state([1, 0]),))
        out = depolarize(e, 0.5)
        assert np.allclose(out.states[0].mat, np.diag([0.75, 0.25]))

    def test_rejects_out_of_range(self, bb84):
        with pytest.raises(ValueError):
            depolarize(bb84, 1.5)

    @given(probs01, probs01)
    @settings(max_examples=40, deadline=None)
    def test_semigroup(self, p, q):
        e = bb84_ensemble()
        once = depolarize(depolarize(e, p), q)
        combined = depolarize(e, p + q - p * q)
        for a, b in zip(once.states, combined.states):
            assert np.max(np.abs(a.mat - b.mat)) <= 1e-12

    @given(probs01)
    @settings(max_examples=30, deadline=None)
    def test_contracts_distances_linearly(self, p):
        e = bb84_ensemble()
        out = depolarize(e, p)
        for i in range(4):
            for j in range(i + 1, 4):
                before = trace_distance(e.states[i].mat, e.states[j].mat)
                after = trace_distance(out.states[i].mat, out.states[j].mat)
                assert after == pytest.approx((1.0 - p) * before, abs=1e-10)

    @given(probs01)
    @settings(max_examples=30, deadline=None)
    def test_commutes_with_average(self, p):
        e = bb84_ensemble()
        left = depolarize(e, p)
        assert np.max(
            np.abs(average_state(left).mat - (p * np.eye(2) / 2 + (1 - p) * average_state(e).mat))
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
        assert np.allclose(bb84.states[0].mat, np.diag([1.0, 0.0]))
        assert np.allclose(bb84.states[1].mat, np.diag([0.0, 1.0]))
        assert np.allclose(bb84.states[2].mat, np.full((2, 2), 0.5))
        assert np.allclose(bb84.states[3].mat, np.array([[0.5, -0.5], [-0.5, 0.5]]))

    def test_uniform_probabilities(self, bb84):
        assert np.allclose(bb84.probs, 0.25)


class TestEnsembleJson:
    def test_roundtrip(self, bb84):
        doc = ensemble_to_json(bb84)
        back = ensemble_from_json(doc)
        assert back.labels == bb84.labels
        assert np.allclose(back.probs, bb84.probs)
        for a, b in zip(back.states, bb84.states):
            assert np.allclose(a.mat, b.mat)

    def test_reports_first_bad_state_with_index(self, bb84):
        doc = ensemble_to_json(bb84)
        doc["states"][2]["entries"][0][0] = [5.0, 0.0]  # breaks trace
        with pytest.raises(SchemaError, match="state 2"):
            ensemble_from_json(doc)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (
                [[[0.5, 0.0], [0.7, 0.0]], [[0.7, 0.0], [0.5, 0.0]]],
                "state 2: state is not PSD: min eigenvalue -2.000e-01",
            ),
            (
                [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]],
                "state 2: state trace 0.75 is not 1",
            ),
        ],
        ids=["not-psd", "bad-trace"],
    )
    def test_names_the_failing_state(self, bb84, entries, message):
        doc = ensemble_to_json(bb84)
        doc["states"][2]["entries"] = entries
        with pytest.raises(SchemaError) as info:
            ensemble_from_json(doc)
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
