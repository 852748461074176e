import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from random_matrices import haar_unitary, random_density, random_hermitian

from gentleleak.linalg import (
    NotPsdError,
    SchemaError,
    _positive_part,
    as_hermitian,
    as_unitary,
    eig_hermitian,
    matrix_from_json,
    matrix_to_json,
    psd_inv_sqrt,
    trace_distance,
    trace_norm,
)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestEig:
    def test_identity(self):
        w, v = eig_hermitian(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2))

    def test_already_diagonal(self):
        w, _ = eig_hermitian(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])

    def test_pauli_x(self):
        # hand diagonalization: eigenpairs (1, (1,1)/sqrt2) and (-1, (1,-1)/sqrt2)
        w, v = eig_hermitian(PAULI_X)
        assert np.allclose(w, [1.0, -1.0])
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)))

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w, _ = eig_hermitian(random_hermitian(4, rng))
            assert np.all(np.diff(w) <= 0)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_reconstruction_residual(self, d):
        rng = np.random.default_rng(d)
        for _ in range(250):
            h = random_hermitian(d, rng, scale=rng.uniform(0.2, 3.0))
            w, v = eig_hermitian(h)
            assert np.max(np.abs(h @ v - v * w)) <= 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_matches_numpy(self, d):
        rng = np.random.default_rng(100 + d)
        hs = np.stack([random_hermitian(d, rng) for _ in range(25)])
        for h in hs:
            w, _ = eig_hermitian(h)
            assert np.allclose(w, np.sort(np.linalg.eigvalsh(h))[::-1], atol=1e-10)
        # a stack gives each matrix's eigenvalues, in the same descending order
        w_stack, v_stack = eig_hermitian(hs.reshape(5, 5, d, d))
        assert w_stack.shape == (5, 5, d) and v_stack.shape == (5, 5, d, d)
        for h, w in zip(hs, w_stack.reshape(25, d)):
            assert np.allclose(w, np.sort(np.linalg.eigvalsh(h))[::-1], atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_density(3, np.random.default_rng(1))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(KET0, KET1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_plus_overlap(self):
        # pure-state formula sqrt(1 - |<0|+>|^2) = 1/sqrt(2)
        assert trace_distance(KET0, PLUS) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(np.array([KET0, KET1]), np.array([KET0, KET1, PLUS]))

    def test_one_distance_per_pair_of_stacks(self):
        dist = trace_distance(np.array([KET0, KET0]), np.array([KET1, KET0]))
        assert dist.shape == (2,)
        assert np.array_equal(dist, [1.0, 0.0])
        assert type(trace_distance(KET0, KET1)) is float

    @pytest.mark.parametrize(
        "bad, text",
        [([[0.5, 0.3], [0.0, 0.5]], "matrix is not Hermitian"),
         ([[np.nan, 0.0], [0.0, 1.0]], "matrix has non-finite entries")],
        ids=["not-hermitian", "nan"],
    )
    def test_a_stack_names_its_failing_matrix(self, bad, text):
        stack = np.array([KET0, bad, [[0.5, 0.3], [0.0, 0.5]]])
        for call in (lambda: trace_distance(KET0, stack), lambda: trace_distance(stack, stack),
                     lambda: eig_hermitian(stack), lambda: as_hermitian(stack)):
            with pytest.raises(ValueError, match=f"^matrix 1: {text}"):
                call()

    def test_one_matrix_against_a_stack(self):
        stack = np.array([KET0, KET1, PLUS])
        want = [trace_distance(KET0, s) for s in stack]
        assert np.array_equal(trace_distance(KET0, stack), want)
        assert np.array_equal(trace_distance(stack, KET0), want)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_metric_on_state_triples(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        a, b, c = (random_density(d, rng) for _ in range(3))
        dab, dba = trace_distance(a, b), trace_distance(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-10
        assert trace_distance(a, a) <= 1e-10

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(9)
        a = random_density(3, rng)
        b = random_density(3, rng)
        if np.max(np.abs(a - b)) > 1e-8:
            assert trace_distance(a, b) > 1e-10

    def test_unitary_invariance_of_trace_norm(self):
        # ||U D V†||_1 == ||D||_1 for unitary U, V
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            delta = random_hermitian(d, rng)
            u, v = haar_unitary(d, rng), haar_unitary(d, rng)
            assert abs(trace_norm(u @ delta @ v.conj().T) - trace_norm(delta)) <= 1e-9

    def test_trace_norm_of_rank_deficient_matrices(self):
        # ||U diag(s) V†||_1 = sum(s); square roots of the rounding-level
        # eigenvalues of M†M once missed it by up to 3.6e-8
        rng = np.random.default_rng(7)
        for _ in range(2000):
            d = int(rng.choice([2, 3, 4, 8]))
            s = rng.uniform(0.0, 1.0, d)
            s[rng.permutation(d)[: rng.integers(1, d)]] = 0.0
            m = (haar_unitary(d, rng) * s) @ haar_unitary(d, rng).conj().T
            assert abs(trace_norm(m) - s.sum()) <= 1e-12


class TestPsd:
    def test_positive_part(self):
        m = np.diag([2.0, -3.0])
        assert np.allclose(_positive_part(m), np.diag([2.0, 0.0]))

    def test_stack_with_one_non_psd_matrix(self):
        stack = np.array([np.eye(2), np.diag([1.0, -0.5]), np.diag([4.0, 1.0])])
        with pytest.raises(NotPsdError, match="min eigenvalue -5.000e-01"):
            psd_inv_sqrt(stack)

    def test_stack_of_psd_matrices(self):
        stack = np.array([np.diag([4.0, 9.0]), np.diag([1.0, 0.25])])
        assert np.allclose(psd_inv_sqrt(stack), [np.diag([0.5, 1 / 3]), np.diag([1.0, 2.0])])
        with pytest.raises(NotPsdError, match="zero"):
            psd_inv_sqrt(np.array([np.eye(2), np.zeros((2, 2))]))


class TestHermitize:
    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 3e-12j, 2.0]])
        h = as_hermitian(m)
        assert np.allclose(h, h.conj().T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError):
            as_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestUnitary:
    def test_returns_a_unitary(self):
        u = haar_unitary(3, np.random.default_rng(2))
        assert np.array_equal(as_unitary(u), u)

    def test_rejects_a_non_unitary(self):
        with pytest.raises(ValueError, match="matrix is not unitary"):
            as_unitary(np.diag([1.0, 0.5]))


class TestMatrixJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(3, rng) + 1j * 0  # any complex matrix
        doc = matrix_to_json(m)
        assert doc["dim"] == 3
        assert np.allclose(matrix_from_json(doc), m)

    @pytest.mark.parametrize(
        "doc",
        [
            {"entries": [[[1, 0]]]},
            {"dim": 2, "entries": [[[1, 0], [0, 0]]]},
            {"dim": 0, "entries": []},
            {"dim": 1, "entries": [["bad"]]},
        ],
    )
    def test_schema_violations(self, doc):
        with pytest.raises(SchemaError):
            matrix_from_json(doc)

    @pytest.mark.parametrize(
        "cell",
        [[True, 0], [0, False], ["1", "0"], [None, 0], [10**400, 0], [1], [1, 2, 3], 5, "ab",
         {"re": 1, "im": 0}, [[1, 0], [0, 0]]],
        ids=["bool-re", "bool-im", "strings", "null", "big-int", "short", "long", "number",
             "string", "object", "nested"],
    )
    def test_rejects_cells_that_are_not_number_pairs(self, cell):
        doc = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], cell]]}
        with pytest.raises(SchemaError, match="pairs"):
            matrix_from_json(doc)

    def test_entries_parse_bit_for_bit_as_complex(self):
        values = [
            -0.0, 0.0, 1, -7, 2**53 + 1, 2**63, 2**64 + 1, -(2**63) - 1, 10**300, 1e308,
            -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1, 1 / 3,
        ]
        n = len(values)
        rows = [[[values[i], values[(7 * i + j) % n]] for j in range(n)] for i in range(n)]
        want = np.array([[complex(re, im) for re, im in row] for row in rows])
        got = matrix_from_json({"dim": n, "entries": rows})
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
