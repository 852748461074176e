import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from random_matrices import haar_unitary, random_contraction, random_density

from gentleleak import linalg, measurements, states
from gentleleak.cli import main
from gentleleak.linalg import (
    SchemaError,
    _positive_part,
    matrix_to_json,
    trace_distance,
    trace_norm,
)
from gentleleak.measurements import (
    BISECTION_STEPS,
    MAX_EPSILON,
    ZERO_PROB,
    GentlenessSpec,
    Povm,
    PovmImplementation,
    ZeroProbabilityOutcome,
    born_probabilities,
    certify_gentle,
    collapse,
    gentle_povm,
    max_certified_epsilon,
    post_measurement_state,
    povm_from_json,
    povm_to_json,
    projective_povm,
)
from gentleleak.states import (
    CqEnsemble,
    bb84_ensemble,
    ensemble_from_json,
    ensemble_to_json,
    pure_state,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.fixture
def bb84():
    return bb84_ensemble()


def bb84_pair_probe():
    return _positive_part(pure_state([1, 0]) - pure_state([1, 1]))


class TestPovmTypes:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="completeness"):
            Povm((np.eye(2) * 0.5,))

    def test_rejects_non_psd_element(self):
        with pytest.raises(ValueError, match="PSD"):
            Povm((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])))

    def test_implementation_must_match(self):
        povm = projective_povm(np.eye(2)).povm
        with pytest.raises(ValueError, match="differs"):
            PovmImplementation(povm, (np.eye(2, dtype=complex), np.zeros((2, 2))))

    def test_gentleness_spec_ranges(self):
        with pytest.raises(ValueError):
            GentlenessSpec(-0.1, 0.5)
        with pytest.raises(ValueError):
            GentlenessSpec(0.1, 1.5)

    @pytest.mark.parametrize("alpha, delta, name", [
        (True, 0.05, "alpha"), (0.1, False, "delta"), (np.True_, 0.05, "alpha"),
        ("0.1", 0.05, "alpha"), (0.1, None, "delta"), (0.1j, 0.05, "alpha"),
        (np.array(0.1), 0.05, "alpha"),
    ])
    def test_gentleness_spec_refuses_bools_and_non_reals(self, alpha, delta, name):
        with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\], got "):
            GentlenessSpec(alpha, delta)

    def test_gentleness_spec_stores_python_floats(self):
        spec = GentlenessSpec(np.float32(0.1), 1)
        assert (type(spec.alpha), type(spec.delta)) == (float, float)
        assert (spec.alpha, spec.delta) == (float(np.float32(0.1)), 1.0)


class TestStackedChecks:
    """Each constructor checks its matrices as one stack and names the first bad index."""

    def test_names_the_non_square_element(self):
        with pytest.raises(ValueError, match=r"element 1: expected a square matrix, got shape"):
            Povm((np.eye(2), np.zeros((2, 3))))

    def test_names_the_element_of_another_dimension(self):
        with pytest.raises(ValueError, match="element 1 has dimension 3, expected 2"):
            Povm((np.eye(2), np.zeros((3, 3))))

    def test_names_the_non_psd_element(self):
        elements = (np.diag([0.5, 0.5]), np.diag([0.7, 0.3]), np.diag([-0.2, 0.2]))
        with pytest.raises(ValueError,
                           match="element 2: element is not PSD: min eigenvalue -2.000e-01"):
            Povm(elements)

    def test_names_the_first_non_psd_element(self):
        elements = (np.diag([-0.1, 0.5]), np.diag([0.6, 0.5]), np.diag([0.5, -0.5]),
                    np.diag([0.0, 0.5]))
        with pytest.raises(ValueError,
                           match="element 0: element is not PSD: min eigenvalue -1.000e-01"):
            Povm(elements)

    def test_names_the_non_finite_element(self):
        elements = (np.diag([1.0, 0.0]), np.diag([np.nan, 1.0]))
        with pytest.raises(ValueError, match="^element 1: matrix has non-finite entries$"):
            Povm(elements)

    def test_names_the_non_finite_operator(self):
        povm = projective_povm(np.eye(2)).povm
        with pytest.raises(ValueError, match="^operator 1: matrix has non-finite entries$"):
            PovmImplementation(povm, (np.diag([1.0, 0.0]), np.diag([0.0, np.inf])))

    def test_names_the_operator_of_another_dimension(self):
        povm = projective_povm(np.eye(2)).povm
        with pytest.raises(ValueError, match="operator 0 has dimension 3, expected 2"):
            PovmImplementation(povm, (np.eye(3), np.diag([0.0, 1.0])))
        with pytest.raises(ValueError, match=r"operator 1: expected a square matrix, got shape"):
            PovmImplementation(povm, (np.diag([1.0, 0.0]), np.ones(2)))

    def test_names_the_first_operator_off_its_element(self):
        impl = gentle_povm(bb84_pair_probe(), 0.05)
        b_plus, b_minus, b_zero = impl.operators
        with pytest.raises(ValueError, match="operator 1: B†B differs from F by"):
            PovmImplementation(impl.povm, (b_plus, 2.0 * b_minus, 2.0 * b_zero))
        with pytest.raises(ValueError, match="operator 2: B†B differs from F by"):
            PovmImplementation(impl.povm, (b_plus, b_minus, -1j * b_minus))

    def test_stacks_are_read_only_and_back_the_rows(self, bb84):
        impl = gentle_povm(bb84_pair_probe(), 0.05)
        mats = bb84.states
        assert mats is bb84.states
        for stack in (mats, impl.povm.elements, impl.operators):
            assert not stack.flags.writeable and stack.shape[1:] == (2, 2)
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 1.0
            assert all(np.shares_memory(stack, row) for row in stack)

    def test_callers_arrays_stay_writeable(self):
        ops = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        impl = PovmImplementation(Povm(ops), ops)
        assert all(b.flags.writeable for b in ops)
        assert not any(np.shares_memory(b, impl.operators) for b in ops)

    def test_no_hermiticity_check_per_tried_strength(self, bb84, monkeypatch):
        # gentle_povm checks M once per probe and derives I - M^2 without a check;
        # each tried strength builds its implementation and post-measurement states
        # without a check
        probe, spec = bb84_pair_probe(), GentlenessSpec(0.1, 0.05)
        shapes = []
        real = linalg.as_hermitian

        def counting(m):
            shapes.append(np.shape(m))
            return real(m)

        for mod in (linalg, measurements, states):
            for name, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, name, counting)
        certify_gentle(bb84, gentle_povm(probe, 0.05), spec)
        assert shapes == [(2, 2)]

        shapes.clear()
        max_certified_epsilon(probe, spec, bb84)
        assert shapes == [(2, 2)]


class TestBornProbabilities:
    def test_single_outcome_identity(self, bb84):
        povm = Povm((np.eye(2, dtype=complex),))
        assert np.allclose(born_probabilities(bb84, povm), 1.0)

    def test_z_basis_rows(self, bb84):
        p = born_probabilities(bb84, projective_povm(np.eye(2)).povm)
        assert np.allclose(p[0], [1.0, 0.0, 0.5, 0.5])
        assert np.allclose(p[1], [0.0, 1.0, 0.5, 0.5])

    def test_x_basis_rows(self, bb84):
        p = born_probabilities(bb84, projective_povm(HADAMARD).povm)
        assert np.allclose(p[0], [0.5, 0.5, 1.0, 0.0])
        assert np.allclose(p[1], [0.5, 0.5, 0.0, 1.0])

    def test_columns_sum_to_one(self, bb84):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = born_probabilities(bb84, projective_povm(haar_unitary(2, rng)).povm)
            assert np.allclose(p.sum(axis=0), 1.0, atol=1e-9)

    def test_dimension_mismatch(self, bb84):
        with pytest.raises(ValueError, match="mismatch"):
            born_probabilities(bb84, projective_povm(np.eye(3)).povm)

    def test_povm_complete_within_its_tolerance(self):
        # F_0 + F_1 = I + 0.9e-9 J passes Povm, with J the all-ones matrix;
        # the column of the state along (1, ..., 1)/sqrt(8) sums to 1 + 7.2e-9
        d = 8
        povm = Povm((np.eye(d) / 2 + 0.9e-9 * np.ones((d, d)), np.eye(d) / 2))
        e = CqEnsemble(np.ones(1), (pure_state(np.ones(d)),))
        p = born_probabilities(e, povm)
        assert p[:, 0] == pytest.approx([0.5 + 7.2e-9, 0.5], abs=1e-14)


class TestPostMeasurementState:
    def test_projection_fixed_point(self):
        impl = projective_povm(np.eye(2))
        out = post_measurement_state(pure_state([1, 0]), impl, 0)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_projection_collapse(self):
        impl = projective_povm(np.eye(2))
        out = post_measurement_state(pure_state([1, 1]), impl, 0)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_identity_probe_leaves_state_alone(self):
        impl = gentle_povm(np.eye(2), 0.08)
        rho = pure_state([1, 1j])
        for y in range(2):  # outcome 0 has probability zero for M = I
            out = post_measurement_state(rho, impl, y)
            assert np.allclose(out, rho, atol=1e-12)

    def test_zero_probability_outcome(self):
        impl = projective_povm(np.eye(2))
        with pytest.raises(ZeroProbabilityOutcome):
            post_measurement_state(pure_state([1, 0]), impl, 1)

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.diag([2.0, 0.0]), "state 0: state trace 2.0 is not 1"),
            (np.array([[0.5, 0.3], [0.1, 0.5]]), "state 0: matrix is not Hermitian"),
        ],
    )
    def test_rejects_an_input_that_is_not_a_state(self, rho, message):
        with pytest.raises(ValueError, match=message):
            post_measurement_state(rho, projective_povm(np.eye(2)), 0)

    @pytest.mark.parametrize("y", [-1, 3])
    def test_rejects_an_outcome_out_of_range(self, y):
        impl = gentle_povm(bb84_pair_probe(), 0.05)
        text = r"^outcome y must be an integer in \[0, 2\], got "
        with pytest.raises(ValueError, match=text + f"{y}$"):
            post_measurement_state(pure_state([1, 0]), impl, y)

    @pytest.mark.parametrize("y", [True, 1.0, "1"])
    def test_rejects_an_outcome_that_is_not_an_integer(self, y):
        impl = gentle_povm(bb84_pair_probe(), 0.05)
        text = r"^outcome y must be an integer in \[0, 2\], got "
        with pytest.raises(ValueError, match=text + f"{y!r}$"):
            post_measurement_state(pure_state([1, 0]), impl, y)

    def test_output_is_symmetrized_and_read_only(self):
        impl = gentle_povm(random_contraction(3, np.random.default_rng(5)), 0.07)
        out = post_measurement_state(random_density(3, np.random.default_rng(6)), impl, 2)
        assert np.array_equal(out, out.conj().T)
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 1.0

    def test_output_is_valid_state(self):
        rng = np.random.default_rng(3)
        impl = projective_povm(haar_unitary(2, rng))
        out = post_measurement_state(pure_state([1, 0.3j]), impl, 0)
        assert abs(np.trace(out).real - 1.0) <= 1e-10

    def test_outcome_probabilities_total_one(self, bb84):
        rng = np.random.default_rng(4)
        impl = projective_povm(haar_unitary(2, rng))
        for s in bb84.states:
            total = sum(np.trace(s @ f).real for f in impl.povm.elements)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestCertifyGentle:
    def test_trivial_identity_povm(self, bb84):
        impl = PovmImplementation(
            Povm((np.eye(2, dtype=complex),)), (np.eye(2, dtype=complex),)
        )
        cert = certify_gentle(bb84, impl, GentlenessSpec(0.0, 0.0))
        assert cert.certified
        assert cert.worst_prob == pytest.approx(1.0, abs=1e-12)

    def test_z_basis_on_plus_never_certifies(self):
        e = CqEnsemble(np.array([1.0]), (pure_state([1, 1]),))
        impl = projective_povm(np.eye(2))
        cert = certify_gentle(e, impl, GentlenessSpec(0.5, 0.99))
        assert not cert.certified
        assert cert.worst_disturbance == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_certificates_compare_by_value(self, bb84):
        spec = GentlenessSpec(0.1, 0.05)
        impl = gentle_povm(bb84_pair_probe(), 0.05)
        first, second = (certify_gentle(bb84, impl, spec) for _ in range(2))
        assert first is not second
        assert first == second and not first != second
        two_states = CqEnsemble(np.full(2, 0.5), bb84.states[:2])
        for other in (
            certify_gentle(bb84, impl, spec, mode="average-state"),
            certify_gentle(bb84, gentle_povm(bb84_pair_probe(), 0.06), spec),
            certify_gentle(two_states, impl, spec),  # outcome probabilities of another shape
        ):
            assert first != other and not first == other
        assert first != first.to_json()
        cal = max_certified_epsilon(bb84_pair_probe(), spec, bb84)
        assert cal == max_certified_epsilon(bb84_pair_probe(), spec, bb84)
        assert cal != max_certified_epsilon(bb84_pair_probe(), GentlenessSpec(0.01, 0.001), bb84)

    def test_gentle_construction_certifies_at_calibrated_epsilon(self, bb84):
        spec = GentlenessSpec(0.1, 0.05)
        probe = bb84_pair_probe()
        cal = max_certified_epsilon(probe, spec, bb84)
        assert cal.epsilon > 0
        impl = gentle_povm(probe, cal.epsilon)
        assert certify_gentle(bb84, impl, spec).certified

    def test_average_state_mode(self, bb84):
        impl = gentle_povm(bb84_pair_probe(), 0.05)
        per = certify_gentle(bb84, impl, GentlenessSpec(0.2, 0.01), mode="per-state")
        avg = certify_gentle(bb84, impl, GentlenessSpec(0.2, 0.01), mode="average-state")
        assert avg.worst_prob >= per.worst_prob - 1e-12

    @given(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
    )
    @settings(max_examples=25)
    def test_monotone_in_alpha_delta(self, a1, a2, d1, d2):
        alpha_lo, alpha_hi = sorted((a1, a2))
        delta_lo, delta_hi = sorted((d1, d2))
        e = bb84_ensemble()
        impl = gentle_povm(bb84_pair_probe(), 0.07)
        lo = certify_gentle(e, impl, GentlenessSpec(alpha_lo, delta_lo))
        hi = certify_gentle(e, impl, GentlenessSpec(alpha_hi, delta_hi))
        if lo.certified:
            assert hi.certified

    def test_report_structure(self, bb84):
        impl = gentle_povm(bb84_pair_probe(), 0.05)
        doc = certify_gentle(bb84, impl, GentlenessSpec(0.1, 0.05)).to_json()
        assert {"certified", "worst_prob", "worst_disturbance", "outcomes"} <= doc.keys()
        assert len(doc["outcomes"]) == 3
        for entry in doc["outcomes"]:
            assert {"label", "good", "max_disturbance", "probabilities"} <= entry.keys()


def eigenbasis_case(d: int, eta: float, seed: int):
    """A state with eigenvalues (1 - (d - 1) eta, eta, ...) and the projective measurement
    in its own Haar eigenbasis."""
    u = haar_unitary(d, np.random.default_rng(seed))
    w = np.array([1.0 - (d - 1) * eta] + [eta] * (d - 1))
    return CqEnsemble(np.ones(1), ((u * w) @ u.conj().T,)), projective_povm(u)


class TestDerivedStatesAreNotRechecked:
    """Post-measurement states are derived from checked inputs and are not checked again.

    Their rounding error scales as 1/P[y | x], so the absolute input tolerances
    would reject a valid state measured in its own eigenbasis once an outcome
    is rare.
    """

    @pytest.mark.parametrize("seed", [6, 13])
    @pytest.mark.parametrize("eta", [1e-11, 1e-9, 1e-7])
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_rare_outcomes_of_an_eigenbasis_measurement_certify(self, d, eta, seed):
        e, impl = eigenbasis_case(d, eta, seed)
        cert = certify_gentle(e, impl, GentlenessSpec(0.1, 0.05))
        assert cert.certified
        assert cert.worst_prob == pytest.approx(1.0 - (d - 1) * eta, abs=1e-12)
        assert tuple(row.good for row in cert.outcomes) == (True,) + (False,) * (d - 1)

    @pytest.mark.parametrize("eta", [1e-11, 1e-9, 1e-7])
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_cli_certifies_them(self, d, eta, tmp_path, capsys):
        e, impl = eigenbasis_case(d, eta, 6)
        ens, povm = tmp_path / "ensemble.json", tmp_path / "povm.json"
        ens.write_text(json.dumps(ensemble_to_json(e)))
        povm.write_text(json.dumps(povm_to_json(impl)))
        argv = ["certify", str(ens), str(povm), "--alpha", "0.1", "--delta", "0.05"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["certified"] is True

    @staticmethod
    def roundings(e, impl):
        """Both roundings of every P[y | x]: tr(rho^x F_y) as clipped, and tr(B_y rho^x B_y†)."""
        b = impl.operators[:, None]
        norm = (b @ e.states @ b.conj().swapaxes(-1, -2)).trace(axis1=-2, axis2=-1).real
        return born_probabilities(e, impl.povm), norm

    def test_both_roundings_of_a_probability_decide_liveness(self):
        # at eta = ZERO_PROB, the two roundings can fall on opposite sides of it
        straddled = 0
        for seed in range(200):
            e, impl = eigenbasis_case(2, ZERO_PROB, seed)
            probs, norm = self.roundings(e, impl)
            live = (probs > ZERO_PROB) & (norm > ZERO_PROB)
            straddled += int(((probs > ZERO_PROB) != (norm > ZERO_PROB)).any())
            _, post, dist = collapse(e, impl)
            assert np.array_equal(dist >= 0.0, live)
            assert (dist[~live] == -1.0).all() and len(post) == live.sum()
            cert = certify_gentle(e, impl, GentlenessSpec(0.1, 0.05))
            assert cert.certified
            assert cert.worst_prob == pytest.approx(1.0, abs=1e-11)
        assert straddled > 0

    def test_cli_certifies_where_the_roundings_straddle(self, tmp_path, capsys):
        ens, povm = tmp_path / "ensemble.json", tmp_path / "povm.json"
        argv = ["certify", str(ens), str(povm), "--alpha", "0.1", "--delta", "0.05"]
        checked = 0
        for seed in range(200):
            e, impl = eigenbasis_case(2, ZERO_PROB, seed)
            probs, norm = self.roundings(e, impl)
            if not ((probs > ZERO_PROB) & (norm <= ZERO_PROB)).any():
                continue
            ens.write_text(json.dumps(ensemble_to_json(e)))
            povm.write_text(json.dumps(povm_to_json(impl)))
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["certified"] is True
            checked += 1
        assert checked > 0

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 8]),
        st.integers(-11, -1),
        st.sampled_from(["eigenbasis", "haar", "probe"]),
    )
    @settings(max_examples=80)
    def test_live_post_states_are_states_up_to_scaled_rounding(self, seed, d, log_eta, kind):
        # post states are states up to rounding that grows as 1/P[y | x]; eta stays above ZERO_PROB
        rng = np.random.default_rng(seed)
        eta = 10.0**log_eta
        w = np.array([1.0 - (d - 1) * eta] + [eta] * (d - 1))
        bases = [haar_unitary(d, rng) for _ in range(3)]
        e = CqEnsemble(np.full(3, 1.0 / 3.0), tuple((u * w) @ u.conj().T for u in bases))
        if kind == "eigenbasis":
            impl = projective_povm(bases[0])
        elif kind == "haar":
            impl = projective_povm(haar_unitary(d, rng))
        else:
            impl = gentle_povm(random_contraction(d, rng), float(rng.uniform(0.0, 0.1)))
        probs, post, _ = collapse(e, impl)
        p = probs[probs > ZERO_PROB]  # the live pairs, in the order of post
        adj = post.conj().swapaxes(-1, -2)
        assert np.abs(post.trace(axis1=-2, axis2=-1).real - 1.0).max() <= 1e-12
        assert (np.abs(post - adj).max(axis=(-2, -1)) <= 1e-14 / p).all()
        low = np.linalg.eigvalsh((post + adj) / 2.0)[:, 0]
        assert (-low <= 1e-14 / p).all()


def reference_certificate(e, impl, spec, mode):
    """certify_gentle pair by pair, from the public post_measurement_state and trace_distance."""
    probs = born_probabilities(e, impl.povm)
    good, dists = [], []
    for y in range(len(impl)):
        ds = [
            trace_distance(post_measurement_state(s, impl, y), s)
            for k, s in enumerate(e.states)
            if probs[y, k] > ZERO_PROB
        ]
        dists.append(max(ds, default=-1.0))
        good.append(all(x <= spec.alpha + 1e-12 for x in ds))
    good = np.array(good)
    if mode == "per-state":
        worst = float(probs[good].sum(axis=0).min())
    else:
        worst = float((probs @ e.probs)[good].sum())
    return worst >= 1.0 - spec.delta - 1e-12, worst, dists


class TestStackedCertification:
    """The stacked certify_gentle agrees with the pair-by-pair reference."""

    @staticmethod
    def assert_matches_reference(e, impl, spec):
        probs, post, dist = collapse(e, impl)
        live = np.argwhere(dist >= 0.0)
        assert np.array_equal(live, np.argwhere(probs > ZERO_PROB))
        for (y, k), state in zip(live, post):
            want = post_measurement_state(e.states[k], impl, y)
            assert np.max(np.abs(state - want)) <= 1e-12
        for mode in ("per-state", "average-state"):
            cert = certify_gentle(e, impl, spec, mode=mode)
            certified, worst, dists = reference_certificate(e, impl, spec, mode)
            assert cert.certified == certified
            assert abs(cert.worst_prob - worst) <= 1e-12
            got = [-1.0 if r.max_disturbance is None else r.max_disturbance for r in cert.outcomes]
            assert np.max(np.abs(np.array(got) - dists)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_random_ensembles(self, d):
        rng = np.random.default_rng(300 + d)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            states = tuple(
                random_density(d, rng, rank=int(rng.choice([1, d])))
                for _ in range(n)
            )
            e = CqEnsemble(rng.dirichlet(np.ones(n)), states)
            spec = GentlenessSpec(float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, 0.5)))
            probe = gentle_povm(random_contraction(d, rng), float(rng.uniform(0.0, 0.1)))
            for impl in (probe, projective_povm(haar_unitary(d, rng))):
                self.assert_matches_reference(e, impl, spec)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_zero_probability_outcomes(self, d):
        # each basis state is left alone by its own projector and never triggers the others
        basis = np.eye(d)
        e = CqEnsemble(np.full(d, 1.0 / d), tuple(pure_state(v) for v in basis))
        impl = projective_povm(basis)
        self.assert_matches_reference(e, impl, GentlenessSpec(0.0, 0.0))
        cert = certify_gentle(e, impl, GentlenessSpec(0.0, 0.0))
        assert cert.certified
        probs = np.array([row.probabilities for row in cert.outcomes])
        assert np.all(probs[~np.eye(d, dtype=bool)] == 0.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_exactly_gentle_branch_at_alpha_zero(self, d):
        # the identity probe's '+' branch is a multiple of I: it moves no state at all
        rng = np.random.default_rng(d)
        states = tuple(random_density(d, rng) for _ in range(3))
        e = CqEnsemble(np.full(3, 1.0 / 3), states)
        impl = gentle_povm(np.eye(d), 0.05)
        spec = GentlenessSpec(0.0, 0.0)
        self.assert_matches_reference(e, impl, spec)
        cert = certify_gentle(e, impl, spec)
        assert cert.outcomes[0].good and cert.certified


def first_order_disturbance(m, rho: np.ndarray, epsilon: float) -> float:
    """Leading-order post-measurement deviation of the '+' branch of the probe.

    eps * sqrt(2/(1-2 eps^2)) * || M rho + rho M - 2 tr(rho M) rho ||_1 / 2.
    The normalized expansion requires the minus sign on the trace term (the
    plus-signed variant is not traceless, so it cannot be a difference of
    states); exact disturbances are checked against this form.
    """
    a = np.asarray(m, dtype=complex)
    lead = a @ rho + rho @ a - 2.0 * np.trace(rho @ a).real * rho
    return float(epsilon * np.sqrt(2.0 / (1.0 - 2.0 * epsilon**2)) * 0.5 * trace_norm(lead))


class TestGentlePovm:
    def test_epsilon_zero_gives_coin_flip(self):
        g = gentle_povm(bb84_pair_probe(), 0.0)
        f = g.povm.elements
        assert np.allclose(f[0], np.eye(2) / 2)
        assert np.allclose(f[1], np.eye(2) / 2)
        assert np.allclose(f[2], np.zeros((2, 2)))

    def test_identity_probe_null_branch_vanishes(self):
        g = gentle_povm(np.eye(2), 0.05)
        assert np.allclose(g.operators[2], 0.0)

    def test_rejects_probe_outside_unit_interval(self):
        with pytest.raises(ValueError, match="eigenvalues"):
            gentle_povm(np.diag([1.5, 0.5]), 0.05)
        with pytest.raises(ValueError, match="eigenvalues"):
            gentle_povm(np.diag([-0.2, 0.5]), 0.05)

    def test_rejects_large_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            gentle_povm(np.eye(2), 0.2)

    def test_probe_at_the_upper_tolerance_edge(self, bb84):
        # eigenvalue 1 + 0.9e-9 passes the probe check; I - M^2 then dips to -1.8e-9
        m = np.diag([1.0 + 0.9e-9, 0.0])
        impl = gentle_povm(m, 0.05)
        again = PovmImplementation(Povm(impl.povm.elements), impl.operators)
        assert np.array_equal(again.operators, impl.operators)
        assert np.allclose(impl.operators[2], np.sqrt(2.0) * 0.05 * np.diag([0.0, 1.0]), atol=1e-15)
        cal = max_certified_epsilon(m, GentlenessSpec(0.1, 0.05), bb84)
        assert cal.epsilon == MAX_EPSILON and cal.certificate.certified

    def test_rejects_a_stacked_probe(self, bb84):
        stacked = np.array([np.eye(2), np.eye(2)]) / 2
        message = r"probe must be one square matrix, got shape \(2, 2, 2\)"
        with pytest.raises(ValueError, match=message):
            gentle_povm(stacked, 0.05)
        with pytest.raises(ValueError, match=message):
            max_certified_epsilon(stacked, GentlenessSpec(0.1, 0.05), bb84)

    def test_completeness_and_psd_random(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            m = random_contraction(d, rng)
            eps = float(rng.uniform(0.0, 0.1))
            g = gentle_povm(m, eps)
            total = sum(b @ b.conj().T for b in g.operators)
            assert np.max(np.abs(total - np.eye(d))) <= 1e-9

    def test_branch_disturbance_first_order(self):
        # exact disturbance of the +/- branches tracks eps with a stable slope
        rng = np.random.default_rng(23)
        m = random_contraction(2, rng)
        rho = pure_state([1.0, 0.4 + 0.2j])
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            impl = gentle_povm(m, eps)
            dist = trace_distance(post_measurement_state(rho, impl, 0), rho)
            ratios.append(dist / eps)
        assert ratios[1] == pytest.approx(ratios[2], rel=2e-2)

    def test_first_order_expression_matches_exact(self, bb84):
        # the minus-signed expansion agrees with brute force to O(eps^2)
        probe = bb84_pair_probe()
        for rho in bb84.states:
            for eps in (0.05, 0.01):
                impl = gentle_povm(probe, eps)
                exact = trace_distance(post_measurement_state(rho, impl, 0), rho)
                approx = first_order_disturbance(probe, rho, eps)
                assert abs(exact - approx) <= 5.0 * eps**2


class TestEpsilonCalibration:
    def test_identity_probe_hits_hard_cap(self, bb84):
        cal = max_certified_epsilon(np.eye(2), GentlenessSpec(0.1, 0.05), bb84)
        assert cal.epsilon == pytest.approx(0.1)

    def test_bb84_pair_probe_regression(self, bb84):
        # frozen calibration anchor for the canonical BB84 probe
        cal = max_certified_epsilon(bb84_pair_probe(), GentlenessSpec(0.1, 0.05), bb84)
        assert cal.epsilon == pytest.approx(0.1, abs=1e-12)

    def test_tight_alpha_yields_interior_epsilon(self, bb84):
        spec = GentlenessSpec(0.01, 0.001)
        cal = max_certified_epsilon(bb84_pair_probe(), spec, bb84)
        assert 0.0 < cal.epsilon < 0.1
        ok = certify_gentle(
            bb84, gentle_povm(bb84_pair_probe(), cal.epsilon), spec
        )
        assert ok.certified


def reference_calibration(m, spec, e, mode="per-state"):
    """max_certified_epsilon as one gentle_povm and certify_gentle call per bisection step."""
    a = (np.asarray(m) + np.asarray(m).conj().T) / 2.0

    def certifies(eps):
        return certify_gentle(e, gentle_povm(a, eps), spec, mode).certified

    if certifies(0.1):
        return 0.1
    lo, hi = 0.0, 0.1
    for _ in range(31):
        mid = 0.5 * (lo + hi)
        if certifies(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestCalibrationMatchesReference:
    """The calibration returns the reference's epsilon, float for float."""

    @staticmethod
    def assert_same(m, spec, e, mode):
        cal = max_certified_epsilon(m, spec, e, mode=mode)
        assert cal.epsilon == reference_calibration(m, spec, e, mode)
        if cal.epsilon == 0.0:
            assert cal.certificate is None
        else:
            fresh = certify_gentle(e, gentle_povm(m, cal.epsilon), spec, mode)
            assert cal.certificate == fresh
        return cal.epsilon

    @pytest.mark.parametrize("mode", ["per-state", "average-state"])
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_random_ensembles(self, d, mode):
        rng = np.random.default_rng([41, d])
        found = []
        for _ in range(4):
            n = int(rng.integers(2, 5))
            states = tuple(
                random_density(d, rng, rank=int(rng.integers(1, d + 1)))
                for _ in range(n)
            )
            e = CqEnsemble(rng.dirichlet(np.ones(n)), states)
            spec = GentlenessSpec(float(rng.uniform(0.0, 0.05)), float(rng.uniform(0.0, 0.05)))
            found.append(self.assert_same(random_contraction(d, rng), spec, e, mode))
        assert any(0.0 < eps < 0.1 for eps in found)

    @pytest.mark.parametrize("mode", ["per-state", "average-state"])
    def test_early_exit_at_the_hard_cap(self, bb84, mode):
        rng = np.random.default_rng(5)
        for m in (np.eye(2), random_contraction(2, rng)):
            assert self.assert_same(m, GentlenessSpec(0.5, 0.5), bb84, mode) == 0.1

    @pytest.mark.parametrize("mode", ["per-state", "average-state"])
    @pytest.mark.parametrize("d", [2, 4])
    def test_probe_that_never_certifies(self, d, mode):
        # at alpha = 0 every +/- branch of a generic probe moves some state
        rng = np.random.default_rng([43, d])
        states = tuple(random_density(d, rng) for _ in range(3))
        e = CqEnsemble(np.full(3, 1.0 / 3), states)
        m = random_contraction(d, rng)
        assert self.assert_same(m, GentlenessSpec(0.0, 0.0), e, mode) == 0.0

    @pytest.mark.parametrize(
        "spec", [GentlenessSpec(0.1, 0.05), GentlenessSpec(0.1, 0.0), GentlenessSpec(0.01, 0.001)]
    )
    def test_bb84_pins(self, bb84, spec):
        for mode in ("per-state", "average-state"):
            self.assert_same(bb84_pair_probe(), spec, bb84, mode)

    @pytest.mark.parametrize(
        "spec, calls",
        [
            (GentlenessSpec(0.5, 0.5), 1),
            (GentlenessSpec(0.01, 0.001), 1 + BISECTION_STEPS),
            (GentlenessSpec(0.0, 0.0), 1 + BISECTION_STEPS),
        ],
    )
    def test_one_certify_gentle_call_per_tried_strength(self, bb84, spec, calls, monkeypatch):
        # the early exit tries 1/10 only; otherwise 1/10 and every bisection midpoint, the
        # 32 certify_gentle calls per calibration that the benchmark's certify workload counts
        assert 1 + BISECTION_STEPS == 32
        tried = []
        real = measurements.certify_gentle

        def counting(e, impl, spec, mode="per-state"):
            tried.append(impl)
            return real(e, impl, spec, mode)

        monkeypatch.setattr(measurements, "certify_gentle", counting)
        cal = max_certified_epsilon(bb84_pair_probe(), spec, bb84)
        assert len(tried) == calls
        assert (cal.epsilon == MAX_EPSILON) == (calls == 1)

    def test_rejects_invalid_probe_and_mode(self, bb84):
        spec = GentlenessSpec(0.1, 0.05)
        for m in (np.diag([1.5, 0.5]), np.diag([-0.2, 0.5])):
            with pytest.raises(ValueError, match="eigenvalues"):
                max_certified_epsilon(m, spec, bb84)
        with pytest.raises(ValueError, match="mode"):
            max_certified_epsilon(bb84_pair_probe(), spec, bb84, mode="average")


class TestProjectivePovm:
    def test_identity_basis_is_z(self):
        impl = projective_povm(np.eye(2))
        assert np.allclose(impl.povm.elements[0], np.diag([1.0, 0.0]))

    def test_hadamard_basis_is_x(self):
        impl = projective_povm(HADAMARD)
        assert np.allclose(impl.povm.elements[0], np.full((2, 2), 0.5))

    def test_completeness(self):
        rng = np.random.default_rng(8)
        impl = projective_povm(haar_unitary(4, rng))
        assert np.max(np.abs(sum(impl.povm.elements) - np.eye(4))) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            projective_povm(np.diag([1.0, 2.0]))


class TestPovmJson:
    def test_roundtrip_with_implementation(self):
        impl = projective_povm(HADAMARD)
        povm, back = povm_from_json(povm_to_json(impl))
        assert back is not None
        for a, b in zip(back.operators, impl.operators):
            assert np.allclose(a, b)

    def test_roundtrip_without_implementation(self):
        povm = projective_povm(np.eye(2)).povm
        back, impl = povm_from_json(povm_to_json(povm))
        assert impl is None
        assert len(back) == 2

    def test_rejects_bad_schema(self):
        with pytest.raises(SchemaError):
            povm_from_json({"labels": []})
        with pytest.raises(SchemaError, match="element 0"):
            povm_from_json({"elements": [{"dim": 2}]})


class TestOnePassParse:
    """A bad last matrix of a three-matrix list is named as a lone matrix would be."""

    @pytest.fixture
    def docs(self):
        e = CqEnsemble(np.full(3, 1 / 3), bb84_ensemble().states[:3])
        return ensemble_to_json(e), povm_to_json(gentle_povm(bb84_pair_probe(), 0.05))

    @pytest.mark.parametrize(
        "cell, text",
        [
            ([True, 0.0], ": matrix entries must be [re, im] pairs of numbers, got bool"),
            (["0", 0.0], ": matrix entries must be [re, im] pairs of numbers, got str"),
            ([None, 0.0], ": matrix entries must be [re, im] pairs of numbers, got NoneType"),
            ([0.0], ": matrix entries must be [re, im] pairs"),
            ([float("nan"), 0.0], ": matrix has non-finite entries"),
            (None, " has dimension 3, expected 2"),
        ],
        ids=["bool", "string", "null", "one-number", "nan", "mixed-dimension"],
    )
    @pytest.mark.parametrize(
        "where, name",
        [("states", "state 2"), ("elements", "element 2"),
         ("implementation", "implementation: operator 2")],
    )
    def test_names_the_last_matrix(self, docs, cell, text, where, name):
        ensemble, povm = docs
        doc = ensemble if where == "states" else povm
        if cell is None:
            doc[where][2] = matrix_to_json(np.diag([1.0, 0.0, 0.0]))
        else:
            doc[where][2]["entries"][1][1] = cell
        parse = ensemble_from_json if where == "states" else povm_from_json
        with pytest.raises(SchemaError) as info:
            parse(json.loads(json.dumps(doc)))  # NaN as a JSON literal
        assert str(info.value) == name + text

    def test_certification_never_calls_eigh(self, monkeypatch):
        e = bb84_ensemble()
        impl = gentle_povm(bb84_pair_probe(), 0.05)  # the probe's square root needs eigh

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        e = CqEnsemble(e.probs, e.states, e.labels)
        impl = PovmImplementation(Povm(impl.povm.elements), impl.operators)
        cert = certify_gentle(e, impl, GentlenessSpec(0.1, 0.05))
        assert cert.worst_disturbance > 0.0


def _json_matrix(m) -> dict:
    """The matrix document of m, which may hold nan: matrix_to_json refuses it."""
    rows = np.asarray(m, dtype=complex).tolist()
    return {"dim": len(rows), "entries": [[[z.real, z.imag] for z in row] for row in rows]}


class TestJsonAndConstructorsAgree:
    """A JSON document fails with the text its constructor gives on the same matrices."""

    BAD = {
        "nan": [[np.nan, 0.0], [0.0, 1.0]],
        "not-hermitian": [[0.5, 0.3], [0.0, 0.5]],
        "not-psd": [[0.5, 0.7], [0.7, 0.5]],
        "bad-trace": [[0.5, 0.0], [0.0, 0.25]],
        "dimension": np.diag([1.0, 0.0, 0.0]),
    }

    @staticmethod
    def _texts(base, kinds, where, build, parse):
        """Per ordered pair of kinds: (pair, constructor text, JSON text) where they differ."""
        differ = []
        for first, second in itertools.permutations(kinds, 2):
            mats = list(base)
            for i, kind in zip(where, (first, second)):
                mats[i] = kinds[kind]
            with pytest.raises(ValueError) as api:
                build(mats)
            with pytest.raises(SchemaError) as doc:
                parse([_json_matrix(m) for m in mats])
            if str(doc.value) != str(api.value):
                differ.append(((first, second), str(api.value), str(doc.value)))
        return differ

    @pytest.mark.parametrize("where", [(0, 1), (1, 2), (2, 0)])
    def test_states(self, bb84, where):
        labels = list(bb84.labels)

        def parse(docs):
            doc = {"labels": labels, "probs": [0.25] * 4, "states": docs}
            return ensemble_from_json(json.loads(json.dumps(doc)))  # NaN as a JSON literal

        def build(mats):
            return CqEnsemble(np.full(4, 0.25), mats, tuple(labels))

        assert self._texts(bb84.states, self.BAD, where, build, parse) == []

    @pytest.mark.parametrize("where", [(0, 1), (1, 2), (2, 0)])
    def test_povm_elements(self, where):
        elements = gentle_povm(bb84_pair_probe(), 0.05).povm.elements
        kinds = {k: m for k, m in self.BAD.items() if k != "bad-trace"}

        def parse(docs):
            return povm_from_json(json.loads(json.dumps({"elements": docs})))

        assert self._texts(elements, kinds, where, Povm, parse) == []

    @pytest.mark.parametrize("where", [(0, 1), (1, 2), (2, 0)])
    def test_implementation_operators(self, where):
        impl = gentle_povm(bb84_pair_probe(), 0.05)
        kinds = {"nan": self.BAD["nan"], "dimension": self.BAD["dimension"],
                 "off-element": 2.0 * impl.operators[0]}
        povm_doc = povm_to_json(impl.povm)

        def build(ops):
            try:
                return PovmImplementation(impl.povm, ops)
            except ValueError as exc:
                raise ValueError(f"implementation: {exc}") from exc

        def parse(docs):
            doc = dict(povm_doc, implementation=docs)
            return povm_from_json(json.loads(json.dumps(doc)))

        assert self._texts(impl.operators, kinds, where, build, parse) == []
