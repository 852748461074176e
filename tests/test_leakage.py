import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubit_oracle import qubit_grid_oracle

from gentleleak import leakage
from gentleleak.leakage import (
    GAP_TOL,
    GentleLeakageInterval,
    LeakageEstimate,
    depolarized_leakage,
    gentle_leakage_interval,
    leakage_upper_bound,
    maximal_quantum_leakage,
    sibson_infinity,
)
from gentleleak.linalg import (
    ConvergenceError,
    haar_unitary,
    positive_part,
    random_density,
    trace_distance,
)
from gentleleak.measurements import (
    GentlenessSpec,
    born_probabilities,
    certify_gentle,
    gentle_povm,
    projective_povm,
)
from gentleleak.states import (
    CqEnsemble,
    apply_unitary,
    bb84_ensemble,
    depolarize,
    pure_state,
    unitary_disturbance,
)

@pytest.fixture
def bb84():
    return bb84_ensemble()


def random_qubit_ensemble(rng):
    n = int(rng.integers(2, 5))
    probs = rng.uniform(0.2, 1.0, n)
    probs /= probs.sum()
    states = tuple(
        random_density(2, rng, rank=int(rng.integers(1, 3))) for _ in range(n)
    )
    return CqEnsemble(probs, states)


class TestSibson:
    def test_independent_channel_is_zero(self):
        p = np.full((3, 4), 1.0 / 3.0)
        assert sibson_infinity(p) == 0.0

    def test_identity_channel(self):
        assert sibson_infinity(np.eye(4)) == pytest.approx(2.0)

    def test_bb84_x_basis_gives_one_bit(self, bb84):
        from gentleleak.measurements import projective_povm

        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        p = born_probabilities(bb84, projective_povm(h).povm)
        assert sibson_infinity(p) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            sibson_infinity(np.array([[0.5, 0.5], [0.1, 0.1]]))
        with pytest.raises(ValueError):
            sibson_infinity(np.array([1.0, 0.0]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_outcome_count(self, seed):
        rng = np.random.default_rng(seed)
        ny, nx = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        p = rng.uniform(0.0, 1.0, (ny, nx)) + 1e-6
        p /= p.sum(axis=0, keepdims=True)
        val = sibson_infinity(p)
        assert 0.0 <= val <= np.log2(ny) + 1e-12


class TestUpperBound:
    def test_bb84(self, bb84):
        assert leakage_upper_bound(bb84) == pytest.approx(1.0)

    def test_single_item(self):
        e = CqEnsemble(np.array([1.0]), (pure_state([1, 0]),))
        assert leakage_upper_bound(e) == 0.0

    def test_three_symbols_dim_four(self):
        rng = np.random.default_rng(0)
        states = tuple(random_density(4, rng) for _ in range(3))
        e = CqEnsemble(np.full(3, 1 / 3), states)
        assert leakage_upper_bound(e) == pytest.approx(np.log2(3.0))


class TestDepolarizedLeakage:
    def test_endpoints(self):
        assert depolarized_leakage(1.0, 1.0) == 0.0
        assert depolarized_leakage(1.0, 0.0) == 1.0

    def test_half(self):
        assert depolarized_leakage(1.0, 0.5) == pytest.approx(np.log2(1.5))

    @given(st.floats(0.001, 2.0), st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing_when_positive(self, bits, p_lo, p_hi):
        lo, hi = sorted((p_lo, p_hi))
        if hi > lo:
            assert depolarized_leakage(bits, hi) < depolarized_leakage(bits, lo) + 1e-15


class TestMaximalLeakage:
    def test_identical_states_exact_zero(self):
        e = CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([1, 0])))
        est = maximal_quantum_leakage(e)
        assert est.bits == 0.0
        assert est.upper_bits - est.bits <= 1e-12

    def test_commuting_closed_form(self):
        e = CqEnsemble(
            np.array([0.5, 0.5]),
            (np.diag([1.0, 0.0]), np.diag([0.25, 0.75])),
        )
        est = maximal_quantum_leakage(e)
        assert est.upper_bits - est.bits <= 1e-12
        assert est.bits == pytest.approx(np.log2(1.75), abs=1e-12)
        # independent check: the exhaustive qubit scan reaches the same value
        assert qubit_grid_oracle(e, 361).bits == pytest.approx(est.bits, abs=1e-9)

    def test_bb84_one_bit(self, bb84):
        est = maximal_quantum_leakage(bb84)
        assert est.upper_bits - est.bits <= 1e-12
        assert est.bits == pytest.approx(1.0, abs=1e-12)

    def test_achieving_povm_reproduces_value(self, bb84):
        est = maximal_quantum_leakage(bb84)
        assert est.achieving_povm is not None
        recomputed = sibson_infinity(born_probabilities(bb84, est.achieving_povm))
        assert recomputed == pytest.approx(est.bits, abs=1e-9)

    def test_zero_implies_identical_states(self):
        # positivity converse: a ~zero estimate forces ~identical states
        rng = np.random.default_rng(77)
        for _ in range(10):
            e = random_qubit_ensemble(rng)
            est = maximal_quantum_leakage(e)
            max_dist = max(
                trace_distance(e.states[i], e.states[j])
                for i in range(len(e))
                for j in range(i + 1, len(e))
            )
            assert max_dist <= 2.0**est.bits - 1.0 + 1e-8

    def test_respects_structural_cap(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            e = random_qubit_ensemble(rng)
            est = maximal_quantum_leakage(e)
            assert est.bits <= leakage_upper_bound(e) + 1e-9

    def test_estimate_validation(self):
        povm = projective_povm(np.eye(2)).povm
        with pytest.raises(ValueError):
            LeakageEstimate(
                bits=-0.5, upper_bits=0.5, iterations=1, achieving_povm=povm, dual=np.eye(2)
            )
        with pytest.raises(ValueError):
            LeakageEstimate(
                bits=0.5, upper_bits=0.4, iterations=1, achieving_povm=povm, dual=np.eye(2)
            )


def trine_ensemble():
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    states = tuple(pure_state([np.cos(a), np.sin(a)]) for a in angles)
    return CqEnsemble(np.full(3, 1.0 / 3.0), states)


def random_ensemble(rng, d, n, rank=None):
    states = tuple(random_density(d, rng, rank=rank) for _ in range(n))
    return CqEnsemble(np.full(n, 1.0 / n), states)


def seeded_sweep(seed):
    """250 ensembles (d, n, rank, ensemble): d in {2, 3, 4, 8}, 2-6 states, pure or full rank."""
    rng = np.random.default_rng(seed)
    for _ in range(250):
        d, n = int(rng.choice([2, 3, 4, 8])), int(rng.integers(2, 7))
        rank = 1 if rng.integers(2) else None
        yield d, n, rank, random_ensemble(rng, d, n, rank)


@pytest.fixture
def no_ball(monkeypatch):
    """Solve without the Bloch-ball start candidate, so every uncertified start takes Newton steps."""
    monkeypatch.setattr(leakage, "_bloch_ball_povm", lambda rho: None)


def assert_certified(est, e):
    assert 0.0 <= est.bits <= est.upper_bits + 1e-15
    assert est.upper_bits <= leakage_upper_bound(e) + 1e-15
    assert est.upper_bits - est.bits <= GAP_TOL
    total = sum(est.achieving_povm.elements)
    assert np.max(np.abs(total - np.eye(e.dim))) <= 1e-13
    recomputed = sibson_infinity(born_probabilities(e, est.achieving_povm))
    assert recomputed == pytest.approx(est.bits, abs=1e-12)


class TestCertifiedSolver:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_ensembles_certified(self, d):
        rng = np.random.default_rng(400 + d)
        for n in (2, 3, 4):
            for rank in (1, None):
                e = random_ensemble(rng, d, n, rank)
                assert_certified(maximal_quantum_leakage(e), e)

    def test_trine_one_bit(self):
        e = trine_ensemble()
        est = maximal_quantum_leakage(e)
        assert_certified(est, e)
        assert est.bits == pytest.approx(1.0, abs=1e-12)
        # projective measurements fall short: the trine optimum needs three outcomes
        assert qubit_grid_oracle(e, 181).bits < 0.95

    def test_rank_deficient_support(self):
        # three pure states span 3 of 4 dimensions, so R is singular
        e = random_ensemble(np.random.default_rng(3), 4, 3, rank=1)
        assert_certified(maximal_quantum_leakage(e), e)

    def test_degenerate_optimum(self):
        # rng 77 draws outcomes whose optimal weight is zero while their state
        # touches the dual: the optimum is not strictly complementary
        rng = np.random.default_rng(77)
        for _ in range(10):
            e = random_qubit_ensemble(rng)
            assert_certified(maximal_quantum_leakage(e), e)

    def test_unitary_invariance_within_gap(self):
        rng = np.random.default_rng(8)
        e = random_ensemble(rng, 3, 4)
        base = maximal_quantum_leakage(e)
        for _ in range(3):
            rotated = maximal_quantum_leakage(apply_unitary(e, haar_unitary(3, rng)))
            assert abs(rotated.bits - base.bits) <= GAP_TOL
            assert abs(rotated.upper_bits - base.upper_bits) <= GAP_TOL

    def test_budget_exhaustion_raises(self, monkeypatch):
        e = random_ensemble(np.random.default_rng(9), 3, 4)
        monkeypatch.setattr(leakage, "MAX_ITERS", 1)
        with pytest.raises(ConvergenceError):
            maximal_quantum_leakage(e)

    def test_stalled_gap_fails_fast(self, monkeypatch):
        # no gap reaches a negative tolerance: once a step can no longer lower
        # the duality measure, the solve must fail long before the budget ends
        e = random_ensemble(np.random.default_rng(9), 3, 4)
        monkeypatch.setattr(leakage, "GAP_TOL", -1.0)
        steps = []
        step = leakage._newton_step
        monkeypatch.setattr(
            leakage, "_newton_step", lambda rho, g, y: steps.append(1) or step(rho, g, y)
        )
        with pytest.raises(ConvergenceError, match="stalled"):
            maximal_quantum_leakage(e)
        assert len(steps) < leakage.MAX_ITERS // 2

    @pytest.mark.parametrize("seed, rank", [(304, 1), (330, None), (662, 1)])
    def test_six_state_qubit_ensembles(self, seed, rank):
        # six-state qubit ensembles on which a Jezek-Rehacek-Fiurasek fixed point
        # stalls at gaps of 5e-6 to 6e-5 bits
        e = random_ensemble(np.random.default_rng(seed), 2, 6, rank)
        est = maximal_quantum_leakage(e)
        assert_certified(est, e)
        assert est.iterations == 1  # the Bloch-ball start candidate

    @pytest.mark.parametrize("seed, rank", [(304, 1), (330, None), (662, 1)])
    def test_six_state_qubit_ensembles_newton_path(self, seed, rank, no_ball):
        e = random_ensemble(np.random.default_rng(seed), 2, 6, rank)
        est = maximal_quantum_leakage(e)
        assert_certified(est, e)
        assert est.iterations > 1

    def test_seeded_sweep_certifies(self):
        for d, n, rank, e in seeded_sweep(2024):
            est = maximal_quantum_leakage(e)
            assert_certified(est, e)
            if d == 2 or (n, rank) == (2, 1):  # a two-dimensional support
                assert est.iterations == 1

    def test_seeded_qubit_sweep_newton_path(self, no_ball):
        for d, n, rank, e in seeded_sweep(2024):
            if d == 2:
                est = maximal_quantum_leakage(e)
                assert_certified(est, e)
                # for two pure states the square-root measurement is Helstrom's
                assert est.iterations > 1 or (n, rank) == (2, 1)


def bloch_ensemble(vectors):
    """Equiprobable qubit states (I + r.sigma)/2, one per Bloch vector."""
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    states = tuple((np.eye(2) + np.einsum("a,aij->ij", r, sigma)) / 2.0 for r in vectors)
    return CqEnsemble(np.full(len(states), 1.0 / len(states)), states)


ARC = [(np.cos(t), np.sin(t), 0.0) for t in np.radians([0.0, 30.0, 60.0, 90.0])]


class TestBlochBall:
    """Support of dimension two: the smallest ball around the Bloch vectors, radius R, gives
    log2(1 + R) bits, and its POVM certifies before any Newton step."""

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("rank", [1, None])
    def test_two_states_match_helstrom(self, d, rank):
        rng = np.random.default_rng(90 + d)
        for _ in range(5):
            e = random_ensemble(rng, d, 2, rank)
            est = maximal_quantum_leakage(e)
            helstrom = np.log2(1.0 + trace_distance(e.states[0], e.states[1]))
            assert_certified(est, e)
            assert abs(est.bits - helstrom) <= GAP_TOL
            assert abs(est.upper_bits - helstrom) <= GAP_TOL

    @pytest.mark.parametrize(
        "vectors, radius",
        [
            pytest.param(np.vstack([np.eye(3), -np.eye(3)]), 1.0, id="six-states"),
            pytest.param(ARC, np.sqrt(0.5), id="four-coplanar"),
            pytest.param(np.outer([0.9, 0.2, -0.5, -0.1], [0.6, 0.0, 0.8]), 0.7, id="collinear"),
            pytest.param(
                [(0.5, 0, 0), (-0.5, 0, 0), (0, 0.3, 0), (0, 0, 0.1), (0.1, 0.1, 0.1)],
                0.5,
                id="mixed-inside",
            ),
            pytest.param([(0.3, 0.4, 0.0)] * 3, 0.0, id="identical-mixed"),
        ],
    )
    def test_geometry_certifies_at_once(self, vectors, radius):
        e = apply_unitary(bloch_ensemble(np.asarray(vectors, dtype=float)),
                          haar_unitary(2, np.random.default_rng(3)))
        est = maximal_quantum_leakage(e)
        assert_certified(est, e)
        assert est.iterations == 1
        assert abs(est.bits - np.log2(1.0 + radius)) <= GAP_TOL

    @pytest.mark.parametrize(
        "vectors, radius", [(np.vstack([np.eye(3), -np.eye(3)]), 1.0), (ARC, np.sqrt(0.5))]
    )
    def test_candidate_alone_reaches_the_ball(self, vectors, radius):
        # the square-root measurement is not optimal on the arc; the helper's POVM must be
        e = bloch_ensemble(np.asarray(vectors, dtype=float))
        g = leakage._bloch_ball_povm(e.states)
        assert np.max(np.abs(g.sum(axis=0) - np.eye(2))) <= 1e-13
        assert np.linalg.eigvalsh(g).min() >= -1e-13
        bits = sibson_infinity(np.einsum("xij,yji->yx", e.states, g).real)
        assert bits == pytest.approx(np.log2(1.0 + radius), abs=1e-12)

    def test_two_dimensional_support_in_eight_dimensions(self):
        rng = np.random.default_rng(12)
        qubit = random_ensemble(rng, 2, 4)
        iso = haar_unitary(8, rng)[:, :2]
        e = CqEnsemble(qubit.probs, tuple(iso @ rho @ iso.conj().T for rho in qubit.states))
        est = maximal_quantum_leakage(e)
        assert_certified(est, e)
        assert est.iterations == 1
        assert abs(est.bits - maximal_quantum_leakage(qubit).bits) <= GAP_TOL


class TestGridOracle:
    def test_bb84_hits_one_bit(self, bb84):
        est = qubit_grid_oracle(bb84, 721)
        assert est.bits >= 1.0 - 1e-6

    def test_identical_states(self):
        e = CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([1, 0])))
        assert qubit_grid_oracle(e, 91).bits == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair_perfectly_distinguishable(self):
        e = CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([0, 1])))
        assert qubit_grid_oracle(e, 91).bits == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_qubit(self):
        rng = np.random.default_rng(0)
        states = tuple(random_density(3, rng) for _ in range(2))
        e = CqEnsemble(np.array([0.5, 0.5]), states)
        with pytest.raises(ValueError):
            qubit_grid_oracle(e)

    def test_rotation_stability(self, bb84):
        base = qubit_grid_oracle(bb84, 361).bits
        rng = np.random.default_rng(11)
        for _ in range(5):
            rotated = apply_unitary(bb84, haar_unitary(2, rng))
            assert qubit_grid_oracle(rotated, 361).bits == pytest.approx(base, abs=1e-6)


class TestOptimizerVsOracle:
    def test_fifty_random_ensembles(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            e = random_qubit_ensemble(rng)
            opt = maximal_quantum_leakage(e)
            orc = qubit_grid_oracle(e, 181)
            assert opt.upper_bits >= orc.bits - 1e-12
            assert opt.bits >= orc.bits - GAP_TOL


class TestDepolarizingConsistency:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_oracle_matches_closed_form(self, p, bb84):
        base = qubit_grid_oracle(bb84, 361).bits
        noisy = qubit_grid_oracle(depolarize(bb84, p), 361).bits if p < 1.0 else None
        expected = depolarized_leakage(base, p)
        if p == 1.0:
            e = depolarize(bb84, 1.0)
            est = maximal_quantum_leakage(e)
            assert est.bits == 0.0
        else:
            assert noisy == pytest.approx(expected, abs=1e-6)


class TestUnitaryInvariance:
    def test_oracle_and_optimizer(self, bb84):
        rng = np.random.default_rng(31)
        base_oracle = qubit_grid_oracle(bb84, 361).bits
        base_opt = maximal_quantum_leakage(bb84).bits
        for _ in range(5):
            rotated = apply_unitary(bb84, haar_unitary(2, rng))
            assert qubit_grid_oracle(rotated, 361).bits == pytest.approx(base_oracle, abs=1e-6)
            assert maximal_quantum_leakage(rotated).bits == pytest.approx(base_opt, abs=2e-12)


class TestGentleInterval:
    def test_saturates_at_alpha_one(self, bb84):
        iv = gentle_leakage_interval(bb84, GentlenessSpec(1.0, 0.3))
        assert iv.lower_bits == iv.upper_bits
        assert iv.lower_witness == "maximal-leakage-povm"

    def test_saturates_at_delta_one(self, bb84):
        iv = gentle_leakage_interval(bb84, GentlenessSpec(0.2, 1.0))
        assert iv.lower_bits == iv.upper_bits
        assert iv.lower_witness == "maximal-leakage-povm"

    def test_bb84_alpha_point_one(self, bb84):
        iv = gentle_leakage_interval(bb84, GentlenessSpec(0.1, 0.2))
        assert iv.lower_bits >= 0.7608 - 5e-4
        assert iv.upper_bits <= 1.0 + 1e-9
        assert iv.lower_witness == "cloning-bound"

    def test_identical_states_interval_is_zero(self):
        e = CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([1, 0])))
        iv = gentle_leakage_interval(e, GentlenessSpec(0.3, 0.1))
        assert iv.lower_bits == pytest.approx(0.0, abs=1e-12)
        assert iv.upper_bits == pytest.approx(0.0, abs=1e-12)

    def test_single_state_has_no_probes(self):
        e = CqEnsemble(np.array([1.0]), (pure_state([1, 0]),))
        iv = gentle_leakage_interval(e, GentlenessSpec(0.1, 0.05))
        assert iv.meta["search_bits"] == 0.0
        assert iv.meta["search"] == {"probes": 0}

    def test_lower_non_decreasing_in_alpha(self, bb84):
        prev = -1.0
        for alpha in (0.0, 0.05, 0.1, 0.3, 0.6, 1.0):
            iv = gentle_leakage_interval(bb84, GentlenessSpec(alpha, 0.05))
            assert iv.lower_bits >= prev - 1e-9
            prev = iv.lower_bits

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            GentleLeakageInterval(
                lower_bits=0.9, upper_bits=0.5, lower_witness="cloning-bound",
                spec=GentlenessSpec(0.1, 0.1),
            )

    def test_lower_above_certified_upper_raises(self, bb84, monkeypatch):
        # a witness above the certified supremum is an error, not a wider interval
        real = leakage.cloning_lower_bound

        def inflated(e, alpha, q_bits):
            return dataclasses.replace(real(e, alpha, q_bits), lower_bits=q_bits + 0.5)

        monkeypatch.setattr(leakage, "cloning_lower_bound", inflated)
        with pytest.raises(ValueError, match="invalid interval"):
            gentle_leakage_interval(bb84, GentlenessSpec(0.1, 0.2))


class TestIntervalProperties:
    """Physical laws on both ends of the interval, over derandomized d <= 4 ensembles."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3, 4]),
        n=st.integers(2, 4),
        pure=st.booleans(),
        alpha=st.floats(0.0, 0.6),
        delta=st.floats(0.0, 0.6),
        p=st.floats(0.05, 1.0),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_invariance_noise_and_cap(self, seed, d, n, pure, alpha, delta, p):
        rng = np.random.default_rng(seed)
        e = random_ensemble(rng, d, n, 1 if pure else None)
        spec = GentlenessSpec(alpha, delta)
        iv = gentle_leakage_interval(e, spec)
        assert 0.0 <= iv.lower_bits <= iv.upper_bits <= leakage_upper_bound(e)
        rotated = gentle_leakage_interval(apply_unitary(e, haar_unitary(d, rng)), spec)
        assert abs(rotated.lower_bits - iv.lower_bits) <= 1e-9
        assert abs(rotated.upper_bits - iv.upper_bits) <= 1e-9
        assert gentle_leakage_interval(depolarize(e, p), spec).upper_bits <= iv.upper_bits


class TestGentleProbeSearch:
    """The interval's pairwise probe search, pinned on BB84 to its floats."""

    @pytest.mark.parametrize(
        "spec, bits, epsilon",
        [
            (GentlenessSpec(0.1, 0.05), 0.20163386116965068, 0.1),
            # 1/10 fails here, so every calibration runs the bisection
            (GentlenessSpec(0.01, 0.001), 0.028556704589971744, 0.014000062830746177),
        ],
    )
    def test_bb84_pins(self, bb84, spec, bits, epsilon):
        iv = gentle_leakage_interval(bb84, spec)
        assert iv.meta["search_bits"] == bits
        assert iv.meta["search"] == {
            "probes": 12, "best_pair": ("(1,0)", "(1,1)"), "epsilon": epsilon
        }
        # the reported best witness, rebuilt from public calls, certifies at search_bits
        i, j = (bb84.labels.index(label) for label in iv.meta["search"]["best_pair"])
        mats = bb84.states
        impl = gentle_povm(positive_part(mats[i] - mats[j]), epsilon)
        cert = certify_gentle(bb84, impl, spec)
        assert cert.certified
        assert sibson_infinity(cert.outcome_probs) == bits


def dual_cases():
    rng = np.random.default_rng(808)
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    yield pytest.param(bb84_ensemble(), id="bb84")
    trine = tuple(pure_state([np.cos(a), np.sin(a)]) for a in angles)
    yield pytest.param(CqEnsemble(np.full(3, 1.0 / 3), trine), id="trine")
    for d, n in ((3, 4), (8, 6), (4, 2)):  # the last has fewer states than dimensions
        states = tuple(random_density(d, rng) for _ in range(n))
        yield pytest.param(CqEnsemble(rng.dirichlet(np.ones(n)), states), id=f"d{d}-n{n}")
    # the cap log2 min(|X|, d) is reached at |X| < d; its dual is sum_x rho^x
    orthogonal = (pure_state([1, 0, 0]), pure_state([0, 1, 0]))
    yield pytest.param(CqEnsemble(np.full(2, 0.5), orthogonal), id="orthogonal-d3-n2")


class TestDualCertificate:
    """The leakage JSON carries the feasible Y behind upper_bits; numpy alone checks it."""

    @pytest.mark.parametrize("e", dual_cases())
    def test_dual_is_feasible_and_prices_upper_bits(self, e):
        doc = json.loads(json.dumps(maximal_quantum_leakage(e).to_json()))
        y = np.array([[re + 1j * im for re, im in row] for row in doc["dual"]["entries"]])
        for rho in e.states:
            assert np.linalg.eigvalsh(y - rho).min() >= -1e-12
        assert abs(np.log2(np.trace(y).real) - doc["upper_bits"]) <= 1e-12


class TestWeakDpiAtBoundLevel:
    def test_rotations_never_beat_shifted_alpha(self, bb84):
        from gentleleak.cloning import cloning_lower_bound

        rng = np.random.default_rng(13)
        alpha = 0.15
        for _ in range(5):
            u = haar_unitary(2, rng)
            rotated = apply_unitary(bb84, u)
            beta = unitary_disturbance(bb84, u)
            q_rot = qubit_grid_oracle(rotated, 361).bits
            q_base = qubit_grid_oracle(bb84, 361).bits
            lhs = cloning_lower_bound(rotated, alpha, q_rot).lower_bits
            rhs = cloning_lower_bound(bb84, min(alpha + beta, 1.0), q_base).lower_bits
            assert lhs <= rhs + 1e-9
