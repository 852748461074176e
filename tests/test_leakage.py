import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubit_oracle import povm_bits, projective_bits
from random_matrices import haar_unitary, random_density

from gentleleak import leakage, measurements
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
from gentleleak.linalg import ConvergenceError, _positive_part, trace_distance
from gentleleak.measurements import (
    BISECTION_STEPS,
    MAX_EPSILON,
    GentlenessSpec,
    born_probabilities,
    certify_gentle,
    gentle_povm,
    max_certified_epsilon,
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
    @settings(max_examples=40)
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
    @settings(max_examples=50)
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
        # independent check: both Bloch-ball closed forms give the same value
        assert povm_bits(e) == pytest.approx(est.bits, abs=1e-12)
        assert projective_bits(e) == pytest.approx(est.bits, abs=1e-12)

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


def build_estimate(lower, upper):
    return LeakageEstimate(lower, upper, 1, projective_povm(np.eye(2)).povm, np.eye(2))


def build_interval(lower, upper):
    return GentleLeakageInterval(lower, upper, "cloning-bound", GentlenessSpec(0.1, 0.1))


class TestBracketCheck:
    """LeakageEstimate and GentleLeakageInterval share one check of their two ends."""

    @pytest.mark.parametrize("build", [build_estimate, build_interval])
    @pytest.mark.parametrize(
        "lower, upper",
        [
            (np.nan, 1.0), (0.2, np.nan), (np.inf, 1.0), (-np.inf, 1.0), (0.2, np.inf),
            (0.2, -np.inf), (np.inf, np.inf),
            # a lower value below 0 is refused, however close to 0
            (-1e-9, 1.0), (-1e-12, 0.0),
            (0.5, 0.5 - 2e-12),
        ],
    )
    def test_refuses_ends_not_finite_and_ordered(self, build, lower, upper):
        with pytest.raises(ValueError, match=r"^invalid interval \["):
            build(lower, upper)

    @pytest.mark.parametrize("build", [build_estimate, build_interval])
    @pytest.mark.parametrize("lower, upper", [(0.0, 0.0), (0.2, 1.0), (0.5 + 1e-12, 0.5)])
    def test_keeps_valid_ends_as_given(self, build, lower, upper):
        built = build(lower, upper)
        assert [getattr(built, f.name) for f in dataclasses.fields(built)[:2]] == [lower, upper]


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
    """Solve with the uniform POVM in place of the Bloch-ball start candidate, so every
    uncertified start takes Newton steps."""
    monkeypatch.setattr(
        leakage, "_bloch_ball_povm", lambda rho: np.repeat(np.eye(2)[None] / len(rho), len(rho), 0)
    )


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
        assert projective_bits(e) == pytest.approx(np.log2(1.0 + np.sqrt(3.0) / 2.0), abs=1e-12)
        assert povm_bits(e) == pytest.approx(1.0, abs=1e-12)

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

    def test_step_from_the_boundary_raises(self):
        # a G_x with a zero eigenvalue is on the boundary of the PSD cone, not inside it
        rho = bb84_ensemble().states
        g = np.zeros_like(rho)
        g[0] = np.eye(2)
        with pytest.raises(ConvergenceError, match="left the interior"):
            leakage._newton_step(rho, g, 2.0 * np.eye(2, dtype=complex))

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

    def test_steps_only_while_the_gap_is_open(self, monkeypatch):
        # the leakage benchmark's qutrit, bare and rotated, and the first four
        # ensembles of the seed-2024 sweep whose support has dimension 3 or more
        qutrit = random_ensemble(np.random.default_rng([15, 1]), 3, 4)
        rotated = apply_unitary(qutrit, haar_unitary(3, np.random.default_rng([1, 1])))
        sweep = [e for d, n, rank, e in seeded_sweep(2024) if d > 2 and (n, rank) != (2, 1)]
        lowers, uppers, gaps = [], [], []
        bounds, step = leakage._bounds, leakage._newton_step

        def priced(mats, g, y):
            lower, upper, dual = bounds(mats, g, y)
            lowers.append(lower)
            uppers.append(upper)
            return lower, upper, dual

        def stepped(rho, g, y):
            gaps.append(min(uppers) - max(lowers))  # the best gap before this step
            return step(rho, g, y)

        monkeypatch.setattr(leakage, "_bounds", priced)
        monkeypatch.setattr(leakage, "_newton_step", stepped)
        for e in [qutrit, rotated, *sweep[:4]]:
            lowers.clear()
            uppers[:] = [leakage_upper_bound(e)]
            gaps.clear()
            est = maximal_quantum_leakage(e)
            assert_certified(est, e)
            assert gaps and all(gap > GAP_TOL for gap in gaps)
            assert est.iterations == 1 + len(gaps)
            assert min(uppers) - max(lowers) <= GAP_TOL

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
# Five pure states (unit Bloch vectors after rounding): the unit sphere is their smallest
# ball, four of them define it, and the fifth, on the sphere too, gets no weight.
ORTHANT = [
    (-0.57956, -0.572316, -0.580143),
    (-0.420862, 0.903154, -0.084783),
    (0.794427, 0.453921, 0.403535),
    (0.678167, -0.541433, 0.49693),
    (-0.379468, -0.731454, 0.56655),
]


def unit(vectors):
    """The vectors (n, 3) scaled to length 1."""
    v = np.asarray(vectors, dtype=float)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
PLATONIC = {
    "tetrahedron": [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
    "cube": list(itertools.product([-1, 1], repeat=3)),
    "icosahedron": [
        np.roll((0.0, a, b * GOLDEN), k) for k in range(3) for a in (-1, 1) for b in (-1, 1)
    ],
}


def cospherical_sets(rng, count):
    """count sets of 3-7 Bloch vectors on a great circle, a small circle or a whole sphere.

    The sphere has radius 0.3-1 and sits inside the Bloch ball; a circle's plane is at a
    random height above the sphere's centre (0 for a great circle).
    """
    for _ in range(count):
        n, radius = int(rng.integers(3, 8)), rng.uniform(0.3, 1.0)
        centre = rng.normal(size=3)
        centre *= rng.uniform(0.0, 1.0 - radius) / np.linalg.norm(centre)
        kind = rng.integers(3)
        if kind == 2:
            points = rng.normal(size=(n, 3))
            points /= np.linalg.norm(points, axis=1, keepdims=True)
        else:
            u, v, w = np.linalg.qr(rng.normal(size=(3, 3)))[0].T
            height = 0.0 if kind == 0 else rng.uniform(-0.9, 0.9)
            t = rng.uniform(0.0, 2.0 * np.pi, n)[:, None]
            points = np.sqrt(1.0 - height**2) * (np.cos(t) * u + np.sin(t) * v) + height * w
        yield centre + radius * points


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
        "vectors, radius",
        [
            (np.vstack([np.eye(3), -np.eye(3)]), 1.0),
            (ARC, np.sqrt(0.5)),
            *(pytest.param(unit(v), 1.0, id=name) for name, v in PLATONIC.items()),
        ],
    )
    def test_candidate_alone_reaches_the_ball(self, vectors, radius):
        # the square-root measurement is not optimal on the arc; the helper's POVM must be.
        # On the Platonic sets the square-root measurement certifies first, so only a
        # direct call reaches the ball, here in several orders of the points
        vectors = np.asarray(vectors, dtype=float)
        rng = np.random.default_rng(len(vectors))
        for order in [np.arange(len(vectors)), *(rng.permutation(len(vectors)) for _ in range(4))]:
            e = bloch_ensemble(vectors[order])
            g = leakage._bloch_ball_povm(e.states)
            assert np.max(np.abs(g.sum(axis=0) - np.eye(2))) <= 1e-13
            assert np.linalg.eigvalsh(g).min() >= -1e-13
            bits = sibson_infinity(np.einsum("xij,yji->yx", e.states, g).real)
            assert bits == pytest.approx(np.log2(1.0 + radius), abs=1e-12)

    def test_identical_vectors_give_the_trivial_povm(self):
        # a ball of radius 0: the first state takes G = I, every other state nothing
        g = leakage._bloch_ball_povm(bloch_ensemble(np.array([(0.3, 0.4, 0.0)] * 3)).states)
        assert np.array_equal(g[0], np.eye(2))
        assert not g[1:].any()

    def test_cospherical_sets_in_any_order(self):
        # Welzl's loops pick a different defining set in each order of the points; the
        # weights of that set's own solve must still give the ball's POVM
        rng = np.random.default_rng(26)
        for vectors in cospherical_sets(rng, 40):
            for order in [np.arange(len(vectors)), rng.permutation(len(vectors))]:
                e = bloch_ensemble(vectors[order])
                est = maximal_quantum_leakage(e)
                assert_certified(est, e)
                assert est.iterations == 1
                assert abs(est.bits - povm_bits(e)) <= GAP_TOL

    @pytest.mark.parametrize(
        "points",
        [
            pytest.param([(0.1, 0.2, 0.3), (-0.4, 0.5, 0.0)], id="two"),
            pytest.param([(1, 0, 0), (0, 1, 0), (0, 0, 1)], id="three"),
            pytest.param([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-0.6, -0.6, 0.2)], id="four"),
            pytest.param(np.outer([0.9, 0.2, -0.5], [0.6, 0.0, 0.8]), id="collinear-three"),
            pytest.param(np.outer([0.9, 0.2, -0.5, -0.1], [0.6, 0.0, 0.8]), id="collinear-four"),
            pytest.param([(0.3, 0.4, 0.0)] * 2, id="duplicate-two"),
            pytest.param([(0.3, 0.4, 0.0), (0.3, 0.4, 0.0), (-0.5, 0.1, 0.2)], id="duplicate-three"),
            pytest.param(ARC, id="coplanar-four"),
        ],
    )
    def test_ball_weights_rebuild_the_centre(self, points):
        p = np.asarray(points, dtype=float)
        c, _, lam = leakage._ball_through(p)
        assert lam.shape == (len(p),)
        assert abs(lam.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(lam @ p - c)) <= 1e-12

    def test_orthant_step(self):
        e = bloch_ensemble(unit(ORTHANT))
        est = maximal_quantum_leakage(e)
        assert_certified(est, e)
        assert est.iterations == 1
        assert abs(est.bits - povm_bits(e)) <= GAP_TOL
        assert abs(est.upper_bits - povm_bits(e)) <= GAP_TOL

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
    """The exact qubit oracle of tests/qubit_oracle.py; the class keeps its old name."""

    def test_bb84_hits_one_bit(self, bb84):
        assert projective_bits(bb84) == pytest.approx(1.0, abs=1e-12)
        assert povm_bits(bb84) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states(self):
        e = CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([1, 0])))
        assert projective_bits(e) == pytest.approx(0.0, abs=1e-12)
        assert povm_bits(e) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair_perfectly_distinguishable(self):
        e = CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([0, 1])))
        assert projective_bits(e) == pytest.approx(1.0, abs=1e-12)
        assert povm_bits(e) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_qubit(self):
        rng = np.random.default_rng(0)
        states = tuple(random_density(3, rng) for _ in range(2))
        e = CqEnsemble(np.array([0.5, 0.5]), states)
        with pytest.raises(ValueError):
            projective_bits(e)
        with pytest.raises(ValueError):
            povm_bits(e)

    def test_rotation_stability(self, bb84):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rotated = apply_unitary(bb84, haar_unitary(2, rng))
            assert projective_bits(rotated) == pytest.approx(projective_bits(bb84), abs=1e-12)
            assert povm_bits(rotated) == pytest.approx(povm_bits(bb84), abs=1e-12)


class TestOptimizerVsOracle:
    def test_fifty_random_ensembles(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            e = random_qubit_ensemble(rng)
            opt = maximal_quantum_leakage(e)
            exact = povm_bits(e)
            assert abs(opt.bits - exact) <= GAP_TOL
            assert abs(opt.upper_bits - exact) <= GAP_TOL
            assert projective_bits(e) <= exact + 1e-12


class TestDepolarizingConsistency:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_oracle_matches_closed_form(self, p, bb84):
        # depolarizing shrinks every Bloch vector by 1 - p, so both forms follow the closed form
        noisy = depolarize(bb84, p)
        for oracle in (projective_bits, povm_bits):
            expected = depolarized_leakage(oracle(bb84), p)
            assert oracle(noisy) == pytest.approx(expected, abs=1e-12)
        if p == 1.0:
            assert maximal_quantum_leakage(noisy).bits == 0.0


class TestUnitaryInvariance:
    def test_oracle_and_optimizer(self, bb84):
        rng = np.random.default_rng(31)
        base_oracle = povm_bits(bb84)
        base_opt = maximal_quantum_leakage(bb84).bits
        for _ in range(5):
            rotated = apply_unitary(bb84, haar_unitary(2, rng))
            assert povm_bits(rotated) == pytest.approx(base_oracle, abs=1e-12)
            assert maximal_quantum_leakage(rotated).bits == pytest.approx(base_opt, abs=2e-12)


class TestGentleInterval:
    def test_json_is_the_fields_in_order(self, bb84):
        iv = gentle_leakage_interval(bb84, GentlenessSpec(np.float32(0.1), 0.05))
        assert (iv.alpha, iv.delta) == (float(np.float32(0.1)), 0.05)
        doc = json.loads(json.dumps(iv.to_json()))
        assert list(doc) == [f.name for f in dataclasses.fields(iv)]
        assert doc["cloning"] == iv.cloning.to_json()
        assert (doc["alpha"], doc["delta"]) == (iv.alpha, iv.delta)

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

    def test_one_dimensional_ensemble_saturates(self):
        # at d = 1 no measurement moves the only state, so every one is gentle
        e = CqEnsemble(np.array([0.5, 0.5]), (np.eye(1), np.eye(1)))
        iv = gentle_leakage_interval(e, GentlenessSpec(0.1, 0.05))
        assert (iv.lower_bits, iv.upper_bits) == (0.0, 0.0)
        assert iv.lower_witness == "maximal-leakage-povm" and iv.cloning is None

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

    @staticmethod
    def pin_cloning_bound(monkeypatch, bits):
        real = leakage.cloning_lower_bound

        def pinned(e, alpha, q_bits):
            return dataclasses.replace(real(e, alpha, q_bits), lower_bits=bits)

        monkeypatch.setattr(leakage, "cloning_lower_bound", pinned)

    def test_search_above_the_cloning_bound_is_the_lower_end(self, bb84, monkeypatch):
        spec = GentlenessSpec(0.1, 0.05)
        search_bits, _ = leakage._gentle_probe_search(bb84, spec)
        self.pin_cloning_bound(monkeypatch, 0.0)
        iv = gentle_leakage_interval(bb84, spec)
        assert iv.lower_bits == iv.meta["search_bits"] == search_bits > 0.0
        assert iv.lower_witness == "gentle-povm-search"
        doc = iv.to_json()
        assert doc["cloning"] == iv.cloning.to_json() and doc["cloning"]["lower_bits"] == 0.0
        assert list(doc["meta"]) == ["search_bits", "search", "upper_iterations"]

    def test_a_tie_goes_to_the_cloning_bound(self, bb84, monkeypatch):
        spec = GentlenessSpec(0.1, 0.05)
        search_bits, _ = leakage._gentle_probe_search(bb84, spec)
        self.pin_cloning_bound(monkeypatch, search_bits)
        iv = gentle_leakage_interval(bb84, spec)
        assert iv.lower_bits == iv.cloning.lower_bits == search_bits
        assert iv.lower_witness == "cloning-bound"


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
    @settings(max_examples=20, derandomize=True)
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
        impl = gentle_povm(_positive_part(mats[i] - mats[j]), epsilon)
        cert = certify_gentle(bb84, impl, spec)
        assert cert.certified
        assert sibson_infinity([row.probabilities for row in cert.outcomes]) == bits

    @staticmethod
    def per_probe(e, spec):
        """The search rebuilt from the public, checked max_certified_epsilon, one probe at a time;
        with the strengths found, None for a probe below the floor."""
        best, detail, found = 0.0, {"probes": 0}, []
        for i, j in itertools.permutations(range(len(e)), 2):
            probe = _positive_part(e.states[i] - e.states[j])
            if np.max(np.abs(probe)) < leakage.PROBE_FLOOR:
                found.append(None)
                continue
            cal = max_certified_epsilon(probe, spec, e)
            found.append(cal.epsilon)
            if cal.certificate is None:
                continue
            bits = sibson_infinity([row.probabilities for row in cal.certificate.outcomes])
            detail["probes"] += 1
            if bits > best:
                best = bits
                detail.update(best_pair=(e.labels[i], e.labels[j]), epsilon=cal.epsilon)
        return best, detail, found

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("spec", [GentlenessSpec(0.1, 0.05), GentlenessSpec(0.01, 0.001)])
    def test_matches_public_calibration_per_probe(self, seed, spec):
        # the search calibrates its stacked probes unchecked; each probe given
        # alone to the public, checked max_certified_epsilon must agree to the bit
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        e = bb84_ensemble() if seed == 0 else random_ensemble(
            rng, d, int(rng.integers(2, 5)), rank=int(rng.integers(1, d + 1))
        )
        best, detail, _ = self.per_probe(e, spec)
        assert leakage._gentle_probe_search(e, spec) == (best, detail)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_a_stack_that_splits_three_ways(self, d):
        # the last state repeats the first, so two probes fall below the floor; of the
        # others some certify at MAX_EPSILON and some bisect, all in one lockstep stack
        rng = np.random.default_rng([0, d])
        states = [random_density(d, rng, rank=int(rng.integers(1, d + 1))) for _ in range(3)]
        e = CqEnsemble(rng.dirichlet(np.ones(4)), [*states, states[0]])
        spec = GentlenessSpec(0.05, 0.01)
        best, detail, found = self.per_probe(e, spec)
        assert found.count(None) == 2
        assert MAX_EPSILON in found
        assert any(eps is not None and 0.0 < eps < MAX_EPSILON for eps in found)
        assert leakage._gentle_probe_search(e, spec) == (best, detail)

    @pytest.mark.parametrize(
        "e, spec, calls",
        [
            (bb84_ensemble(), GentlenessSpec(0.1, 0.05), 1),  # every probe certifies at 1/10
            (bb84_ensemble(), GentlenessSpec(0.01, 0.001), 1 + BISECTION_STEPS),
            (random_ensemble(np.random.default_rng(6), 3, 6), GentlenessSpec(0.01, 0.001),
             1 + BISECTION_STEPS),  # 30 probes
        ],
    )
    def test_one_stacked_verdict_per_step(self, e, spec, calls, monkeypatch):
        # however many probes, the interval runs one stacked verdict per bisection step
        # and never the per-probe certify_gentle
        sizes = []
        stacked = leakage._probe_verdicts

        def counting(*args):
            sizes.append(len(args[-1]))  # the strengths, one per probe
            return stacked(*args)

        def refused(*args, **kwargs):
            raise AssertionError("the probe search called certify_gentle")

        monkeypatch.setattr(leakage, "_probe_verdicts", counting)
        monkeypatch.setattr(measurements, "certify_gentle", refused)
        gentle_leakage_interval(e, spec)
        assert len(sizes) == calls
        assert sizes[0] == len(e) * (len(e) - 1)


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


# factors of the law tests: d in {2, 3}, 2-3 states, pure or full rank
ensembles = st.builds(
    lambda seed, d, n, rank: random_ensemble(np.random.default_rng(seed), d, n, rank),
    st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(2, 3),
    st.sampled_from([1, None]),
)


class TestLeakageLaws:
    """Laws of the maximal leakage, each checked on certified brackets [bits, upper_bits]."""

    @given(ensembles, ensembles)
    @settings(max_examples=20, derandomize=True)
    def test_additive_on_products(self, a, b):
        # G (x) G' is primal feasible and Y (x) Y' dual feasible for {rho^x (x) sigma^y}
        states = np.einsum("xij,ykl->xyikjl", a.states, b.states)
        d = a.dim * b.dim
        prod = CqEnsemble(np.outer(a.probs, b.probs).ravel(), states.reshape(-1, d, d))
        ea, eb, ep = (maximal_quantum_leakage(e) for e in (a, b, prod))
        assert ep.bits <= ea.upper_bits + eb.upper_bits + 1e-12
        assert ea.bits + eb.bits <= ep.upper_bits + 1e-12

    @given(ensembles, st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    @settings(max_examples=20, derandomize=True)
    def test_data_processing(self, e, seed, d_out):
        # a Stinespring isometry into output (x) a qubit environment, then the trace over it
        v = haar_unitary(2 * d_out, np.random.default_rng(seed))[:, : e.dim]
        joint = (v @ e.states @ v.conj().T).reshape(-1, d_out, 2, d_out, 2)
        out = CqEnsemble(e.probs, np.einsum("xiaja->xij", joint))
        assert maximal_quantum_leakage(out).bits <= maximal_quantum_leakage(e).upper_bits + 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_binary_functions_within_leakage(self, d, n):
        # Issa-Wagner-Kamath: no function of X gains more than the leakage. For a binary f,
        # Helstrom's (1 + ||sigma_0 - sigma_1||_1)/2 is the optimal guess, sigma_u the
        # unnormalized state of f = u under uniform priors.
        e = random_ensemble(np.random.default_rng(10 * d + n), d, n)
        est = maximal_quantum_leakage(e)
        for f in itertools.product((0, 1), repeat=n):
            f = np.array(f)
            diff = (e.states[f == 0].sum(axis=0) - e.states[f == 1].sum(axis=0)) / n
            guess = (1.0 + np.abs(np.linalg.eigvalsh(diff)).sum()) / 2.0
            gain = np.log2(guess / (max(f.sum(), n - f.sum()) / n))
            assert gain <= est.upper_bits + 1e-12
            if n == 2 and f[0] != f[1]:  # f = X: Helstrom is the maximal leakage
                assert abs(gain - est.bits) <= GAP_TOL


class TestWeakDpiAtBoundLevel:
    def test_rotations_never_beat_shifted_alpha(self, bb84):
        from gentleleak.cloning import cloning_lower_bound

        rng = np.random.default_rng(13)
        alpha = 0.15
        for _ in range(5):
            u = haar_unitary(2, rng)
            rotated = apply_unitary(bb84, u)
            beta = unitary_disturbance(bb84, u)
            q_rot = povm_bits(rotated)
            q_base = povm_bits(bb84)
            lhs = cloning_lower_bound(rotated, alpha, q_rot).lower_bits
            rhs = cloning_lower_bound(bb84, min(alpha + beta, 1.0), q_base).lower_bits
            assert lhs <= rhs + 1e-9
