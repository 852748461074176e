import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentleleak.cli import main
from gentleleak.cloning import (
    CloningBoundResult,
    cloning_lower_bound,
    lower_bound_sweep,
    min_feasible_p2,
    quadratic_coefficients,
    region_disagreement_report,
    region_quadratic_form,
    region_sqrt_form,
    tradeoff_p2,
)
from gentleleak.leakage import maximal_quantum_leakage
from gentleleak.linalg import eig_hermitian, random_density
from gentleleak.states import (
    CqEnsemble,
    bb84_ensemble,
    ensemble_from_json,
    ensemble_to_json,
    pure_state,
)

unit = st.floats(0.0, 1.0, allow_nan=False)


@pytest.fixture
def bb84():
    return bb84_ensemble()


def basis_plus(d):
    """{|0>, ..., |d-1>, |+>} with |+> = (|0> + |1>)/sqrt 2, uniform priors."""
    plus = np.zeros(d)
    plus[:2] = 1.0
    states = tuple(pure_state(np.eye(d)[k]) for k in range(d)) + (pure_state(plus),)
    return CqEnsemble(np.full(d + 1, 1.0 / (d + 1)), states)


def random_ensemble(d, seed):
    rng = np.random.default_rng(seed)
    states = tuple(random_density(d, rng) for _ in range(3))
    return CqEnsemble(rng.dirichlet(np.ones(3)), states)


def maximally_mixed_ensemble():
    return CqEnsemble(np.array([0.5, 0.5]), (np.eye(2) / 2,) * 2)


def spread(e):
    w, _ = eig_hermitian(np.eye(e.dim) / e.dim - e.states)
    return 0.5 * float(np.max(np.sum(np.abs(w), axis=-1)))


def reference_sweep(e, alphas, q_bits):
    """The lower bound alpha by alpha, in scalar arithmetic: one row per alpha."""
    d, s = e.dim, spread(e)
    a, b, c = quadratic_coefficients(d)
    rows = []
    for alpha in (float(x) for x in alphas):
        cap = min(alpha / s, 1.0) if s > 1e-12 else 1.0
        if d == 2:  # the low root of q(cap, p2) = a p2^2 + beta p2 + gamma
            beta, gamma = 2.0 * b * cap + c, a * cap * cap + c * cap + 3.0
            disc = beta * beta - 4.0 * a * gamma
            roots = ((-beta - np.sqrt(disc)) / (2.0 * a), (-beta + np.sqrt(disc)) / (2.0 * a))
            p2 = float(min(max(min(roots), 0.0), 1.0))
        else:
            amp = np.sqrt(1.0 - cap * (1.0 - 1.0 / (d * d))) - np.sqrt(cap) / d
            p2 = float(max(amp, 0.0)) ** 2
        slack = a * (cap * cap + p2 * p2) + 2.0 * b * cap * p2 + c * (cap + p2) + 3.0
        bits = q_bits if p2 == 0.0 else float(np.log2(p2 + (1.0 - p2) * 2.0**q_bits))
        rows.append(CloningBoundResult(p2, bits, True, cap, alpha, q_bits, slack))
    return rows


def reference_csv(rows):
    lines = [f"{r.alpha:.6f},{r.p1_cap:.6f},{r.p2_star:.6f},{r.lower_bits:.6f}" for r in rows]
    return "\n".join(["alpha,p1,p2,lower_bits", *lines]) + "\n"


SWEEP_INPUTS = {
    "bb84": bb84_ensemble,
    "mixed_qubit": lambda: random_ensemble(2, 11),
    "qutrit_plus": lambda: basis_plus(3),
    "random_d4": lambda: random_ensemble(4, 7),
    "random_d8": lambda: random_ensemble(8, 8),
    "maximally_mixed": maximally_mixed_ensemble,
}


class TestQuadraticForm:
    def test_full_depolarization_corner(self):
        # hand substitution at d=2: 3+3-6-6-6+3 = -9
        ok, q = region_quadratic_form(1.0, 1.0, 2)
        assert ok and q == pytest.approx(-9.0)

    @given(unit)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_line_reduces_to_quarter(self, p):
        # q(p, p) = -12 p + 3 for d=2, so feasibility means p >= 1/4
        ok, q = region_quadratic_form(p, p, 2)
        assert q == pytest.approx(-12.0 * p + 3.0, abs=1e-9)
        assert ok == (p >= 0.25 - 1e-13)

    def test_boundary_root_at_p1_fifth(self):
        # root of p2^2 - 2.4 p2 + 0.64 = 0
        root = (2.4 - np.sqrt(3.2)) / 2.0
        _, q = region_quadratic_form(0.2, root, 2)
        assert abs(q) <= 1e-9
        assert root == pytest.approx(0.305573, abs=1e-6)

    def test_rejects_out_of_square(self):
        with pytest.raises(ValueError):
            region_quadratic_form(1.2, 0.5, 2)

    def test_array_names_the_first_point_outside(self):
        with pytest.raises(ValueError, match=r"got \(1\.2, 0\.5\)"):
            region_quadratic_form(np.array([0.3, 1.2, -1.0]), 0.5, 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_convexity_of_qubit_region(self, seed):
        # midpoints of feasible pairs stay feasible for d=2
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, size=(250, 2, 2))
        for (a, b) in pts:
            if region_quadratic_form(*a, 2)[0] and region_quadratic_form(*b, 2)[0]:
                mid = (a + b) / 2.0
                ok, q = region_quadratic_form(*mid, 2)
                assert ok or q <= 1e-9


class TestSqrtForm:
    def test_corner_is_defined_and_feasible(self):
        defined, ok, diff = region_sqrt_form(1.0, 1.0, 2)
        assert defined and ok and diff == pytest.approx(-3.0)

    def test_fully_asymmetric_point_saturates(self):
        # (1, 0): lhs = 1*(2*1 + 2) - 1 = 3 = d^2 - 1
        defined, ok, diff = region_sqrt_form(1.0, 0.0, 2)
        assert defined and ok and diff == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(0.0, 0.999))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_line_is_undefined(self, p):
        defined, _, _ = region_sqrt_form(p, p, 2)
        assert not defined

    def test_disagreement_report_runs(self):
        rep = region_disagreement_report(2, 60)
        assert rep["sqrt_defined"] > 0
        tallied = rep["agree_feasible"] + rep["sqrt_only_feasible"] + rep["quad_only_feasible"]
        assert tallied <= rep["sqrt_defined"] <= rep["points"]

    @pytest.mark.parametrize(
        "d, grid, counts",
        [
            (2, 60, (1413, 1349, 64, 0)),
            (2, 200, (15403, 14911, 492, 0)),
            (3, 60, (1901, 1901, 0, 0)),
            (3, 200, (20879, 20879, 0, 0)),
        ],
    )
    def test_disagreement_counts_are_pinned(self, d, grid, counts):
        # counts of the point-by-point scan the report used to run
        rep = region_disagreement_report(d, grid)
        keys = ("sqrt_defined", "agree_feasible", "sqrt_only_feasible", "quad_only_feasible")
        assert tuple(rep[k] for k in keys) == counts

    def test_array_matches_point_calls(self):
        p1, p2 = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7))
        defined, ok, diff = region_sqrt_form(p1, p2, 3)
        for idx in np.ndindex(p1.shape):
            want = region_sqrt_form(float(p1[idx]), float(p2[idx]), 3)
            assert (defined[idx], ok[idx]) == want[:2]
            assert diff[idx] == want[2] or (np.isnan(diff[idx]) and np.isnan(want[2]))


class TestMinFeasibleP2:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_dense_scan(self, d):
        grid = np.linspace(0.0, 1.0, 4001)
        for p1 in np.linspace(0.0, 1.0, 41):
            got = min_feasible_p2(float(p1), d)
            feas = [p2 for p2 in grid if region_quadratic_form(float(p1), float(p2), d)[0]]
            if got is None:
                assert not feas
            else:
                assert feas
                assert got == pytest.approx(feas[0], abs=3e-4)

    def test_qubit_closed_form(self):
        # for d=2 the minimal feasible p2 is (1 - sqrt(p1))^2
        for p1 in np.linspace(0.0, 1.0, 101):
            got = min_feasible_p2(float(p1), 2)
            assert got == pytest.approx((1.0 - np.sqrt(p1)) ** 2, abs=1e-10)


class TestLowerBound:
    def test_bb84_anchor(self, bb84):
        r = cloning_lower_bound(bb84, 0.1, 1.0)
        assert r.feasible
        assert r.p1_cap == pytest.approx(0.2, abs=1e-12)
        assert r.p1_cap == pytest.approx(0.2, abs=1e-9)
        assert r.p2_star == pytest.approx((2.4 - np.sqrt(3.2)) / 2.0, abs=1e-9)
        assert r.lower_bits == pytest.approx(0.76082, abs=5e-4)
        assert r.slack <= 1e-9

    def test_saturation_above_half(self, bb84):
        r = cloning_lower_bound(bb84, 0.5, 1.0)
        assert r.p2_star == 0.0
        assert r.lower_bits == 1.0

    @pytest.mark.parametrize(
        "e", [bb84_ensemble(), basis_plus(3), basis_plus(4), basis_plus(8)],
        ids=["bb84", "qutrit_plus", "d4_plus", "d8_plus"],
    )
    def test_alpha_zero(self, e):
        # no-cloning: a perfect copy to the receiver leaves the eavesdropper nothing
        r = cloning_lower_bound(e, 0.0, np.log2(e.dim))
        assert r.p1_cap == 0.0
        assert r.p2_star == 1.0
        assert r.lower_bits == 0.0

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_symmetric_point_is_werner_optimum(self, d):
        # pure states sit at distance 1 - 1/d from I/d, so this alpha caps p1 at d/(2(d+1))
        sym = d / (2.0 * (d + 1))
        r = cloning_lower_bound(basis_plus(d), sym * (1.0 - 1.0 / d), np.log2(d))
        assert r.p1_cap == pytest.approx(sym, abs=1e-12)
        assert r.p2_star == pytest.approx(sym, abs=1e-12)
        assert r.feasible and r.slack < 0.0

    def test_never_exceeds_reference(self, bb84):
        for alpha in np.linspace(0.0, 1.0, 21):
            r = cloning_lower_bound(bb84, float(alpha), 1.0)
            assert r.lower_bits <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "e",
        [bb84_ensemble(), basis_plus(3), random_ensemble(2, 5), random_ensemble(3, 6),
         random_ensemble(4, 7)],
        ids=["bb84", "qutrit_plus", "random_d2", "random_d3", "random_d4"],
    )
    def test_monotone_sweep(self, e):
        q = maximal_quantum_leakage(e)
        rows = lower_bound_sweep(e, np.linspace(0.0, 1.0, 21), q.bits)
        bits = [r.lower_bits for r in rows]
        assert bits[0] == 0.0
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bits, bits[1:]))
        assert max(bits) <= q.upper_bits

    def test_identical_states_flat_zero(self):
        e = CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([1, 0])))
        for r in lower_bound_sweep(e, [0.0, 0.3, 0.7, 1.0], 0.0):
            assert r.lower_bits == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_state_vacuous_cap(self):
        e = CqEnsemble(
            np.array([0.5, 0.5]),
            (np.eye(2) / 2, pure_state([1, 0])),
        )
        r = cloning_lower_bound(e, 0.6, 0.5)
        assert r.p1_cap == 1.0  # the mixed state contributes no constraint

    def test_higher_dimension_runs(self):
        rng = np.random.default_rng(1)
        e = CqEnsemble(
            np.array([0.5, 0.5]),
            (random_density(3, rng), random_density(3, rng)),
        )
        r = cloning_lower_bound(e, 0.3, 1.0)
        assert r.lower_bits >= 0.0
        if r.feasible:
            assert region_quadratic_form(r.p1_cap, r.p2_star, 3)[1] <= 1e-9


class TestTradeoffP2:
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_array_matches_scalar_calls(self, d):
        p1 = np.linspace(0.0, 1.0, 1001)
        got = tradeoff_p2(p1, d)
        assert got.tolist() == [tradeoff_p2(float(p), d) for p in p1]
        assert type(tradeoff_p2(0.2, d)) is float

    def test_qubit_curve_is_the_region_boundary(self):
        for p1 in np.linspace(0.0, 1.0, 101):
            assert tradeoff_p2(float(p1), 2) == min_feasible_p2(float(p1), 2)

    @pytest.mark.parametrize("p1", [-0.1, 1.5, float("nan")])
    def test_rejects_p1_outside_unit_interval(self, p1):
        with pytest.raises(ValueError, match="p1 must lie in"):
            tradeoff_p2(p1, 2)


class TestSweepMatchesReference:
    """The array pass against the alpha-by-alpha loop, bit for bit."""

    @pytest.mark.parametrize("name", SWEEP_INPUTS)
    def test_rows_equal_reference(self, name):
        e = SWEEP_INPUTS[name]()
        q = maximal_quantum_leakage(e).bits
        alphas = np.linspace(0.0, 1.0, 1001)
        sweep = lower_bound_sweep(e, alphas, q)
        want = reference_sweep(e, alphas, q)
        assert len(sweep) == len(want) == 1001
        for got, ref in zip(sweep, want):
            assert got == ref
        assert sweep[-1] == want[-1]
        if name == "maximally_mixed":
            assert spread(e) <= 1e-12
            assert set(sweep.p1_cap.tolist()) == {1.0}

    @pytest.mark.parametrize("name", SWEEP_INPUTS)
    def test_csvs_equal_reference(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(ensemble_to_json(SWEEP_INPUTS[name]())))
        e = ensemble_from_json(json.loads(path.read_text()))
        q = maximal_quantum_leakage(e).bits
        runs = {
            "figure2": (["--grid", "1001"], np.linspace(0.0, 1.0, 1001)),
            "lower-bound": (["--alpha", "0", "0.05", "0.1", "0.3", "0.5", "1"],
                            [0.0, 0.05, 0.1, 0.3, 0.5, 1.0]),
        }
        for command, (args, alphas) in runs.items():
            out = tmp_path / f"{command}.csv"
            assert main([command, str(path), *args, "--out", str(out)]) == 0
            assert out.read_text() == reference_csv(reference_sweep(e, alphas, q))

    def test_columns_are_read_only(self, bb84):
        sweep = lower_bound_sweep(bb84, [0.0, 0.1], 1.0)
        with pytest.raises(ValueError):
            sweep.lower_bits[0] = 2.0

    def test_first_bad_alpha_is_named(self, bb84):
        with pytest.raises(ValueError, match="got 1.5"):
            lower_bound_sweep(bb84, [0.1, 1.5, -0.2], 1.0)
