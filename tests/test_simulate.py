import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gentleleak import simulate
from gentleleak.linalg import trace_distance
from gentleleak.measurements import (
    ZERO_PROB,
    GentlenessSpec,
    born_probabilities,
    certify_gentle,
    projective_povm,
)
from gentleleak.simulate import (
    EveStrategy,
    _round_tables,
    _wilson_ci95,
    default_gentle_probe,
    exact_round_statistics,
    run_simulation,
    strategy_implementation,
    tradeoff_sweep,
)
from gentleleak.states import bb84_ensemble

ALL_STRATEGIES = [
    EveStrategy("none"),
    EveStrategy("intercept-z"),
    EveStrategy("w1"),
    EveStrategy("w2"),
    *(EveStrategy.gentle(eps) for eps in (0.0, 0.01, 0.05, 0.1)),
]


def reference_round_tables(strategy):
    """The round tables pair by pair: one trace distance and one Bob POVM element each."""
    e = bb84_ensemble()
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    bob = (projective_povm(np.eye(2, dtype=complex)), projective_povm(hadamard))
    impl = strategy_implementation(strategy)
    if impl is None:
        return np.ones((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)), np.ones((1, 4))
    channel = born_probabilities(e, impl.povm)
    err = np.zeros((4, len(impl)))
    dist = np.zeros((4, len(impl)))
    for x, rho in enumerate(e.states):
        basis, value = divmod(x, 2)
        wrong = bob[basis].povm.elements[1 - value]
        for y, b in enumerate(impl.operators):
            if channel[y, x] <= ZERO_PROB:
                continue
            out = b @ rho @ b.conj().T
            post = out / np.trace(out).real
            dist[x, y] = trace_distance(post, rho)
            err[x, y] = np.clip(np.trace(wrong @ post).real, 0.0, 1.0)
    return channel.T, err, dist, channel


class TestRoundTables:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: str(s.describe()))
    def test_stacked_tables_match_pairwise_reference(self, strategy):
        got_tables = _round_tables(strategy_implementation(strategy))
        for got, want in zip(got_tables, reference_round_tables(strategy)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12


class TestExactStatistics:
    def test_no_eavesdropper(self):
        assert exact_round_statistics(EveStrategy("none")) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "strategy", [EveStrategy("intercept-z"), EveStrategy("w1"), EveStrategy("w2")]
    )
    def test_intercept_resend_quarter_qber(self, strategy):
        qber, bits, dist = exact_round_statistics(strategy)
        assert qber == pytest.approx(0.25, abs=1e-12)
        assert bits == pytest.approx(1.0, abs=1e-12)
        assert dist == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-10)

    def test_gentle_statistics_shrink_with_epsilon(self):
        rows = [exact_round_statistics(EveStrategy.gentle(e)) for e in (0.1, 0.05, 0.01)]
        for (q_hi, b_hi, d_hi), (q_lo, b_lo, d_lo) in zip(rows, rows[1:]):
            assert q_lo < q_hi
            assert b_lo < b_hi
            assert d_lo < d_hi

    def test_gentle_zero_strength_is_silent(self):
        qber, bits, dist = exact_round_statistics(EveStrategy.gentle(0.0))
        assert qber == 0.0
        assert abs(bits) <= 1e-12
        assert abs(dist) <= 1e-12

    def test_gentle_regression_anchor(self):
        # frozen enumeration values for the canonical probe at full strength
        qber, bits, dist = exact_round_statistics(EveStrategy.gentle(0.1))
        assert qber == pytest.approx(0.0014644660940672592, abs=1e-9)
        assert bits == pytest.approx(0.10236994503128084, abs=1e-9)
        assert dist == pytest.approx(0.036803319203839724, abs=1e-9)


class TestRunSimulation:
    def test_passive_eve_gives_exactly_zero_qber(self):
        rep = run_simulation(EveStrategy("none"), 50000, seed=9)
        assert rep.qber == 0.0
        assert rep.mean_disturbance == 0.0
        assert rep.eve_leakage_bits == 0.0
        assert rep.rounds == 50000

    @pytest.mark.parametrize("strategy", [EveStrategy("w1"), EveStrategy("w2")])
    def test_qber_within_three_sigma(self, strategy):
        n = 100000
        sigma = np.sqrt(0.25 * 0.75 / n)
        for seed in (0, 1, 2, 3, 4):
            rep = run_simulation(strategy, n, seed=seed)
            assert abs(rep.qber - 0.25) <= 3.0 * sigma

    def test_disturbance_within_three_sigma(self):
        n = 100000
        q, _, dist = exact_round_statistics(EveStrategy("w1"))
        rep = run_simulation(EveStrategy("w1"), n, seed=5)
        # per-round disturbance is bounded by 1, so 3/sqrt(n) dominates its sigma
        assert abs(rep.mean_disturbance - dist) <= 3.0 / np.sqrt(n)

    def test_bit_for_bit_determinism(self):
        a = run_simulation(EveStrategy("w2"), 30000, seed=42)
        b = run_simulation(EveStrategy("w2"), 30000, seed=42)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_seed_changes_samples(self):
        a = run_simulation(EveStrategy("w2"), 30000, seed=1)
        b = run_simulation(EveStrategy("w2"), 30000, seed=2)
        assert a.qber != b.qber

    def test_leakage_column_is_analytic(self):
        _, bits, _ = exact_round_statistics(EveStrategy.gentle(0.08))
        rep = run_simulation(EveStrategy.gentle(0.08), 1000, seed=0)
        assert rep.eve_leakage_bits == bits

    def test_round_count_does_not_limit_the_sampler(self):
        n = 10**12
        rep = run_simulation(EveStrategy("w1"), n, seed=11)
        assert rep.rounds == n
        assert abs(rep.qber - 0.25) <= 4.0 * rep.ci95

    @pytest.mark.parametrize(
        "strategy",
        [EveStrategy("w1"), EveStrategy("intercept-z"), EveStrategy.gentle(0.1)],
        ids=["w1", "intercept-z", "gentle-0.1"],
    )
    def test_same_law_as_round_by_round_sampling(self, strategy):
        # per round: Bernoulli(q) error and a disturbance drawn from the weighted table
        runs, n = 2000, 20000
        probs_xy, _, dist, _ = _round_tables(strategy_implementation(strategy))
        q, _, mean_dist = exact_round_statistics(strategy)
        dist_var = float(np.sum(probs_xy / 4.0 * dist**2)) - mean_dist**2
        reps = [run_simulation(strategy, n, seed=s) for s in range(runs)]
        qbers = np.array([r.qber for r in reps])
        dists = np.array([r.mean_disturbance for r in reps])
        assert abs(qbers.mean() - q) <= 4.0 * np.sqrt(q * (1.0 - q) / (n * runs))
        assert abs(dists.mean() - mean_dist) <= 4.0 * np.sqrt(dist_var / (n * runs))
        assert qbers.var(ddof=1) == pytest.approx(q * (1.0 - q) / n, rel=0.15)

    def test_ci95_stays_positive_without_errors(self):
        # a passive Eve never causes an error; the interval must not collapse to 0
        n = 10**4
        rep = run_simulation(EveStrategy("none"), n, seed=0)
        assert rep.qber == 0.0
        assert rep.ci95 == pytest.approx(1.96**2 / (n + 1.96**2), rel=1e-12)
        assert _wilson_ci95(n, n) == pytest.approx(rep.ci95, rel=1e-12)

    def test_ci95_is_the_wald_width_for_many_errors(self):
        n, k = 10**7, 2 * 10**6
        wald = 1.96 * math.sqrt(0.2 * 0.8 / n)
        assert _wilson_ci95(k, n) == pytest.approx(wald, rel=1e-3)

    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    def test_ci95_covers_the_exact_qber_at_low_counts(self, epsilon, n):
        # exact binomial coverage of qber ± ci95, down to well under one expected error
        q, _, _ = exact_round_statistics(EveStrategy.gentle(epsilon))
        ks = range(min(n, 2000) + 1)
        coverage = sum(
            math.exp(
                math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + k * math.log(q) + (n - k) * math.log1p(-q)
            )
            for k in ks
            if abs(k / n - q) <= _wilson_ci95(k, n)
        )
        assert coverage >= 0.95

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            run_simulation(EveStrategy("none"), 0, seed=0)

    def test_rejects_rounds_beyond_int64(self):
        with pytest.raises(ValueError, match="rounds must lie"):
            run_simulation(EveStrategy("w1"), 2**63, seed=0)

    @pytest.mark.parametrize("rounds", [10.9, 10.0, True, "10"])
    def test_rejects_rounds_that_are_not_an_integer(self, rounds):
        # 10.9 drew 10 rounds and divided by 10.9; True ran one round
        with pytest.raises(ValueError, match="be an integer"):
            run_simulation(EveStrategy("intercept-z"), rounds, seed=3)
        with pytest.raises(ValueError, match="be an integer"):
            tradeoff_sweep([0.05], rounds, seed=3)

    def test_numpy_integer_rounds_give_plain_json_values(self):
        # a numpy rounds count used to carry np.int64 and np.float64 into the report
        rep = run_simulation(EveStrategy("w1"), np.int64(10), 3)
        doc = rep.to_json()
        json.dumps(doc)
        assert type(rep.rounds) is int
        assert type(rep.qber) is float and type(rep.mean_disturbance) is float
        assert doc == run_simulation(EveStrategy("w1"), 10, 3).to_json()
        rows = tradeoff_sweep([0.05], np.int64(10), 3)
        json.dumps(rows)
        assert all(type(v) is float for v in rows[0].values())
        assert rows == tradeoff_sweep([0.05], 10, 3)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", -1, None])
    def test_rejects_seeds_that_are_not_non_negative_integers(self, seed):
        # True ran as seed 1; 1.5 raised numpy's TypeError
        with pytest.raises(ValueError, match=r"seed must be a non-negative integer, got "):
            run_simulation(EveStrategy("w1"), 10, seed)

    def test_numpy_integer_seed_gives_a_plain_json_value(self):
        # a numpy seed was stored as it came and broke json.dumps of the report
        rep = run_simulation(EveStrategy("w1"), 10, np.int64(3))
        assert type(rep.seed) is int
        want = run_simulation(EveStrategy("w1"), 10, 3).to_json()
        assert json.dumps(rep.to_json()) == json.dumps(want)

    def test_gentle_disturbance_below_certified_alpha(self):
        # certified at (alpha, 0) in per-state mode forces every branch below alpha
        eps = 0.06
        impl = strategy_implementation(EveStrategy.gentle(eps))
        e = bb84_ensemble()
        for alpha in (0.05, 0.1, 0.2):
            cert = certify_gentle(e, impl, GentlenessSpec(alpha, 0.0))
            if cert.certified:
                _, _, dist = exact_round_statistics(EveStrategy.gentle(eps))
                assert dist <= alpha + 1e-12
                rep = run_simulation(EveStrategy.gentle(eps), 20000, seed=3)
                assert rep.mean_disturbance <= alpha + 1e-12


class TestTradeoffSweep:
    def test_zero_row_is_silent(self):
        rows = tradeoff_sweep([0.0], rounds=5000, seed=0)
        row = rows[0]
        assert row["qber"] == 0.0
        assert abs(row["leakage_bits"]) <= 1e-12
        assert abs(row["mean_disturbance"]) <= 1e-12

    def test_rows_ordered_and_leakage_monotone(self):
        eps = [0.0, 0.02, 0.04, 0.06, 0.08, 0.1]
        rows = tradeoff_sweep(eps, rounds=2000, seed=1)
        assert [r["epsilon"] for r in rows] == eps
        bits = [r["leakage_bits"] for r in rows]
        assert all(b2 >= b1 for b1, b2 in zip(bits, bits[1:]))

    def test_monte_carlo_tracks_enumeration(self):
        n = 100000
        rows = tradeoff_sweep([0.1], rounds=n, seed=7)
        q_exact, bits, d_exact = exact_round_statistics(EveStrategy.gentle(0.1))
        row = rows[0]
        sigma_q = np.sqrt(q_exact * (1 - q_exact) / n)
        assert abs(row["qber"] - q_exact) <= 3.0 * sigma_q
        assert row["leakage_bits"] == bits
        assert abs(row["mean_disturbance"] - d_exact) <= 3.0 / np.sqrt(n)

    @pytest.mark.parametrize("seed", [1, 42])
    def test_rows_are_the_run_simulation_fields(self, seed):
        eps = [0.0, 0.03, 0.1, 0.07]
        rows = tradeoff_sweep(eps, rounds=10**6, seed=seed)
        for epsilon, row in zip(eps, rows, strict=True):
            rep = run_simulation(EveStrategy.gentle(epsilon), 10**6, seed)
            assert row == {
                "epsilon": epsilon,
                "qber": rep.qber,
                "leakage_bits": rep.eve_leakage_bits,
                "mean_disturbance": rep.mean_disturbance,
            }


class TestConstantsBuiltOnce:
    def test_runs_build_the_bb84_ensemble_once(self, monkeypatch):
        calls = []

        def counted():
            calls.append(1)
            return bb84_ensemble()

        simulate._constants.cache_clear()
        monkeypatch.setattr(simulate, "bb84_ensemble", counted)
        a = run_simulation(EveStrategy("w1"), 1000, seed=0)
        b = run_simulation(EveStrategy.gentle(0.05), 1000, seed=0)
        tradeoff_sweep([0.0, 0.1], rounds=1000, seed=0)
        assert len(calls) == 1
        simulate._constants.cache_clear()
        assert run_simulation(EveStrategy("w1"), 1000, seed=0) == a
        assert run_simulation(EveStrategy.gentle(0.05), 1000, seed=0) == b
        assert len(calls) == 2

    def test_nothing_is_built_at_import(self):
        code = "import gentleleak.simulate as s; print(s._constants.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.strip() == "0", out.stderr


class TestStrategyPlumbing:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            EveStrategy("sneaky")

    def test_gentle_epsilon_range(self):
        with pytest.raises(ValueError):
            EveStrategy.gentle(0.5)

    @pytest.mark.parametrize("kind", ["none", "intercept-z", "w1", "w2"])
    def test_epsilon_only_for_gentle(self, kind):
        with pytest.raises(ValueError, match="got 0.5"):
            EveStrategy(kind, 0.5)
        assert EveStrategy(kind).describe() == {"kind": kind}

    def test_default_probe_is_valid_contraction(self):
        m = default_gentle_probe()
        w = np.linalg.eigvalsh(m)
        assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12

    def test_w1_measurement_has_four_halved_outcomes(self):
        impl = strategy_implementation(EveStrategy("w1"))
        assert len(impl) == 4
        assert all(abs(np.trace(f).real - 0.5) < 1e-12 for f in impl.povm.elements)
