"""Monte Carlo of the BB84 prepare-intercept-measure loop with a pluggable Eve.

Each round Alice draws one of the four BB84 symbols, Eve applies her
measurement implementation and forwards the collapsed state, and Bob measures
in the basis the symbol was prepared in (sifting is deterministic here: the
study is leakage versus disturbance, not key-rate accounting). The quantum
mechanics of a round reduces to finite conditional tables over (symbol x,
Eve outcome y): P[y|x], Bob's error probability and the disturbance of the
collapse. Rounds are i.i.d., so the counts of the at most 16 (x, y) cells are
a sufficient statistic: the simulator draws them as one multinomial, Bob's
errors as one binomial per cell, and sums the disturbance over the cells.
That is the same joint law of (errors, disturbance sum) as a round-by-round
loop, at a cost that does not depend on the number of rounds. An enumeration
oracle integrates the same tables in closed form; Eve's leakage is always
reported analytically, never sampled.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .leakage import sibson_infinity
from .linalg import positive_part
from .measurements import (
    MAX_EPSILON, Povm, PovmImplementation, _probe, _probe_at, collapse, gentle_povm,
    projective_povm,
)
from .states import CqEnsemble, bb84_ensemble, pure_state

__all__ = [
    "EveStrategy",
    "SimReport",
    "default_gentle_probe",
    "strategy_implementation",
    "exact_round_statistics",
    "run_simulation",
    "tradeoff_sweep",
]

STRATEGY_KINDS = ("none", "intercept-z", "w1", "w2", "gentle")

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def default_gentle_probe() -> np.ndarray:
    """Positive part of |0><0| - |+><+|, the natural probe for the BB84 pair."""
    return positive_part(pure_state([1.0, 0.0]).mat - pure_state([1.0, 1.0]).mat)


@dataclass(frozen=True)
class EveStrategy:
    """Eve's behaviour, one of ``STRATEGY_KINDS``: passive, intercept-resend or a gentle probe.

    w1 tosses a fair coin between the Z and X bases each round; w2 always
    measures in the X basis; 'gentle' applies the three-outcome weak probe of
    ``default_gentle_probe()`` at strength ``epsilon`` in [0, MAX_EPSILON].
    Every other kind takes no strength: its ``epsilon`` must stay 0.
    """

    kind: str
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}; choose from {STRATEGY_KINDS}")
        if self.kind == "gentle" and not 0.0 <= self.epsilon <= MAX_EPSILON:
            raise ValueError(f"gentle epsilon must be in [0, {MAX_EPSILON}], got {self.epsilon}")
        if self.kind != "gentle" and self.epsilon != 0.0:
            raise ValueError(
                f"epsilon applies only to the gentle strategy, got {self.epsilon} for {self.kind!r}"
            )

    @classmethod
    def gentle(cls, epsilon: float) -> "EveStrategy":
        return cls("gentle", epsilon=epsilon)

    def describe(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "gentle":
            out["epsilon"] = self.epsilon
        return out


def strategy_implementation(strategy: EveStrategy) -> PovmImplementation | None:
    """Eve's measurement implementation, or None when she stays passive."""
    if strategy.kind == "none":
        return None
    if strategy.kind == "intercept-z":
        return projective_povm(np.eye(2, dtype=complex))
    if strategy.kind == "w2":
        return projective_povm(_HADAMARD)
    if strategy.kind == "w1":
        # coin toss folded into one 4-outcome measurement: halved projectors
        z = projective_povm(np.eye(2, dtype=complex))
        x = projective_povm(_HADAMARD)
        elems = tuple(0.5 * f for f in (*z.povm.elements, *x.povm.elements))
        ops = tuple(b / np.sqrt(2.0) for b in (*z.operators, *x.operators))
        povm = Povm(elems, labels=("z0", "z1", "x0", "x1"))
        return PovmImplementation(povm, ops)
    return gentle_povm(default_gentle_probe(), strategy.epsilon)


@dataclass(frozen=True)
class SimReport:
    """Outcome statistics of one simulation run.

    Every round counts as sifted, so qber is the share of ``rounds`` where
    Bob's decoded bit differs from the sent bit; qber ± ci95 covers the 95%
    Wilson score interval for the error rate; eve_leakage_bits is the Sibson
    information of Eve's exact outcome channel (analytic).
    """

    rounds: int
    qber: float
    eve_leakage_bits: float
    mean_disturbance: float
    ci95: float
    strategy: dict = field(default_factory=dict)
    seed: int = 0

    def to_json(self) -> dict:
        return asdict(self)


def _round_tables(impl: PovmImplementation | None, e: CqEnsemble | None = None):
    """Conditional tables of one round under Eve's implementation on the BB84 ensemble.

    Returns P[y|x], Bob error and disturbance per (x, y), and Eve's channel
    P[y|x] as (outcomes, symbols). A passive Eve (impl None) has one outcome.
    ``e`` is the BB84 ensemble when the caller already holds it.
    Outcomes with probability <= ZERO_PROB for a given symbol keep placeholder
    zeros; they can never be drawn for that symbol.
    """
    if impl is None:
        return np.ones((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)), np.ones((1, 4))

    e = bb84_ensemble() if e is None else e
    channel, post, dist = collapse(e, impl)  # (outcomes, symbols) tables
    live = dist >= 0.0
    # Bob measures in the symbol's basis and errs on its partner state rho^(x ^ 1)
    partner = e.state_mats()[np.nonzero(live)[1] ^ 1]
    err = np.zeros(channel.shape)
    err[live] = np.clip(np.einsum("kij,kji->k", partner, post).real, 0.0, 1.0)
    return channel.T, err.T, np.maximum(dist, 0.0).T, channel


def exact_round_statistics(strategy: EveStrategy) -> tuple[float, float, float]:
    """Closed-form (qber, eve_leakage_bits, mean_disturbance) by full enumeration."""
    probs_xy, err, dist, channel = _round_tables(strategy_implementation(strategy))
    weights = probs_xy / 4.0  # uniform symbol draw
    qber = float(np.sum(weights * err))
    mean_dist = float(np.sum(weights * dist))
    bits = sibson_infinity(channel)
    return qber, bits, mean_dist


def _wilson_ci95(errors: int, rounds: int) -> float:
    """Distance from errors / rounds to the farther end of its 95% Wilson score interval.

    Unlike the Wald half-width 1.96·sqrt(q(1-q)/n), it stays positive when no
    round or every round errs: zero errors in n rounds gives 1.96²/(n + 1.96²).
    """
    q, z2n = errors / rounds, 1.96**2 / rounds
    centre = (q + z2n / 2.0) / (1.0 + z2n)
    half = 1.96 * np.sqrt(q * (1.0 - q) / rounds + z2n / (4.0 * rounds)) / (1.0 + z2n)
    return float(abs(centre - q) + half)


def _sample(strategy: EveStrategy, tables, rounds: int, seed: int) -> SimReport:
    """Draw ``rounds`` rounds from the round tables of ``strategy``; see run_simulation."""
    if not 1 <= rounds <= np.iinfo(np.int64).max:
        raise ValueError(f"rounds must lie in [1, 2**63 - 1], got {rounds}")
    probs_xy, err, dist, channel = tables
    weights = probs_xy.ravel() / 4.0  # uniform symbol draw
    rng = np.random.default_rng(seed)
    cells = rng.multinomial(rounds, weights)
    errors = int(rng.binomial(cells, err.ravel()).sum())

    return SimReport(
        rounds=rounds,
        qber=errors / rounds,
        eve_leakage_bits=sibson_infinity(channel),
        mean_disturbance=float(cells @ dist.ravel()) / rounds,
        ci95=_wilson_ci95(errors, rounds),
        strategy=strategy.describe(),
        seed=seed,
    )


def run_simulation(strategy: EveStrategy, rounds: int, seed: int) -> SimReport:
    """Sample ``rounds`` rounds through their (symbol, Eve outcome) cell counts.

    One multinomial draw gives the cell counts, one binomial per cell Bob's
    errors, and the disturbance sum is the count-weighted table. All draws come
    from one ``np.random.default_rng(seed)``, so a given (strategy, rounds,
    seed) always reproduces the same report bit for bit. The values a seed
    gives differ from versions that sampled round by round; the law does not.
    """
    tables = _round_tables(strategy_implementation(strategy))
    return _sample(strategy, tables, rounds, seed)


def tradeoff_sweep(epsilons, rounds: int, seed: int) -> list[dict]:
    """Leakage/disturbance trade-off of the gentle strategy over a strength grid.

    Rows carry Monte Carlo qber and mean disturbance next to the analytic
    leakage, ordered as the input grid; a strength outside [0, MAX_EPSILON]
    raises ValueError. The BB84 ensemble and the probe's (I - M^2)^(1/2) are
    built once per sweep; each strength then takes its implementation from
    them and draws with the seed as run_simulation does, so every row holds
    the fields of run_simulation(EveStrategy.gentle(eps), rounds, seed).
    """
    e = bb84_ensemble()
    a, root = _probe(default_gentle_probe())
    rows = []
    for eps in epsilons:
        strat = EveStrategy.gentle(float(eps))
        rep = _sample(strat, _round_tables(_probe_at(a, root, strat.epsilon), e), rounds, seed)
        rows.append(
            {
                "epsilon": strat.epsilon,
                "qber": rep.qber,
                "leakage_bits": rep.eve_leakage_bits,
                "mean_disturbance": rep.mean_disturbance,
            }
        )
    return rows
