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
from functools import cache

import numpy as np

from .leakage import _sibson
from .linalg import _fill, _frozen_hermitian, _positive_part
from .measurements import (
    MAX_EPSILON, Povm, PovmImplementation, _probe_at, _probe_root, collapse, projective_povm,
)
from .states import bb84_ensemble, pure_state

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
    return _positive_part(pure_state([1.0, 0.0]) - pure_state([1.0, 1.0]))


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


@cache
def _constants():
    """BB84 ensemble, default probe parts and fixed implementations, built once on first use."""
    z = projective_povm(np.eye(2, dtype=complex))
    x = projective_povm(_HADAMARD)
    # w1's coin toss folded into one 4-outcome measurement: halved projectors
    halved = 0.5 * np.concatenate((z.povm.elements, x.povm.elements))
    labels = ("z0", "z1", "x0", "x1")
    povm = _fill(object.__new__(Povm), elements=_frozen_hermitian(halved), labels=labels)
    ops = np.concatenate((z.operators, x.operators)) / np.sqrt(2.0)
    w1 = _fill(object.__new__(PovmImplementation), povm=povm, operators=ops)
    fixed = {"none": None, "intercept-z": z, "w2": x, "w1": w1}
    probe = default_gentle_probe()
    return bb84_ensemble(), (probe, _probe_root(probe)), fixed


def strategy_implementation(strategy: EveStrategy) -> PovmImplementation | None:
    """Eve's measurement implementation, or None when she stays passive.

    Each fixed kind has one implementation per process; 'gentle' builds the
    cached probe at the strength that ``EveStrategy`` has checked.
    """
    _, probe, fixed = _constants()
    if strategy.kind == "gentle":
        return _probe_at(*probe, strategy.epsilon)
    return fixed[strategy.kind]


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


def _round_tables(impl: PovmImplementation | None):
    """Conditional tables of one round under Eve's implementation on the BB84 ensemble.

    Returns P[y|x], Bob error and disturbance per (x, y), and Eve's channel
    P[y|x] as (outcomes, symbols). A passive Eve (impl None) has one outcome.
    Outcomes with probability <= ZERO_PROB for a given symbol keep placeholder
    zeros; they can never be drawn for that symbol.
    """
    if impl is None:
        return np.ones((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)), np.ones((1, 4))

    e = _constants()[0]
    channel, post, dist = collapse(e, impl)  # (outcomes, symbols) tables
    live = dist >= 0.0
    # Bob measures in the symbol's basis and errs on its partner state rho^(x ^ 1)
    partner = e.states[np.nonzero(live)[1] ^ 1]
    err = np.zeros(channel.shape)
    err[live] = np.clip(np.einsum("kij,kji->k", partner, post).real, 0.0, 1.0)
    return channel.T, err.T, np.maximum(dist, 0.0).T, channel


def exact_round_statistics(strategy: EveStrategy) -> tuple[float, float, float]:
    """Closed-form (qber, eve_leakage_bits, mean_disturbance) by full enumeration."""
    probs_xy, err, dist, channel = _round_tables(strategy_implementation(strategy))
    weights = probs_xy / 4.0  # uniform symbol draw
    qber = float(np.sum(weights * err))
    mean_dist = float(np.sum(weights * dist))
    return qber, _sibson(channel), mean_dist


def _wilson_ci95(errors: int, rounds: int) -> float:
    """Distance from errors / rounds to the farther end of its 95% Wilson score interval.

    Unlike the Wald half-width 1.96·sqrt(q(1-q)/n), it stays positive when no
    round or every round errs: zero errors in n rounds gives 1.96²/(n + 1.96²).
    """
    q, z2n = errors / rounds, 1.96**2 / rounds
    centre = (q + z2n / 2.0) / (1.0 + z2n)
    half = 1.96 * np.sqrt(q * (1.0 - q) / rounds + z2n / (4.0 * rounds)) / (1.0 + z2n)
    return float(abs(centre - q) + half)


def run_simulation(strategy: EveStrategy, rounds: int, seed: int) -> SimReport:
    """Sample ``rounds`` rounds through their (symbol, Eve outcome) cell counts.

    One multinomial draw gives the cell counts, one binomial per cell Bob's
    errors, and the disturbance sum is the count-weighted table. All draws come
    from one ``np.random.default_rng(seed)``, so a given (strategy, rounds,
    seed) always reproduces the same report bit for bit. The values a seed
    gives differ from versions that sampled round by round; the law does not.
    """
    integer = [isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in (rounds, seed)]
    if not (integer[0] and 1 <= rounds <= np.iinfo(np.int64).max):
        raise ValueError(f"rounds must lie in [1, 2**63 - 1] and be an integer, got {rounds!r}")
    if not (integer[1] and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rounds, seed = int(rounds), int(seed)
    probs_xy, err, dist, channel = _round_tables(strategy_implementation(strategy))
    weights = probs_xy.ravel() / 4.0  # uniform symbol draw
    rng = np.random.default_rng(seed)
    cells = rng.multinomial(rounds, weights)
    errors = int(rng.binomial(cells, err.ravel()).sum())

    return SimReport(
        rounds=rounds,
        qber=errors / rounds,
        eve_leakage_bits=_sibson(channel),
        mean_disturbance=float(cells @ dist.ravel()) / rounds,
        ci95=_wilson_ci95(errors, rounds),
        strategy=strategy.describe(),
        seed=seed,
    )


def tradeoff_sweep(epsilons, rounds: int, seed: int) -> list[dict]:
    """Leakage/disturbance trade-off of the gentle strategy over a strength grid.

    Rows carry Monte Carlo qber and mean disturbance next to the analytic
    leakage, ordered as the input grid; a strength outside [0, MAX_EPSILON]
    raises ValueError. Each row comes from one
    run_simulation(EveStrategy.gentle(eps), rounds, seed) call, so it holds
    that report's fields.
    """
    reports = [run_simulation(EveStrategy.gentle(float(eps)), rounds, seed) for eps in epsilons]
    return [
        {"epsilon": rep.strategy["epsilon"], "qber": rep.qber,
         "leakage_bits": rep.eve_leakage_bits, "mean_disturbance": rep.mean_disturbance}
        for rep in reports
    ]
