"""Asymmetric approximate cloning: the feasibility region and the leakage lower bound.

A 1->2 cloner whose two output branches act like global depolarizing channels
with parameters (p1, p2) exists only for some points of the unit square.
Branch 1 is handed to the legitimate receiver (its depolarization bounds the
detectable disturbance), branch 2 feeds the eavesdropper, so the best
undetected leakage comes from minimizing p2 subject to a disturbance cap on p1.

Which p1-p2 trade-off the bound uses depends on the dimension d:

- d = 2: the boundary of the paper's quadratic region, p2 = (1 - sqrt(p1))^2.
  Its qubit reductions check out by hand (symmetric line p >= 1/4, boundary
  root 0.305573 at p1 = 0.2) and it gives the figure-2 curve. Whether a qubit
  cloner reaches it is open: on the symmetric line the universal
  (Buzek-Hillery) cloner gives p = 1/3 and the phase-covariant one about 0.293.
- d >= 3: the universal asymmetric cloner (Cerf 2000), an explicit channel in
  every dimension, so every point of its curve is reached and the bound is a
  bound. The quadratic region is not used there: at d >= 3 it admits
  (p1, p2) = (0, 0.254), a perfect copy to the receiver that still leaves the
  eavesdropper information, which no-cloning forbids.

The quadratic form stays available for diagnostics at every d, as does a
square-root form of the region, which is undefined where its discriminant is
negative (including the whole symmetric line) and so is evaluated only on its
real domain. min_feasible_p2, the region's least p2 at a p1 in [0, 1], is one
root of q(p1, .) clipped to [0, 1]. At d = 2 (a = 3) it is the lower root
(1 - sqrt(p1))^2, of discriminant 144 p1 >= 0. At d >= 3 (a, b, c < 0) it is
the upper root: the lower one is below -(2 + d^2)/(2|a|) < 0, q(p1, 1) <=
d^2 - d^4/4 < 0 keeps the upper one <= 1, and with no real root it clips to 0.

The region forms and tradeoff_p2 work elementwise on arrays as well as on
floats. lower_bound_sweep bounds a whole alpha grid in one array pass and
returns a CloningSweep: read-only columns alpha, p1_cap, p2_star, lower_bits
and slack with the shared q_bits. Indexing it gives CloningBoundResult rows,
built only when asked for.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import _eigh, _fill
from .states import CqEnsemble

__all__ = [
    "CloningBoundResult",
    "CloningSweep",
    "region_sqrt_form",
    "region_quadratic_form",
    "quadratic_coefficients",
    "min_feasible_p2",
    "tradeoff_p2",
    "cloning_lower_bound",
    "lower_bound_sweep",
    "region_disagreement_report",
]

FEAS_TOL = 1e-12
# A largest distance to I/d below this is a maximally mixed ensemble: alpha caps nothing.
SPREAD_FLOOR = 1e-12


def quadratic_coefficients(d: int) -> tuple[float, float, float]:
    """(diagonal a, off-diagonal b, linear c) of the quadratic feasibility form."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    a = 2.0 * d * d - 1.0 - d**4 / 4.0
    b = 1.0 - d**4 / 4.0
    c = -2.0 - d * d
    return a, b, c


def region_quadratic_form(p1, p2, d: int):
    """Evaluate the quadratic feasibility constraint q(p1, p2) <= 0, elementwise.

    Returns (satisfied, slack) where slack is the value of q; feasible points
    have slack <= 1e-12. Floats give a bool and a float; arrays give arrays of
    their broadcast shape.
    """
    _check_point(p1, p2)
    a, b, c = quadratic_coefficients(d)
    q = a * (p1 * p1 + p2 * p2) + 2.0 * b * p1 * p2 + c * (p1 + p2) + 3.0
    return q <= FEAS_TOL, q


def region_sqrt_form(p1, p2, d: int):
    """Evaluate the square-root form of the region on its real domain, elementwise.

    Returns (defined, satisfied, lhs_minus_rhs). Where the discriminant is
    negative the form is undefined and no feasibility judgement is made:
    defined and satisfied are False there and lhs_minus_rhs is NaN.
    """
    _check_point(p1, p2)
    if d < 2:
        raise ValueError("dimension must be at least 2")
    # np.float_power calls libm pow, as a float's ** 2 does; an array's ** 2
    # multiplies instead, which can differ in the last bit
    disc = d * d * np.float_power(p1 - p2, 2.0) - 4.0 * (1.0 - p1) * (1.0 - p2)
    defined = disc >= -FEAS_TOL
    root = np.sqrt(np.maximum(disc, 0.0))
    lhs = d / 2.0 * (d * (2.0 - p1 - p2) + root) - (2.0 - p1 - p2)
    diff = np.where(defined, lhs - (d * d - 1.0), np.nan)[()]
    return defined, diff <= FEAS_TOL, diff


def _p2_roots(p1, d: int):
    """Ordered roots (low, high) in p2 of q(p1, p2) = 0 at fixed p1, elementwise."""
    a, b, c = quadratic_coefficients(d)
    # q(p2) = a p2^2 + beta p2 + gamma at fixed p1
    beta = 2.0 * b * p1 + c
    gamma = a * p1 * p1 + c * p1 + 3.0
    disc = beta * beta - 4.0 * a * gamma
    root = np.sqrt(np.maximum(disc, 0.0))
    r1 = (-beta - root) / (2.0 * a)
    r2 = (-beta + root) / (2.0 * a)
    return np.minimum(r1, r2), np.maximum(r1, r2)


def min_feasible_p2(p1: float, d: int) -> float:
    """Smallest p2 in [0, 1] satisfying the quadratic constraint at fixed p1 in [0, 1].

    Some p2 is always feasible (see the module docstring): the answer is the
    lower root of q(p1, .) at d = 2 and the upper root at d >= 3, clipped to [0, 1].
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    root_lo, root_hi = _p2_roots(p1, d)
    return min(max(root_lo if d == 2 else root_hi, 0.0), 1.0)


@dataclass(frozen=True)
class CloningBoundResult:
    """Solution of the leakage lower-bound program at a disturbance level alpha."""

    p2_star: float
    lower_bits: float
    feasible: bool  # always True: tradeoff_p2 gives a p2 in [0, 1] at every p1
    p1_cap: float
    alpha: float
    q_bits: float
    slack: float  # quadratic-form value at the optimum: ~0 at d = 2, negative for d >= 3

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "p2_star": self.p2_star,
            "lower_bits": self.lower_bits,
            "feasible": self.feasible,
            "p1_cap": self.p1_cap,
            "q_bits": self.q_bits,
            "slack": self.slack,
        }


@dataclass(frozen=True, eq=False)
class CloningSweep(Sequence):
    """The lower bound over an alpha grid, held as read-only columns in the order of the alphas.

    Each column has one entry per alpha; q_bits is shared. len() and
    indexing give CloningBoundResult rows, built only when asked for.
    """

    alpha: np.ndarray
    p1_cap: np.ndarray
    p2_star: np.ndarray
    lower_bits: np.ndarray
    slack: np.ndarray
    q_bits: float

    def __post_init__(self):
        columns = ("alpha", "p1_cap", "p2_star", "lower_bits", "slack")
        # np.array copies, so _fill freezes the sweep's own columns, not the caller's
        _fill(self, **{name: np.array(getattr(self, name)) for name in columns})

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, i: int) -> CloningBoundResult:
        return CloningBoundResult(
            p2_star=float(self.p2_star[i]),
            lower_bits=float(self.lower_bits[i]),
            feasible=True,
            p1_cap=float(self.p1_cap[i]),
            alpha=float(self.alpha[i]),
            q_bits=self.q_bits,
            slack=float(self.slack[i]),
        )


def tradeoff_p2(p1, d: int):
    """Smallest eavesdropper-branch depolarization p2 the bound uses at receiver-branch p1.

    d = 2: the boundary of the quadratic region, min_feasible_p2(p1, 2) =
    (1 - sqrt(p1))^2, from the same root formula. d >= 3: the universal
    asymmetric cloner, whose amplitudes a, b with a^2 + b^2 + 2ab/d = 1
    depolarize branch 1 by p1 = b^2 and branch 2 by p2 = a^2, so
    p2 = (sqrt(1 - p1 (1 - 1/d^2)) - sqrt(p1)/d)^2. Both are non-increasing in
    p1, give p2 = 1 at p1 = 0 and p2 = 0 at p1 = 1. Works elementwise: a float
    p1 in [0, 1] gives a float, an array gives an array.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not np.all((0.0 <= p1) & (p1 <= 1.0)):
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    if d == 2:
        root_lo, _ = _p2_roots(p1, 2)
        p2 = np.minimum(np.maximum(root_lo, 0.0), 1.0)
    else:
        a = np.sqrt(1.0 - p1 * (1.0 - 1.0 / (d * d))) - np.sqrt(p1) / d
        # a < 0 only by rounding at p1 = 1; libm pow, as in region_sqrt_form
        p2 = np.float_power(np.maximum(a, 0.0), 2.0)
    return float(p2) if np.ndim(p2) == 0 else p2


def cloning_lower_bound(e: CqEnsemble, alpha: float, q_bits: float) -> CloningBoundResult:
    """Lower bound at one disturbance level alpha; see lower_bound_sweep."""
    return lower_bound_sweep(e, [alpha], q_bits)[0]


def lower_bound_sweep(e: CqEnsemble, alphas, q_bits: float) -> CloningSweep:
    """Minimize the eavesdropper-branch depolarization p2 under the alpha cap on p1, per alpha.

    Keeping the receiver-branch disturbance p1 ||I/d - rho^x||_1n below alpha for
    every state caps p1 at alpha / max_x ||I/d - rho^x||_1n (at most 1; a
    maximally mixed ensemble constrains nothing). Since tradeoff_p2 never
    increases in p1, the optimum is p1* = cap and p2* = tradeoff_p2(cap, d),
    and lower_bits = log2(p2* + (1 - p2*) 2^q_bits). The whole grid is one
    array pass: one stacked eigendecomposition for the cap, then cap, p2*,
    the quadratic-form slack and the bits as columns of a CloningSweep, in the
    order the alphas are given.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise ValueError("alphas must be a one-dimensional sequence")
    outside = ~((0.0 <= alphas) & (alphas <= 1.0))
    if outside.any():
        raise ValueError(f"alpha must be in [0, 1], got {float(alphas[outside.argmax()])}")
    if not 0.0 <= q_bits < np.inf:
        raise ValueError(f"q_bits must be non-negative and finite, got {q_bits}")
    d = e.dim
    w, _ = _eigh(np.eye(d) / d - e.states)
    spread = 0.5 * float(np.max(np.sum(np.abs(w), axis=-1)))
    cap = np.minimum(alphas / spread, 1.0) if spread > SPREAD_FLOOR else np.ones_like(alphas)
    p2 = tradeoff_p2(cap, d)
    _, slack = region_quadratic_form(cap, p2, d)
    bits = np.where(p2 == 0.0, q_bits, np.log2(p2 + (1.0 - p2) * 2.0**q_bits))
    return CloningSweep(alphas, cap, p2, bits, slack, q_bits)


def region_disagreement_report(d: int = 2, grid: int = 200) -> dict:
    """Compare the two printed region forms over a grid (diagnostic, no judgement).

    Counts the points where the square-root form is defined and how often its
    verdict differs from the quadratic form's. The two do not algebraically
    agree; this report records the mismatch instead of resolving it. Both
    forms are evaluated on the whole grid in one array pass.
    """
    pts = np.linspace(0.0, 1.0, grid)
    p1, p2 = pts[:, None], pts[None, :]
    defined, ok_sqrt, _ = region_sqrt_form(p1, p2, d)
    ok_quad, _ = region_quadratic_form(p1, p2, d)
    return {
        "dim": d,
        "grid": grid,
        "points": grid * grid,
        "sqrt_defined": int(defined.sum()),
        "agree_feasible": int((ok_sqrt & ok_quad).sum()),
        "sqrt_only_feasible": int((ok_sqrt & ~ok_quad).sum()),
        "quad_only_feasible": int((defined & ~ok_sqrt & ok_quad).sum()),
    }


def _check_point(p1, p2) -> None:
    inside = (0.0 <= p1) & (p1 <= 1.0) & (0.0 <= p2) & (p2 <= 1.0)
    if not np.all(inside):
        first = np.argmin(inside)  # flat index of the first point outside
        q1, q2 = (np.broadcast_to(p, np.shape(inside)).flat[first] for p in (p1, p2))
        raise ValueError(f"(p1, p2) must lie in the unit square, got ({q1}, {q2})")
