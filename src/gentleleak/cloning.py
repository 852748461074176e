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
real domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eig_hermitian
from .states import CqEnsemble

__all__ = [
    "CloningBoundResult",
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


def quadratic_coefficients(d: int) -> tuple[float, float, float]:
    """(diagonal a, off-diagonal b, linear c) of the quadratic feasibility form."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    a = 2.0 * d * d - 1.0 - d**4 / 4.0
    b = 1.0 - d**4 / 4.0
    c = -2.0 - d * d
    return a, b, c


def region_quadratic_form(p1: float, p2: float, d: int) -> tuple[bool, float]:
    """Evaluate the quadratic feasibility constraint q(p1, p2) <= 0.

    Returns (satisfied, slack) where slack is the value of q; feasible points
    have slack <= 1e-12.
    """
    _check_point(p1, p2)
    a, b, c = quadratic_coefficients(d)
    q = a * (p1 * p1 + p2 * p2) + 2.0 * b * p1 * p2 + c * (p1 + p2) + 3.0
    return q <= FEAS_TOL, q


def region_sqrt_form(p1: float, p2: float, d: int) -> tuple[bool, bool, float]:
    """Evaluate the square-root form of the region on its real domain.

    Returns (defined, satisfied, lhs_minus_rhs). When the discriminant is
    negative the form is undefined and no feasibility judgement is made.
    """
    _check_point(p1, p2)
    if d < 2:
        raise ValueError("dimension must be at least 2")
    disc = d * d * (p1 - p2) ** 2 - 4.0 * (1.0 - p1) * (1.0 - p2)
    if disc < -FEAS_TOL:
        return False, False, float("nan")
    root = np.sqrt(max(disc, 0.0))
    lhs = d / 2.0 * (d * (2.0 - p1 - p2) + root) - (2.0 - p1 - p2)
    diff = lhs - (d * d - 1.0)
    return True, diff <= FEAS_TOL, diff


def min_feasible_p2(p1: float, d: int) -> float | None:
    """Smallest p2 in [0, 1] satisfying the quadratic constraint at fixed p1.

    Returns None when no p2 in [0, 1] is feasible. Handles both orientations
    of the parabola in p2: the diagonal coefficient a(d) = 2d^2 - 1 - d^4/4
    is 3 at d = 2, -3.25 at d = 3 and falls after that, so it is never 0 at
    an integer d >= 2 and q is always a true quadratic in p2.
    """
    a, b, c = quadratic_coefficients(d)
    # q(p2) = a p2^2 + beta p2 + gamma at fixed p1
    beta = 2.0 * b * p1 + c
    gamma = a * p1 * p1 + c * p1 + 3.0
    disc = beta * beta - 4.0 * a * gamma
    if disc < 0.0:
        # no real roots: sign of q is the sign of a everywhere
        return 0.0 if a < 0.0 else None
    root_lo = (-beta - np.sqrt(disc)) / (2.0 * a)
    root_hi = (-beta + np.sqrt(disc)) / (2.0 * a)
    root_lo, root_hi = min(root_lo, root_hi), max(root_lo, root_hi)
    if a > 0.0:
        # feasible between the roots
        lo = max(root_lo, 0.0)
        if lo <= min(root_hi, 1.0) + FEAS_TOL:
            return min(lo, 1.0)
        return None
    # a < 0: feasible outside the open interval (root_lo, root_hi)
    if root_lo >= -FEAS_TOL:
        return 0.0
    if root_hi <= 1.0 + FEAS_TOL:
        return min(max(root_hi, 0.0), 1.0)
    return None


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


def tradeoff_p2(p1: float, d: int) -> float:
    """Smallest eavesdropper-branch depolarization p2 the bound uses at receiver-branch p1.

    d = 2: the boundary of the quadratic region, min_feasible_p2(p1, 2) =
    (1 - sqrt(p1))^2. d >= 3: the universal asymmetric cloner, whose amplitudes
    a, b with a^2 + b^2 + 2ab/d = 1 depolarize branch 1 by p1 = b^2 and
    branch 2 by p2 = a^2, so p2 = (sqrt(1 - p1 (1 - 1/d^2)) - sqrt(p1)/d)^2.
    Both are non-increasing in p1, give p2 = 1 at p1 = 0 and p2 = 0 at p1 = 1.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if d == 2:
        return float(min_feasible_p2(p1, 2))
    a = np.sqrt(1.0 - p1 * (1.0 - 1.0 / (d * d))) - np.sqrt(p1) / d
    return float(max(a, 0.0)) ** 2  # a < 0 only by rounding at p1 = 1


def cloning_lower_bound(e: CqEnsemble, alpha: float, q_bits: float) -> CloningBoundResult:
    """Lower bound at one disturbance level alpha; see lower_bound_sweep."""
    return lower_bound_sweep(e, [alpha], q_bits)[0]


def lower_bound_sweep(e: CqEnsemble, alphas, q_bits: float) -> list[CloningBoundResult]:
    """Minimize the eavesdropper-branch depolarization p2 under the alpha cap on p1, per alpha.

    Keeping the receiver-branch disturbance p1 ||I/d - rho^x||_1n below alpha for
    every state caps p1 at alpha / max_x ||I/d - rho^x||_1n (at most 1; a
    maximally mixed ensemble constrains nothing). Since tradeoff_p2 never
    increases in p1, the optimum is p1* = cap and p2* = tradeoff_p2(cap, d),
    and lower_bits = log2(p2* + (1 - p2*) 2^q_bits). Results are ordered as
    the alphas are given.
    """
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if q_bits < 0.0:
        raise ValueError("q_bits must be non-negative")
    d = e.dim
    w, _ = eig_hermitian(np.eye(d) / d - e.state_mats())
    spread = 0.5 * float(np.max(np.sum(np.abs(w), axis=-1)))
    rows = []
    for alpha in alphas:
        cap = min(alpha / spread, 1.0) if spread > 1e-12 else 1.0
        p2 = tradeoff_p2(cap, d)
        _, slack = region_quadratic_form(cap, p2, d)
        bits = q_bits if p2 == 0.0 else float(np.log2(p2 + (1.0 - p2) * 2.0**q_bits))
        rows.append(CloningBoundResult(
            p2_star=p2,
            lower_bits=bits,
            feasible=True,
            p1_cap=cap,
            alpha=alpha,
            q_bits=q_bits,
            slack=slack,
        ))
    return rows


def region_disagreement_report(d: int = 2, grid: int = 200) -> dict:
    """Compare the two printed region forms over a grid (diagnostic, no judgement).

    Counts the points where the square-root form is defined and how often its
    verdict differs from the quadratic form's. The two do not algebraically
    agree; this report records the mismatch instead of resolving it.
    """
    pts = np.linspace(0.0, 1.0, grid)
    defined = 0
    both_feasible = 0
    sqrt_only = 0
    quad_only = 0
    for p1 in pts:
        for p2 in pts:
            ok_def, ok_sqrt, _ = region_sqrt_form(float(p1), float(p2), d)
            ok_quad, _ = region_quadratic_form(float(p1), float(p2), d)
            if not ok_def:
                continue
            defined += 1
            if ok_sqrt and ok_quad:
                both_feasible += 1
            elif ok_sqrt:
                sqrt_only += 1
            elif ok_quad:
                quad_only += 1
    return {
        "dim": d,
        "grid": grid,
        "points": grid * grid,
        "sqrt_defined": defined,
        "agree_feasible": both_feasible,
        "sqrt_only_feasible": sqrt_only,
        "quad_only_feasible": quad_only,
    }


def _check_point(p1: float, p2: float) -> None:
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValueError(f"(p1, p2) must lie in the unit square, got ({p1}, {p2})")
