"""Maximal and gentle information leakage of classical-quantum ensembles.

The central quantity is the largest multiplicative boost a measurement gives
an adversary guessing any function of the encoded classical data. For a fixed
POVM it reduces to the order-infinity Sibson mutual information of the Born
channel, log2 sum_y max_x tr(rho^x F_y). Merging outcomes by their arg-max
turns the supremum over POVMs into uniform-weight minimum-error
discrimination, max sum_x tr(rho^x G_x) over POVMs {G_x}, whose dual is
min tr Y subject to Y >= rho^x (Yuen-Kennedy-Lax). It is solved by the
Jezek-Rehacek-Fiurasek fixed point G_x <- R^-1 rho^x G_x rho^x R^-1 with
R = (sum_x rho^x G_x rho^x)^(1/2), sped up by Anderson mixing of recent
iterates. Every iterate is a POVM, so its Sibson value is a lower bound; the
dual candidate Y = sum_x rho^x G_x, raised by its violations rho^x - Y until
it is feasible, gives a rigorous upper bound. A value is only returned once
the two agree to within GAP_TOL bits; a gap that stops shrinking, or the end
of the iteration budget, raises ConvergenceError.

Gentle leakage (the same supremum restricted to detection-avoiding
measurements) is bracketed: from above by the certified unrestricted
supremum, from below by the best of the cloning bound and an explicit
search over certified gentle probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloning import CloningBoundResult, cloning_lower_bound
from .linalg import ConvergenceError, eig_hermitian, positive_part
from .measurements import (
    GentlenessSpec,
    Povm,
    born_probabilities,
    certify_gentle,
    gentle_povm,
    max_certified_epsilon,
    povm_to_json,
)
from .states import CqEnsemble

__all__ = [
    "LeakageEstimate",
    "GentleLeakageInterval",
    "sibson_infinity",
    "maximal_quantum_leakage",
    "depolarized_leakage",
    "leakage_upper_bound",
    "gentle_leakage_interval",
]

MAX_ITERS = 2000
# A margin above the floor that rounding puts under the gap. On 250 random
# ensembles per seed (seeds 2024-2031), every solve that closed to 1e-10 bits
# also closed to 1e-12; with an exact Anderson acceptance test in place of
# ACCEPT_RTOL, 1e-12 stalled on 0 to 2 ensembles per seed (seeds 2024-2027).
GAP_TOL = 1e-10  # bits
# The iterate has stalled when its smallest gap over the last STALL_WINDOW
# iterations is not below STALL_FACTOR times the smallest over the window
# before. The multiplicative step shrinks some directions early and they grow
# back slowly, so a stall restarts from the iterate blended with RESEED_SHARE
# of the start I/|X|. The solve has failed when the best gap fell by less than
# STALL_FACTOR over the last FAIL_WINDOW iterations, restarts included.
STALL_WINDOW = 25
STALL_FACTOR = 0.9
RESEED_SHARE = 0.1
FAIL_WINDOW = 200
ANDERSON_DEPTH = 5
STEP_SHARE = 0.01  # of the plain step in each Anderson point
# A mixed point is rejected only if its diagonal value falls this far, relative,
# below the current iterate's. Near the optimum the two agree to rounding, and
# an exact comparison would let rounding noise decide.
ACCEPT_RTOL = 1e-13
# Eigenvalues of R^2 below this fraction of the largest span its kernel: directions
# no encoding state reaches, where every G_x gets an equal share of the identity.
KERNEL_RTOL = 1e-10


@dataclass(frozen=True)
class LeakageEstimate:
    """Certified maximal leakage: bits <= true value <= upper_bits.

    bits is the Sibson value of achieving_povm, upper_bits the value of a
    dual-feasible operator, and iterations the fixed-point steps it took.
    """

    bits: float
    upper_bits: float
    iterations: int
    achieving_povm: Povm

    def __post_init__(self):
        bits, upper = float(self.bits), float(self.upper_bits)
        if bits < -1e-9:
            raise ValueError(f"leakage cannot be negative, got {bits}")
        if bits > upper + 1e-12:
            raise ValueError(f"lower value {bits} exceeds the certified upper value {upper}")
        object.__setattr__(self, "bits", max(bits, 0.0))
        object.__setattr__(self, "upper_bits", max(upper, 0.0))

    def to_json(self) -> dict:
        return {
            "bits": self.bits,
            "upper_bits": self.upper_bits,
            "iterations": self.iterations,
            "achieving_povm": povm_to_json(self.achieving_povm),
        }


def sibson_infinity(p) -> float:
    """Order-infinity Sibson mutual information of a channel matrix P[y | x] in bits.

    Columns (one per input symbol) must sum to one within 1e-9. Zero exactly
    when all columns are identical; at most log2(#outcomes).
    """
    mat = np.asarray(p, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a 2-d channel matrix, got shape {mat.shape}")
    if np.min(mat) < -1e-10:
        raise ValueError(f"negative channel entry {np.min(mat):.3e}")
    colsums = mat.sum(axis=0)
    if np.max(np.abs(colsums - 1.0)) > 1e-9:
        raise ValueError("channel columns must each sum to 1")
    total = float(mat.max(axis=1).sum())
    return max(float(np.log2(total)), 0.0)


def leakage_upper_bound(e: CqEnsemble) -> float:
    """Cardinality/dimension cap log2 min(|X|, d): Y = I is dual-feasible."""
    return float(np.log2(min(len(e), e.dim)))


def depolarized_leakage(base_bits: float, p: float) -> float:
    """Leakage after global depolarizing noise: log2(p + (1-p) 2^base_bits)."""
    if base_bits < 0.0:
        raise ValueError("base_bits must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter must be in [0, 1], got {p}")
    if p == 0.0:
        return float(base_bits)
    if p == 1.0:
        return 0.0
    return float(np.log2(p + (1.0 - p) * 2.0**base_bits))


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _fixed_point_step(mats: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One step G_x <- R^-1 rho^x G_x rho^x R^-1, R inverted on its support.

    The kernel of R gets P_ker/|X| in every element, so the result sums to the
    identity; no state reaches the kernel, so no value changes. R^-1 amplifies
    rounding in near-kernel directions, so the step is renormalized.
    """
    w, v = eig_hermitian(_herm(np.einsum("xij,xjk,xkl->il", mats, g, mats)))
    support = w > KERNEL_RTOL * w[0]
    vs, vk = v[:, support], v[:, ~support]
    r_inv = (vs / np.sqrt(w[support])) @ vs.conj().T
    kernel = vk @ vk.conj().T / len(mats)
    return _normalized(_herm(r_inv @ mats @ g @ mats @ r_inv) + kernel)


def _normalized(h: np.ndarray) -> np.ndarray:
    """S^-1/2 h_x S^-1/2 with S = sum_x h_x: PSD elements that sum to the identity."""
    w, v = eig_hermitian(h.sum(axis=0))
    s = (v / np.sqrt(w)) @ v.conj().T
    return _herm(s @ h @ s)


def _as_povm(h: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Clip each element of h to PSD, blend in a share of the plain step, renormalize.

    The fixed point is multiplicative, so a direction the clip zeroes could
    never come back; the share of the step keeps every live direction alive.
    """
    h = (1.0 - STEP_SHARE) * positive_part(_herm(h)) + STEP_SHARE * step
    return _normalized(h)


def _diagonal_value(mats: np.ndarray, g: np.ndarray) -> float:
    return float(np.einsum("xij,xji->", mats, g).real)


class _Anderson:
    """Anderson mixing of the last few fixed-point steps (type II, no damping).

    A mixed point is brought back to a POVM and kept unless its diagonal
    value sum_x tr(rho^x G_x) falls more than ACCEPT_RTOL below the current
    iterate's; otherwise the plain step is taken and the history restarts.
    """

    def __init__(self):
        self.xs: list[np.ndarray] = []
        self.fs: list[np.ndarray] = []

    def next(self, mats: np.ndarray, g: np.ndarray, step: np.ndarray) -> np.ndarray:
        x, f = g.ravel(), (step - g).ravel()
        self.xs = (self.xs + [x])[-(ANDERSON_DEPTH + 1):]
        self.fs = (self.fs + [f])[-(ANDERSON_DEPTH + 1):]
        if len(self.fs) < 2:
            return step
        df = np.diff(np.array(self.fs), axis=0).T
        dx = np.diff(np.array(self.xs), axis=0).T
        gamma = np.linalg.lstsq(df, f, rcond=None)[0]
        mixed = _as_povm((x + f - (dx + df) @ gamma).reshape(g.shape), step)
        current = _diagonal_value(mats, g)
        if _diagonal_value(mats, mixed) >= current - ACCEPT_RTOL * abs(current):
            return mixed
        self.xs, self.fs = self.xs[-1:], self.fs[-1:]
        return step


def _bounds(mats: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """(lower, upper) in bits: the Sibson value of {G_x} and a dual-feasible value.

    Any Hermitian Y becomes dual-feasible once raised by t I, with
    t = max(0, max_x lambda_max(rho^x - Y)), or by sum_x (rho^x - Y)_+, since
    (rho^x - Y)_+ - (rho^x - Y) >= 0. So tr Y plus the smaller raise, d t or
    sum_x tr (rho^x - Y)_+, bounds the optimum from above; Y = herm(sum_x rho^x G_x).
    """
    total = float(np.einsum("xij,yji->yx", mats, g).real.max(axis=1).sum())
    y = _herm(np.einsum("xij,xjk->ik", mats, g))
    w = eig_hermitian(mats - y)[0]
    raise_by = min(mats.shape[1] * max(0.0, float(w.max())), float(np.clip(w, 0.0, None).sum()))
    upper = float(np.trace(y).real) + raise_by
    return max(float(np.log2(total)), 0.0), max(float(np.log2(upper)), 0.0)


def maximal_quantum_leakage(e: CqEnsemble) -> LeakageEstimate:
    """Supremum over all POVMs of the Born-channel Sibson information, in bits.

    Iterates from G_x = I/|X|, keeping the best lower and upper values seen,
    until they are within GAP_TOL bits. Raises ConvergenceError as soon as
    that gap stops falling, or if it is still larger after MAX_ITERS steps;
    an uncertified value is never returned.
    """
    mats = e.state_mats()
    n, d = len(e), e.dim
    start = np.repeat(np.eye(d, dtype=complex)[None] / n, n, axis=0)
    g, mixer = start, _Anderson()
    best_bits, best_g, best_upper = -np.inf, g, leakage_upper_bound(e)
    gaps: list[float] = []
    recent: list[float] = []  # the iterates' own gaps since the last restart
    for it in range(1, MAX_ITERS + 1):
        bits, upper = _bounds(mats, g)
        if bits > best_bits:
            best_bits, best_g = bits, g
        best_upper = min(best_upper, upper)
        gap = max(best_upper - best_bits, 0.0)
        if gap <= GAP_TOL:
            # the best values come from different iterates and can cross by rounding
            povm = Povm(tuple(best_g), labels=e.labels)
            return LeakageEstimate(best_bits, max(best_upper, best_bits), it, povm)
        gaps.append(gap)
        if it > FAIL_WINDOW and gap >= STALL_FACTOR * gaps[-FAIL_WINDOW - 1]:
            raise ConvergenceError(
                f"leakage gap stalled at {gap:.3e} bits, above {GAP_TOL:.1e}, after {it} iterations"
            )
        recent.append(max(upper - bits, 0.0))
        w = STALL_WINDOW
        if len(recent) >= 2 * w and min(recent[-w:]) >= STALL_FACTOR * min(recent[-2 * w:-w]):
            g = (1.0 - RESEED_SHARE) * g + RESEED_SHARE * start
            mixer, recent = _Anderson(), []
            continue
        g = mixer.next(mats, g, _fixed_point_step(mats, g))
    raise ConvergenceError(
        f"leakage gap {gap:.3e} bits still above {GAP_TOL:.1e} after {MAX_ITERS} iterations"
    )


@dataclass(frozen=True)
class GentleLeakageInterval:
    """Bracket on the leakage achievable by (alpha, delta)-gentle measurements."""

    lower_bits: float
    upper_bits: float
    lower_witness: str  # 'cloning-bound' or 'gentle-povm-search'
    spec: GentlenessSpec
    cloning: CloningBoundResult | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.lower_bits <= self.upper_bits + 1e-12:
            raise ValueError(
                f"invalid interval [{self.lower_bits}, {self.upper_bits}]"
            )

    def to_json(self) -> dict:
        return {
            "lower_bits": self.lower_bits,
            "upper_bits": self.upper_bits,
            "lower_witness": self.lower_witness,
            "alpha": self.spec.alpha,
            "delta": self.spec.delta,
            "cloning": self.cloning.to_json() if self.cloning else None,
            "meta": self.meta,
        }


def _gentle_probe_search(
    e: CqEnsemble, spec: GentlenessSpec
) -> tuple[float, dict]:
    """Best Sibson value over certified gentle probes built from pairwise differences."""
    mats = e.state_mats()
    best = 0.0
    detail: dict = {"probes": 0}
    for i in range(len(mats)):
        for j in range(len(mats)):
            if i == j:
                continue
            probe = positive_part(mats[i] - mats[j])
            top = float(np.max(np.abs(probe)))
            if top < 1e-12:
                continue
            cal = max_certified_epsilon(probe, spec, e)
            if cal.epsilon <= 0.0:
                continue
            construction = gentle_povm(probe, cal.epsilon)
            cert = certify_gentle(e, construction.implementation, spec)
            if not cert.certified:
                continue
            bits = sibson_infinity(born_probabilities(e, construction.implementation.povm))
            detail["probes"] += 1
            if bits > best:
                best = bits
                detail["best_pair"] = (e.labels[i], e.labels[j])
                detail["epsilon"] = cal.epsilon
    return best, detail


def gentle_leakage_interval(e: CqEnsemble, spec: GentlenessSpec) -> GentleLeakageInterval:
    """Bracket the gentle leakage: certified unrestricted supremum above, best witness below.

    The lower bound is the better of the cloning bound (depends only on alpha
    and the states' distances to I/d) and an explicit search over certified
    gentle probes; at alpha = 1 or delta = 1 every measurement is gentle, so
    the interval is the certified interval of the unrestricted supremum.
    """
    upper = maximal_quantum_leakage(e)
    if spec.alpha >= 1.0 or spec.delta >= 1.0:
        return GentleLeakageInterval(
            lower_bits=upper.bits,
            upper_bits=upper.upper_bits,
            lower_witness="gentle-povm-search",
            spec=spec,
            meta={"saturated": True, "upper_iterations": upper.iterations},
        )

    clone = cloning_lower_bound(e, spec.alpha, upper.bits)
    search_bits, detail = _gentle_probe_search(e, spec)

    lower = max(clone.lower_bits, search_bits)
    witness = "cloning-bound" if clone.lower_bits >= search_bits else "gentle-povm-search"
    return GentleLeakageInterval(
        lower_bits=lower,
        upper_bits=upper.upper_bits,
        lower_witness=witness,
        spec=spec,
        cloning=clone,
        meta={
            "search_bits": search_bits,
            "search": detail,
            "upper_iterations": upper.iterations,
        },
    )
