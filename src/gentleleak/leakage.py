"""Maximal and gentle information leakage of classical-quantum ensembles.

The central quantity is the largest multiplicative boost a measurement gives
an adversary guessing any function of the encoded classical data. For a fixed
POVM it reduces to the order-infinity Sibson mutual information of the Born
channel, log2 sum_y max_x tr(rho^x F_y). Merging outcomes by their arg-max
turns the supremum over POVMs into uniform-weight minimum-error
discrimination, max sum_x tr(rho^x G_x) over POVMs {G_x}, whose dual is
min tr Y subject to Y >= rho^x (Yuen-Kennedy-Lax). This SDP is solved on the
support of sum_x rho^x by a primal-dual interior-point method: HKM search
directions (Helmberg-Rendl-Vanderbei-Wolkowicz) with Mehrotra's
predictor-corrector, started from G_x = I/|X| and Y = 2 I. The certificate
does not rest on the solver's own stopping test. Each iterate, clipped to
PSD and completed to a POVM, gives a lower bound: its Sibson value. The
solver's Y and the candidate Y = sum_x rho^x G_x, each raised by
sum_x (rho^x - Y)_+ until it is feasible, give a rigorous upper bound. The
square-root measurement is certified before any step; it is optimal for
BB84 and the trine. If it leaves the gap above GAP_TOL and the support has
dimension 2 (every qubit ensemble, or e.g. two pure states in d = 8), the
POVM of the smallest ball around the Bloch vectors (Deconinck-Terhal; Bae)
is certified too, still as iteration 1: the optimum there is log2(1 + R)
for the ball's radius R. A value is only returned once the two bounds agree to
within GAP_TOL bits; a step that can no longer close the gap, or the end of
the iteration budget, raises ConvergenceError.

Gentle leakage (the same supremum restricted to detection-avoiding
measurements) is bracketed: from above by the certified unrestricted
supremum, from below by the best of the cloning bound and an explicit
search over certified gentle probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloning import CloningBoundResult, cloning_lower_bound
from .linalg import ConvergenceError, eig_hermitian, matrix_to_json, positive_part
from .measurements import GentlenessSpec, Povm, max_certified_epsilon, povm_to_json
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

MAX_ITERS = 100
# A margin above the floor that rounding puts under the gap: at 1e-12, 162 of
# 2,000 random ensembles (seeds 2024-2031) stall between 1.0e-12 and 1.4e-11 bits.
GAP_TOL = 1e-10  # bits
# Each Newton step goes this share of the way to the boundary of the PSD cone.
# At 0.98, four times as many of those ensembles end within 10x of GAP_TOL.
BOUNDARY_SHARE = 0.95
# Eigenvalues of sum_x rho^x below this fraction of the largest span its kernel:
# directions no encoding state reaches, where every G_x gets an equal share of I.
SUPPORT_RTOL = 1e-10
# Slack, in Bloch-vector length, of the smallest-ball test for a point on the sphere.
BALL_TOL = 1e-12
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class LeakageEstimate:
    """Certified maximal leakage: bits <= true value <= upper_bits.

    bits is the Sibson value of achieving_povm, upper_bits the value
    log2 tr Y of the dual-feasible operator dual (Y >= rho^x for every x),
    and iterations counts the start-point check and the interior-point
    (Newton) steps after it: 1 when a start candidate (the uniform POVM, the
    square-root measurement or, on a two-dimensional support, the Bloch-ball
    POVM) certifies.
    """

    bits: float
    upper_bits: float
    iterations: int
    achieving_povm: Povm
    dual: np.ndarray

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
            "dual": matrix_to_json(self.dual),
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
    if not np.max(np.abs(colsums - 1.0)) <= 1e-9:
        raise ValueError("channel columns must each sum to 1")
    total = float(mat.max(axis=1).sum())
    return max(float(np.log2(total)), 0.0)


def leakage_upper_bound(e: CqEnsemble) -> float:
    """Cardinality/dimension cap log2 min(|X|, d): Y = I is dual-feasible."""
    return float(np.log2(min(len(e), e.dim)))


def depolarized_leakage(base_bits: float, p: float) -> float:
    """Leakage after global depolarizing noise: log2(p + (1-p) 2^base_bits)."""
    if not base_bits >= 0.0:
        raise ValueError("base_bits must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter must be in [0, 1], got {p}")
    if p == 0.0:
        return float(base_bits)
    return float(np.log2(p + (1.0 - p) * 2.0**base_bits))


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _povm(h: np.ndarray) -> np.ndarray:
    """Each h_x clipped to PSD, then S^-1/2 h_x S^-1/2 with S = sum_x h_x: a POVM."""
    w, v = np.linalg.eigh(h)
    h = (v * np.clip(w, 0.0, None)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    w, v = np.linalg.eigh(h.sum(axis=0))
    s = (v / np.sqrt(w)) @ v.conj().T
    return _herm(s @ h @ s)


def _ball_through(p: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest ball with the m <= 4 points p (m, 3) on its sphere: (centre, radius).

    The centre c = p_0 + sum_k alpha_k (p_k - p_0) solves 2 (p_k - p_0).(c - p_0) =
    |p_k - p_0|^2; least squares keeps a degenerate (collinear or coplanar) set finite.
    """
    a = p[1:] - p[0]
    gram = a @ a.T
    c = p[0] + np.linalg.lstsq(2.0 * gram, np.diag(gram), rcond=None)[0] @ a
    return c, float(np.linalg.norm(p - c, axis=1).max())


def _nonnegative_solution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x >= 0 that minimizes |a x - b|, by Lawson and Hanson's active-set method.

    The free set grows by the index of the largest gradient entry; whenever the
    least-squares solution on it leaves the orthant, x moves toward it as far as
    x >= 0 allows and the indices that reach 0 are fixed again.
    """
    m = a.shape[1]
    x, free = np.zeros(m), np.zeros(m, dtype=bool)
    for _ in range(3 * m):
        grad = np.where(free, -np.inf, a.T @ (b - a @ x))
        if grad.max() <= BALL_TOL:
            break
        free[grad.argmax()] = True
        while free.any():
            s = np.zeros(m)
            s[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            cut = free & (s <= 0.0)
            if not cut.any():
                x = s
                break
            t = np.min(x[cut] / np.maximum(x[cut] - s[cut], np.finfo(float).tiny))
            x = x + t * (s - x)
            free &= x > BALL_TOL
    return np.clip(x, 0.0, None)


def _bloch_ball_povm(rho: np.ndarray) -> np.ndarray | None:
    """The minimum-error POVM of a two-dimensional ensemble rho (n, 2, 2), from its Bloch ball.

    With rho^x = (I + r_x.sigma)/2 and Y = aI + b.sigma, Y >= rho^x reads
    a - 1/2 >= |b - r_x/2|, so min tr Y = 1 + R for the smallest ball (c, R)
    around the Bloch vectors r_x. Welzl's incremental algorithm finds it in
    four nested loops. Writing c = sum_x lambda_x r_x over the points on the
    sphere (lambda >= 0, sum lambda = 1) gives G_x = lambda_x (I + n_x.sigma)
    with n_x = (r_x - c)/R, which sums to I and reaches 1 + R; G = I on the
    first state when R = 0. None when rounding leaves no such lambda. The
    caller certifies the POVM, so nothing here is trusted.
    """
    r = np.einsum("xij,aji->xa", rho, PAULI).real
    c, rad = r[0], 0.0

    def outside(p: np.ndarray) -> bool:
        return float(np.linalg.norm(p - c)) > rad + BALL_TOL

    for i in range(1, len(r)):
        if outside(r[i]):
            c, rad = r[i], 0.0
            for j in range(i):
                if outside(r[j]):
                    c, rad = _ball_through(r[[i, j]])
                    for k in range(j):
                        if outside(r[k]):
                            c, rad = _ball_through(r[[i, j, k]])
                            for m in range(k):
                                if outside(r[m]):
                                    c, rad = _ball_through(r[[i, j, k, m]])
    g = np.zeros_like(rho)
    if rad <= BALL_TOL:
        g[0] = np.eye(2)
        return g
    on = np.flatnonzero(np.linalg.norm(r - c, axis=1) >= rad - BALL_TOL)
    a, b = np.vstack([r[on].T, np.ones(len(on))]), np.append(c, 1.0)
    lam = _nonnegative_solution(a, b)
    if np.abs(a @ lam - b).max() > BALL_TOL:
        return None
    g[on] = lam[:, None, None] * (np.eye(2) + np.einsum("xa,aij->xij", (r[on] - c) / rad, PAULI))
    return _povm(g)


def _bounds(mats: np.ndarray, g: np.ndarray, y: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(lower, upper, Y): the Sibson value of the POVM {G_x}, a dual-feasible value, its Y.

    Both values are in bits. Any Hermitian Y becomes dual-feasible once raised by
    sum_x (rho^x - Y)_+, since (rho^x - Y)_+ - (rho^x - Y) >= 0, so
    tr Y + sum_x tr (rho^x - Y)_+ bounds the optimum from above. Both the solver's y
    and herm(sum_x rho^x G_x) are priced so; the cheaper Y is returned before its raise.
    """
    lower = sibson_infinity(np.einsum("xij,yji->yx", mats, g).real)
    ys = np.stack([_herm(np.einsum("xij,xjk->ik", mats, g)), y])
    w = np.linalg.eigvalsh(mats[None] - ys[:, None])
    values = np.trace(ys, axis1=1, axis2=2).real + np.clip(w, 0.0, None).sum(axis=(1, 2))
    k = int(np.argmin(values))
    return lower, max(float(np.log2(values[k])), 0.0), ys[k]


def _newton_step(rho: np.ndarray, g: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One HKM step with Mehrotra's predictor-corrector from an interior point (G, Y).

    The dual slacks Z_x = Y - rho^x share the move dY, so dual feasibility is
    exact. Linearizing G_x Z_x = sigma mu I and sum_x dG_x = 0 leaves one
    k^2 x k^2 system, sum_x herm(G_x dY Z_x^-1) = r, for dY; dG_x follows. A
    common step t for G and Y makes mu fall by the factor 1 - t (1 - sigma),
    as sum_x tr(dG_x dY) = 0; the completed step must lower mu, or the solve
    has reached the floor rounding sets and ConvergenceError is raised.
    """
    n, k = g.shape[:2]
    z = y - rho
    w, v = np.linalg.eigh(np.concatenate([g, z]))
    if not w.min() > 0.0:
        raise ConvergenceError("the iterate left the interior of the PSD cone")
    inv_sqrt = (v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    z_inv = inv_sqrt[n:] @ inv_sqrt[n:]
    mu = float(np.einsum("xij,xji->", g, z).real) / (n * k)
    # sum_x herm(G_x dY Z_x^-1) as a matrix acting on dY flattened row by row
    schur = np.einsum("xik,xlj->ijkl", g, z_inv) + np.einsum("xik,xlj->ijkl", z_inv, g)
    schur = schur.reshape(k * k, k * k) / 2.0

    def direction(sigma_mu: float, second_order: np.ndarray):
        r = sigma_mu * z_inv.sum(axis=0) - _herm(second_order @ z_inv).sum(axis=0) - np.eye(k)
        dy = _herm(np.linalg.solve(schur, r.reshape(-1)).reshape(k, k))
        dg = _herm(sigma_mu * z_inv - g - (g @ dy + second_order) @ z_inv)
        # X + t dX >= 0 exactly when I + t X^-1/2 dX X^-1/2 >= 0
        dx = np.concatenate([dg, np.broadcast_to(dy, z.shape)])
        lowest = float(np.linalg.eigvalsh(inv_sqrt @ dx @ inv_sqrt).min())
        return dg, dy, 1.0 if lowest >= 0.0 else min(1.0, -BOUNDARY_SHARE / lowest)

    dg, dy, t = direction(0.0, np.zeros_like(g))
    dg, dy, t = direction(mu * (1.0 - t) ** 3, dg @ dy)
    g, y = _povm(g + t * dg), y + t * dy
    if not float(np.einsum("xij,xji->", g, y - rho).real) / (n * k) < mu:
        raise ConvergenceError("the step did not lower the duality measure")
    return g, y


def maximal_quantum_leakage(e: CqEnsemble) -> LeakageEstimate:
    """Supremum over all POVMs of the Born-channel Sibson information, in bits.

    Certifies the square-root measurement and the uniform POVM I/|X| (one
    iteration). If their gap is above GAP_TOL and the support of sum_x rho^x
    has dimension 2, the same iteration certifies the Bloch-ball POVM of
    _bloch_ball_povm. Otherwise, or if that fails too, it takes
    interior-point steps from I/|X|, keeping the best lower and upper values
    seen. Once they are within GAP_TOL bits it goes on while each step at
    least halves the gap. Raises ConvergenceError if a
    step fails or cannot lower the solver's duality measure before the gap
    is within GAP_TOL, or if the gap is still larger after MAX_ITERS
    iterations; an uncertified value is never returned.
    """
    mats = e.states
    n, d = len(e), e.dim
    w, v = eig_hermitian(mats.sum(axis=0))
    support = w > SUPPORT_RTOL * w[0]
    vs, ws = v[:, support], w[support]
    rho = _herm(vs.conj().T @ mats @ vs)
    kernel = (np.eye(d) - vs @ vs.conj().T) / n
    g = np.repeat(np.eye(len(ws), dtype=complex)[None] / n, n, axis=0)
    # strictly dual-feasible, as no eigenvalue of a state exceeds 1
    y = 2.0 * np.eye(len(ws), dtype=complex)
    scale = 1.0 / np.sqrt(ws)
    square_root = _povm(scale[:, None] * rho * scale[None, :])
    points, iterations, prev = (g, square_root), 1, 0.0  # the start has no earlier gap to halve
    best_bits, best_g, best_upper, best_y = -np.inf, None, leakage_upper_bound(e), None
    ball = len(ws) == 2  # the Bloch-ball POVM is still to be priced
    while True:
        for point in points:
            full = vs @ point @ vs.conj().T + kernel
            bits, upper, dual_y = _bounds(mats, full, vs @ y @ vs.conj().T)
            if bits > best_bits:
                best_bits, best_g = bits, full
            if upper < best_upper:
                best_upper, best_y = upper, dual_y
        gap = max(best_upper - best_bits, 0.0)
        if gap <= GAP_TOL and not 0.0 < 2.0 * gap <= prev:
            break
        if ball:  # a start candidate, still iteration 1
            ball, candidate = False, _bloch_ball_povm(rho)
            if candidate is not None:
                points = (candidate,)
                continue
        if iterations == MAX_ITERS:
            raise ConvergenceError(
                f"leakage gap {gap:.3e} bits still above {GAP_TOL:.1e} after {MAX_ITERS} iterations"
            )
        try:
            g, y = _newton_step(rho, g, y)
        except (ConvergenceError, np.linalg.LinAlgError) as exc:
            if gap <= GAP_TOL:
                break
            raise ConvergenceError(
                f"leakage gap stalled at {gap:.3e} bits, above {GAP_TOL:.1e}, "
                f"after {iterations} iterations: {exc}"
            ) from exc
        points, iterations, prev = (g,), iterations + 1, gap
    # the best values come from different iterates and can cross by rounding
    povm = Povm(tuple(best_g), labels=e.labels)
    if best_y is None:  # the cap's own dual, already feasible: I when d <= |X|, else sum_x rho^x
        dual = np.eye(d, dtype=complex) if d <= n else mats.sum(axis=0)
    else:
        dual = best_y + positive_part(mats - best_y).sum(axis=0)
    return LeakageEstimate(min(best_bits, best_upper), best_upper, iterations, povm, dual)


@dataclass(frozen=True)
class GentleLeakageInterval:
    """Bracket on the leakage achievable by (alpha, delta)-gentle measurements."""

    lower_bits: float
    upper_bits: float
    lower_witness: str  # 'cloning-bound', 'gentle-povm-search' or 'maximal-leakage-povm'
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
    """Best Sibson value over certified gentle probes built from pairwise differences.

    Each probe is (rho^i - rho^j)_+ at the largest strength the calibration
    certifies; its Born table is the one that calibration certified.
    """
    mats = e.states
    pairs = [(i, j) for i in range(len(mats)) for j in range(len(mats)) if i != j]
    best = 0.0
    detail: dict = {"probes": 0}
    if not pairs:
        return best, detail
    probes = positive_part(np.stack([mats[i] - mats[j] for i, j in pairs]))
    for (i, j), probe in zip(pairs, probes):
        if float(np.max(np.abs(probe))) < 1e-12:
            continue
        cal = max_certified_epsilon(probe, spec, e)
        if cal.certificate is None:
            continue
        bits = sibson_infinity(cal.certificate.outcome_probs)
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
            lower_witness="maximal-leakage-povm",
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
