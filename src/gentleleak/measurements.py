"""POVMs, measurement implementations, and (alpha, delta)-gentleness certification.

A POVM only fixes outcome statistics; the post-measurement state needs an
implementation {B_y} with B_y† B_y = F_y. Gentleness of a measurement is a
property of one implementation: with probability at least 1 - delta over
outcomes, the post-measurement state stays within trace distance alpha of
every state in the protected set.

``Povm`` and ``PovmImplementation`` are checked when built from input. What is
derived from checked parts (the probe at each strength, the projectors of a
unitary, Born tables, post-measurement states) is not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    COMPLETENESS_TOL, PROBE_TOL, SchemaError, _checked_stack, _eigh, _fill, _from_eig,
    _frozen_hermitian, _herm, _integer, _labels, _matrix_doc, _real, _Record, _spectrum, _stack,
    as_hermitian, as_unitary, matrices_from_json,
)
from .states import CqEnsemble

__all__ = [
    "ZERO_PROB",
    "ZeroProbabilityOutcome",
    "Povm",
    "PovmImplementation",
    "GentlenessSpec",
    "OutcomeRow",
    "GentlenessCertificate",
    "EpsilonCalibration",
    "born_probabilities",
    "post_measurement_state",
    "collapse",
    "certify_gentle",
    "gentle_povm",
    "max_certified_epsilon",
    "projective_povm",
    "povm_to_json",
    "povm_from_json",
]

# Outcomes at or below this probability are excluded from disturbance events;
# their post-measurement state is a 0/0 expression.
ZERO_PROB = 1e-12

# certify_gentle's rounding slack on alpha and on 1 - delta, so an exactly gentle
# branch at alpha = 0 and a good-event probability of exactly 1 - delta pass.
CERTIFY_SLACK = 1e-12

# Largest gentle-probe strength that gentle_povm, the calibration and the simulator accept.
MAX_EPSILON = 0.1

# The calibration bisects [0, MAX_EPSILON] this many times once MAX_EPSILON itself fails.
BISECTION_STEPS = 31

# How certify_gentle scores the good event: under each state, or under their average.
MODES = ("per-state", "average-state")


class ZeroProbabilityOutcome(ValueError):
    """Requested the post-measurement state of an outcome that cannot occur."""


@dataclass(frozen=True)
class Povm:
    """Positive operators {F_y} summing to the identity.

    ``elements`` holds the checked, symmetrized elements as one read-only
    (outcomes, d, d) array; ``labels`` holds strings, as linalg._labels makes them.
    """

    elements: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ValueError("POVM needs at least one element")
        elements = _checked_stack(self.elements, "element")
        resid = np.abs(elements.sum(axis=0) - np.eye(elements.shape[-1])).max()
        if resid > COMPLETENESS_TOL:
            raise ValueError(f"POVM completeness residual {resid:.3e}")
        labels = _labels(self.labels, len(elements))
        if len(labels) != len(elements):
            raise ValueError("labels must align with elements")
        _fill(self, elements=elements, labels=labels)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        """The POVM schema: {"labels": [...], "elements": [matrix, ...]}."""
        return {"labels": list(self.labels), "elements": [_matrix_doc(f) for f in self.elements]}


@dataclass(frozen=True)
class PovmImplementation:
    """Operators {B_y} with B_y† B_y = F_y, aligned with a Povm.

    ``operators`` holds them as one read-only (outcomes, d, d) array.
    """

    povm: Povm
    operators: np.ndarray

    def __post_init__(self):
        if len(self.operators) != len(self.povm):
            raise ValueError("one operator per POVM element required")
        ops = _stack(self.operators, "operator", self.povm.dim)
        if ops is self.operators:  # never freeze the caller's own array
            ops = ops.copy()
        resid = np.abs(ops.conj().swapaxes(-1, -2) @ ops - self.povm.elements).max(axis=(1, 2))
        bad = np.flatnonzero(~(resid <= COMPLETENESS_TOL))  # an overflowed residual is nan
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"operator {i}: B†B differs from F by {resid[i]:.3e}")
        _fill(self, operators=ops)

    @property
    def dim(self) -> int:
        return self.povm.dim

    def __len__(self) -> int:
        return len(self.operators)

    def to_json(self) -> dict:
        """The POVM schema of its POVM, with the operators as its "implementation" list."""
        return {**self.povm.to_json(), "implementation": [_matrix_doc(b) for b in self.operators]}


@dataclass(frozen=True)
class GentlenessSpec:
    """Detection-avoidance budget: disturbance cap alpha, exception probability delta in [0, 1]."""

    alpha: float
    delta: float

    def __post_init__(self):
        _fill(self, alpha=_real(self.alpha, "alpha"), delta=_real(self.delta, "delta"))


def born_probabilities(e: CqEnsemble, povm: Povm) -> np.ndarray:
    """Outcome distribution P[y | x] = tr(rho^x F_y), shape (outcomes, labels), clipped to [0, 1].

    Only the dimensions are checked: ``Povm`` and ``CqEnsemble`` have checked
    positivity and completeness, so each column sums to one within their
    tolerances.
    """
    if povm.dim != e.dim:
        raise ValueError(f"dimension mismatch: POVM {povm.dim}, ensemble {e.dim}")
    return _born(povm.elements, e.states)


def _born(elements: np.ndarray, states: np.ndarray) -> np.ndarray:
    """born_probabilities of elements (..., outcomes, d, d), unchecked: (..., outcomes, states).

    A stack is tabulated as one list of outcomes, so each entry is the sum that one POVM gets.
    """
    flat = elements.reshape(-1, *elements.shape[-2:])
    probs = np.einsum("yij,xji->yx", flat, states).real.clip(0.0, 1.0)
    return probs.reshape(*elements.shape[:-2], len(states))


def post_measurement_state(rho, impl: PovmImplementation, y: int) -> np.ndarray:
    """Collapsed state B_y rho B_y† / tr(rho F_y) after outcome y, symmetrized and read-only.

    The input rho is checked to be a density operator and y to index an
    outcome; the output is derived from checked values and is not checked
    again, as in :func:`collapse`.
    """
    rho = _checked_stack([rho], "state", unit_trace=True)[0]
    if rho.shape[0] != impl.dim:
        raise ValueError("dimension mismatch between state and implementation")
    y = _integer(y, "outcome y", 0, len(impl) - 1)
    b = impl.operators[y]
    out = b @ rho @ b.conj().T
    prob = float(np.trace(out).real)
    if prob <= ZERO_PROB:
        raise ZeroProbabilityOutcome(
            f"outcome {y} has probability {prob:.3e} <= {ZERO_PROB}; post state undefined"
        )
    return _frozen_hermitian(out / prob)


@dataclass(frozen=True)
class OutcomeRow(_Record):
    """One outcome of a GentlenessCertificate."""

    label: str
    good: bool
    max_disturbance: float | None  # max over states; None when no state can produce it
    probabilities: tuple[float, ...]  # P[y | x], one per state


@dataclass(frozen=True)
class GentlenessCertificate(_Record):
    """Result of checking one implementation against an (alpha, delta) budget: a row per outcome.

    worst_prob is the probability of the all-states-close event under the
    least favorable driving state (per-state mode) or under the ensemble
    average (average-state mode). worst_disturbance is the largest observed
    post-measurement deviation over outcomes and states.
    """

    alpha: float
    delta: float
    certified: bool
    worst_prob: float
    worst_disturbance: float
    mode: str
    outcomes: tuple[OutcomeRow, ...]


def collapse(
    e: CqEnsemble, impl: PovmImplementation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every branch B_y rho^x B_y† / tr(rho^x F_y) of the implementation on the ensemble.

    Returns ``(probs, post, dist)``: the Born table P[y | x] of shape
    (outcomes, states); the post-measurement states of the live pairs,
    stacked in the order of ``np.nonzero(dist >= 0)``; and the trace distance
    of each live post-measurement state from its input, -1 on the pairs that
    are not live. A pair is live when both roundings of its probability,
    tr(rho^x F_y) and the divisor tr(B_y rho^x B_y†), exceed ZERO_PROB. The
    post states are derived from a checked ensemble and implementation, so
    they are not checked again: their rounding error grows as 1/P[y | x],
    which the absolute input tolerances would reject. They are symmetrized
    once for one stacked spectrum call that gives every distance; ``post``
    itself is returned as computed.
    """
    return _collapse(born_probabilities(e, impl.povm), e.states, impl.operators)


def _collapse(probs: np.ndarray, rho: np.ndarray, ops: np.ndarray):
    """collapse of operators ops (..., outcomes, d, d) with Born table probs (..., outcomes, x).

    A leading stack axis gives one table per implementation in the stack, and ``post`` in the
    order of ``np.nonzero(dist >= 0)`` over all of them; each entry is the one collapse gives.
    """
    b = ops[..., None, :, :]
    out = b @ rho @ b.conj().swapaxes(-1, -2)  # B_y rho^x B_y†, (..., outcomes, states, d, d)
    norm = out.trace(axis1=-2, axis2=-1).real
    live = np.nonzero((probs > ZERO_PROB) & (norm > ZERO_PROB))  # (..., outcome, state) indices
    post = out[live] / norm[live][:, None, None]
    dist = np.full(probs.shape, -1.0)
    dist[live] = 0.5 * np.abs(_spectrum(_herm(post) - rho[live[-1]])).sum(axis=-1)
    return probs, post, dist


def _good_event(probs: np.ndarray, dist: np.ndarray, spec: GentlenessSpec, weights=None):
    """(good, prob, certified) of a Born table and its distances, or of each in a stack.

    An outcome is good when every state that can produce it stays within alpha of itself.
    prob is the good event's least probability over the states, or with ``weights`` (the
    priors) its probability under their average state; the table certifies when prob is at
    least 1 - delta. Both comparisons allow CERTIFY_SLACK.
    """
    good = (dist <= spec.alpha + CERTIFY_SLACK).all(axis=-1)
    if weights is not None:
        probs = (probs @ weights)[..., None]  # outcome distribution under the average state
    if good.ndim == 1:
        prob = probs[good].sum(axis=0).min()
    else:
        # numpy adds fewer than eight terms in order, so on a stack of three-outcome probes a
        # zero in place of each bad outcome leaves every sum as probs[good] gives it
        prob = np.where(good[..., None], probs, 0.0).sum(axis=-2).min(axis=-1)
    return good, prob, prob >= 1.0 - spec.delta - CERTIFY_SLACK


def certify_gentle(
    e: CqEnsemble,
    impl: PovmImplementation,
    spec: GentlenessSpec,
    mode: str = "per-state",
) -> GentlenessCertificate:
    """Decide whether an implementation meets the (alpha, delta) budget on the ensemble.

    An outcome is good when every ensemble state that can produce it stays
    within alpha of itself after the collapse. ``per-state`` mode scores the
    good-event probability under each state separately and takes the minimum
    (never over-certifies); ``average-state`` draws outcomes from the mean state.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    probs, _, dist = collapse(e, impl)
    good, worst_prob, certified = _good_event(
        probs, dist, spec, None if mode == "per-state" else e.probs
    )
    dists = dist.max(axis=1)
    rows = zip(impl.povm.labels, good.tolist(), dists.tolist(), probs.tolist())
    return GentlenessCertificate(
        alpha=spec.alpha, delta=spec.delta,
        certified=bool(certified),
        worst_prob=float(worst_prob),
        worst_disturbance=max(float(dists.max()), 0.0),
        mode=mode,
        outcomes=tuple(OutcomeRow(label, ok, dist if dist >= 0 else None, tuple(p))
                       for label, ok, dist, p in rows),
    )


def gentle_povm(m, epsilon: float) -> PovmImplementation:
    """The three-outcome weak probe of an operator M with 0 <= M <= I at strength epsilon.

    The implementation is {B+, B-, B0} with
        B+ = sqrt((1 - 2 eps^2)/2) I + eps M,
        B- = sqrt((1 - 2 eps^2)/2) I - eps M,
        B0 = sqrt(2) eps (I - M^2)^(1/2),
    all Hermitian, so B† B = B B† and the outcome operators sum to I exactly.
    Requires 0 <= M <= I (within ``PROBE_TOL``) and epsilon <= MAX_EPSILON.
    """
    return _probe_at(*_probe(m), _real(epsilon, "epsilon", MAX_EPSILON))


def _probe(m) -> tuple[np.ndarray, np.ndarray]:
    """Check 0 <= M <= I; return M and (I - M^2)^(1/2), the parts every probe strength shares."""
    a = as_hermitian(m)
    if a.ndim != 2:
        raise ValueError(f"probe must be one square matrix, got shape {a.shape}")
    w = _spectrum(a)
    if w[-1] < -PROBE_TOL or w[0] > 1.0 + PROBE_TOL:
        raise ValueError(f"probe eigenvalues must lie in [0, 1], got [{w[-1]:.3e}, {w[0]:.3e}]")
    return a, _probe_root(a)


def _probe_root(a: np.ndarray) -> np.ndarray:
    """(I - M^2)^(1/2) of a probe M = a, or of each in a stack; not checked.

    I - M^2 may dip to -2 PROBE_TOL for a checked M, so the root clips it at 0.
    """
    w, v = _eigh(_herm(np.eye(a.shape[-1], dtype=complex) - a @ a))
    return _from_eig(np.sqrt(np.clip(w, 0.0, None)), v)


def _probe_at(a: np.ndarray, root: np.ndarray, epsilon: float) -> PovmImplementation:
    """{B+, B-, B0} of the probe of M = a at strength epsilon, given root = (I - M^2)^(1/2).

    Not checked: the B_y are Hermitian and their squares sum to I within 4 eps^2 PROBE_TOL.
    """
    b = _probe_ops(a[None], root[None], [epsilon])[0]
    povm = _fill(object.__new__(Povm), elements=_frozen_hermitian(b @ b), labels=("+", "-", "0"))
    return _fill(object.__new__(PovmImplementation), povm=povm, operators=b)


def _probe_ops(a: np.ndarray, root: np.ndarray, eps: list[float]) -> np.ndarray:
    """{B+, B-, B0} of each probe M = a (n, d, d) at its strength eps (n), shape (n, 3, d, d).

    root holds each (I - M^2)^(1/2). Each strength is squared by Python's float power, the
    rounding the pinned outputs carry: numpy's square of an array differs from it in the
    last bit of some strengths.
    """
    n, d = len(eps), a.shape[-1]
    c = np.array([math.sqrt((1.0 - 2.0 * x**2) / 2.0) for x in eps])[:, None, None]
    t = np.array(eps)[:, None, None]
    ce, ta = c * np.eye(d, dtype=complex), t * a
    b = np.empty((n, 3, d, d), dtype=complex)
    b[:, 0], b[:, 1], b[:, 2] = ce + ta, ce - ta, np.sqrt(2.0) * t * root
    return b


def _probe_verdicts(e: CqEnsemble, spec: GentlenessSpec, a, root, eps):
    """Per-state verdicts of the probes M = a (n, d, d) at strengths eps (n), in one collapse.

    Returns whether each probe certifies and its Born table, shape (n, 3, states): to the
    bit what certify_gentle gives for _probe_at(a[i], root[i], eps[i]), with no certificate.
    """
    ops = _probe_ops(a, root, eps)
    probs, _, dist = _collapse(_born(_herm(ops @ ops), e.states), e.states, ops)
    return _good_event(probs, dist, spec)[2], probs


@dataclass(frozen=True)
class EpsilonCalibration:
    """Largest certified probe strength for a given budget, with its certificate.

    ``epsilon`` comes from bisecting the numerical certifier over [0, MAX_EPSILON]:
    MAX_EPSILON itself when it certifies, else ``lo`` after ``BISECTION_STEPS``
    halvings of [lo, hi] = [0, MAX_EPSILON] at midpoints ``0.5 * (lo + hi)``, so 0
    when no tried strength certifies. ``certificate`` is the certification of
    the probe at ``epsilon``, None when epsilon is 0.
    """

    epsilon: float
    certificate: GentlenessCertificate | None


def max_certified_epsilon(
    m,
    spec: GentlenessSpec,
    e: CqEnsemble,
    mode: str = "per-state",
) -> EpsilonCalibration:
    """Bisect for the largest epsilon whose gentle probe certifies at (alpha, delta).

    The probe is checked and (I - M^2)^(1/2) taken once; each step of _calibrate then
    builds its {B+, B-, B0} from them and runs certify_gentle. The steps are those of
    certify_gentle(gentle_povm(m, mid)) per step, so the returned epsilon is the same
    float, and its certificate is that of the last passing step.
    """
    a, root = _probe(m)

    def verdicts(_, eps):
        cert = certify_gentle(e, _probe_at(a, root, eps[0]), spec, mode)
        return [cert.certified], [cert]

    (epsilon,), (cert,) = _calibrate(verdicts, 1)
    return EpsilonCalibration(epsilon=epsilon, certificate=cert)


def _calibrate(verdicts, n: int) -> tuple[list[float], list]:
    """The one bisection: the largest certified strength of each of n probes, in lockstep.

    ``verdicts(idx, eps)`` certifies the probes idx at strengths eps and returns a pass
    flag and a record for each. Every probe tries MAX_EPSILON; the ones that fail bisect
    [lo, hi] = [0, MAX_EPSILON] together, BISECTION_STEPS times at midpoints
    0.5 * (lo + hi), one verdicts call per step. Returns each probe's strength
    (MAX_EPSILON if it passed there, else lo, so 0 when no tried strength passed) and the
    record of its last passing strength, None when none passed.
    """
    eps = [MAX_EPSILON] * n
    passed, records = verdicts(list(range(n)), eps)
    best = [record if ok else None for ok, record in zip(passed, records)]
    idx = [i for i, ok in enumerate(passed) if not ok]
    lo, hi = [0.0] * len(idx), [MAX_EPSILON] * len(idx)
    for _ in range(BISECTION_STEPS if idx else 0):
        mid = [0.5 * (low + high) for low, high in zip(lo, hi)]
        passed, records = verdicts(idx, mid)
        for k, ok in enumerate(passed):
            if ok:
                lo[k], best[idx[k]] = mid[k], records[k]
            else:
                hi[k] = mid[k]
    for i, strength in zip(idx, lo):
        eps[i] = strength
    return eps, best


def projective_povm(basis) -> PovmImplementation:
    """Rank-one projective measurement onto the columns of a unitary basis; B_y = F_y.

    The projectors are not checked: they sum to U U†, within d UNITARY_TOL of I.
    """
    cols = as_unitary(basis).T
    projs = cols[:, :, None] * cols.conj()[:, None, :]
    povm = _fill(object.__new__(Povm), elements=_frozen_hermitian(projs),
                 labels=_labels(None, len(projs)))
    return _fill(object.__new__(PovmImplementation), povm=povm, operators=projs)


def povm_to_json(impl_or_povm: Povm | PovmImplementation) -> dict:
    """The POVM schema of a Povm or PovmImplementation: its own to_json."""
    return impl_or_povm.to_json()


def povm_from_json(doc) -> tuple[Povm, PovmImplementation | None]:
    """Parse the POVM schema; the implementation block is optional."""
    if not isinstance(doc, dict) or "elements" not in doc:
        raise SchemaError("POVM document needs an 'elements' list")
    elements = doc["elements"]
    if not isinstance(elements, list) or not elements:
        raise SchemaError("'elements' must be a non-empty list")
    mats = matrices_from_json(elements, "element")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise SchemaError(f"POVM 'labels' must be a list, got {labels!r}")
    try:
        povm = Povm(mats, labels)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    impl = None
    if "implementation" in doc:
        ops = doc["implementation"]
        if not isinstance(ops, list) or len(ops) != len(mats):
            raise SchemaError("'implementation' must list one operator per element")
        try:
            impl = PovmImplementation(povm, matrices_from_json(ops, "operator"))
        except (SchemaError, ValueError) as exc:
            raise SchemaError(f"implementation: {exc}") from exc
    return povm, impl
