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

from dataclasses import dataclass

import numpy as np

from .linalg import (
    COMPLETENESS_TOL, PROBE_TOL, SchemaError, _checked_stack, _eigh, _fill, _from_eig,
    _frozen_hermitian, _herm, _spectrum, _stack, as_hermitian, as_unitary, matrices_from_json,
    matrix_to_json,
)
from .states import CqEnsemble

__all__ = [
    "ZERO_PROB",
    "ZeroProbabilityOutcome",
    "Povm",
    "PovmImplementation",
    "GentlenessSpec",
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
    (outcomes, d, d) array.
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
        labels = tuple(self.labels) if self.labels else tuple(str(i) for i in range(len(elements)))
        if len(labels) != len(elements):
            raise ValueError("labels must align with elements")
        _fill(self, elements=elements, labels=labels)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return len(self.elements)


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


@dataclass(frozen=True)
class GentlenessSpec:
    """Detection-avoidance budget: disturbance cap alpha, exception probability delta."""

    alpha: float
    delta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")


def born_probabilities(e: CqEnsemble, povm: Povm) -> np.ndarray:
    """Outcome distribution P[y | x] = tr(rho^x F_y), shape (outcomes, labels), clipped to [0, 1].

    Only the dimensions are checked: ``Povm`` and ``CqEnsemble`` have checked
    positivity and completeness, so each column sums to one within their
    tolerances.
    """
    if povm.dim != e.dim:
        raise ValueError(f"dimension mismatch: POVM {povm.dim}, ensemble {e.dim}")
    return np.einsum("yij,xji->yx", povm.elements, e.states).real.clip(0.0, 1.0)


def post_measurement_state(rho, impl: PovmImplementation, y: int) -> np.ndarray:
    """Collapsed state B_y rho B_y† / tr(rho F_y) after outcome y, symmetrized and read-only.

    The input rho is checked to be a density operator and y to index an
    outcome; the output is derived from checked values and is not checked
    again, as in :func:`collapse`.
    """
    rho = _checked_stack([rho], "state", unit_trace=True)[0]
    if rho.shape[0] != impl.dim:
        raise ValueError("dimension mismatch between state and implementation")
    if isinstance(y, bool) or not isinstance(y, (int, np.integer)):
        raise ValueError(f"outcome y must be an integer, got {y!r}")
    if not 0 <= y < len(impl):
        raise ValueError(f"outcome {y} out of range for {len(impl)} outcomes")
    b = impl.operators[y]
    out = b @ rho @ b.conj().T
    prob = float(np.trace(out).real)
    if prob <= ZERO_PROB:
        raise ZeroProbabilityOutcome(
            f"outcome {y} has probability {prob:.3e} <= {ZERO_PROB}; post state undefined"
        )
    return _frozen_hermitian(out / prob)


@dataclass(frozen=True)
class GentlenessCertificate:
    """Result of checking one implementation against an (alpha, delta) budget.

    worst_prob is the probability of the all-states-close event under the
    least favorable driving state (per-state mode) or under the ensemble
    average (average-state mode). worst_disturbance is the largest observed
    post-measurement deviation over outcomes and states.
    """

    certified: bool
    worst_prob: float
    worst_disturbance: float
    mode: str
    outcome_labels: tuple[str, ...]
    outcome_good: tuple[bool, ...]
    outcome_disturbance: tuple[float, ...]  # max over states; -1 when never triggered
    outcome_probs: tuple[tuple[float, ...], ...]  # P[y | x], one row per outcome

    def to_json(self) -> dict:
        return {
            "certified": self.certified,
            "worst_prob": self.worst_prob,
            "worst_disturbance": self.worst_disturbance,
            "mode": self.mode,
            "outcomes": [
                {
                    "label": lab,
                    "good": good,
                    "max_disturbance": dist if dist >= 0 else None,
                    "probabilities": list(probs),
                }
                for lab, good, dist, probs in zip(
                    self.outcome_labels,
                    self.outcome_good,
                    self.outcome_disturbance,
                    self.outcome_probs,
                )
            ],
        }


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
    probs = born_probabilities(e, impl.povm)
    rho = e.states
    b = impl.operators[:, None]
    out = b @ rho @ b.conj().swapaxes(-1, -2)  # B_y rho^x B_y†, (outcomes, states, d, d)
    norm = out.trace(axis1=-2, axis2=-1).real
    live = np.nonzero((probs > ZERO_PROB) & (norm > ZERO_PROB))  # (outcome, state) indices
    post = out[live] / norm[live][:, None, None]
    dist = np.full(probs.shape, -1.0)
    dist[live] = 0.5 * np.abs(_spectrum(_herm(post) - rho[live[1]])).sum(axis=-1)
    return probs, post, dist


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
    good = (dist <= spec.alpha + CERTIFY_SLACK).all(axis=1)
    dists = dist.max(axis=1)

    if mode == "per-state":
        worst_prob = float(probs[good].sum(axis=0).min())
    else:
        weights = probs @ e.probs  # outcome distribution under the average state
        worst_prob = float(weights[good].sum())

    return GentlenessCertificate(
        certified=bool(worst_prob >= 1.0 - spec.delta - CERTIFY_SLACK),
        worst_prob=worst_prob,
        worst_disturbance=max(float(dists.max()), 0.0),
        mode=mode,
        outcome_labels=impl.povm.labels,
        outcome_good=tuple(good.tolist()),
        outcome_disturbance=tuple(dists.tolist()),
        outcome_probs=tuple(map(tuple, probs.tolist())),
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
    if not 0.0 <= epsilon <= MAX_EPSILON:
        raise ValueError(f"epsilon must be in [0, {MAX_EPSILON}], got {epsilon}")
    return _probe_at(*_probe(m), epsilon)


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
    eye = np.eye(a.shape[0], dtype=complex)
    c = np.sqrt((1.0 - 2.0 * epsilon**2) / 2.0)
    b = np.array([c * eye + epsilon * a, c * eye - epsilon * a, np.sqrt(2.0) * epsilon * root])
    povm = _fill(object.__new__(Povm), elements=_frozen_hermitian(b @ b), labels=("+", "-", "0"))
    return _fill(object.__new__(PovmImplementation), povm=povm, operators=b)


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

    The probe is checked and (I - M^2)^(1/2) taken once; each step then
    builds its {B+, B-, B0} from them and runs certify_gentle. The steps are
    those of certify_gentle(gentle_povm(m, mid)) per step, so the returned
    epsilon is the same float, and its certificate is that of the last
    passing step.
    """
    return _calibrate(*_probe(m), spec, e, mode)


def _calibrate(a, root, spec: GentlenessSpec, e: CqEnsemble, mode: str) -> EpsilonCalibration:
    """max_certified_epsilon of the probe M = a with root = (I - M^2)^(1/2); M not checked."""

    def certify(eps: float) -> GentlenessCertificate:
        return certify_gentle(e, _probe_at(a, root, eps), spec, mode)

    cert = certify(MAX_EPSILON)
    if cert.certified:
        return EpsilonCalibration(epsilon=MAX_EPSILON, certificate=cert)
    lo, hi, best = 0.0, MAX_EPSILON, None
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        cert = certify(mid)
        if cert.certified:
            lo, best = mid, cert
        else:
            hi = mid
    return EpsilonCalibration(epsilon=lo, certificate=best)


def projective_povm(basis) -> PovmImplementation:
    """Rank-one projective measurement onto the columns of a unitary basis; B_y = F_y.

    The projectors are not checked: they sum to U U†, within d UNITARY_TOL of I.
    """
    cols = as_unitary(basis).T
    projs = cols[:, :, None] * cols.conj()[:, None, :]
    labels = tuple(str(y) for y in range(len(projs)))
    povm = _fill(object.__new__(Povm), elements=_frozen_hermitian(projs), labels=labels)
    return _fill(object.__new__(PovmImplementation), povm=povm, operators=projs)


def povm_to_json(impl_or_povm) -> dict:
    if isinstance(impl_or_povm, PovmImplementation):
        povm, impl = impl_or_povm.povm, impl_or_povm
    else:
        povm, impl = impl_or_povm, None
    doc = {
        "labels": list(povm.labels),
        "elements": [matrix_to_json(f) for f in povm.elements],
    }
    if impl is not None:
        doc["implementation"] = [matrix_to_json(b) for b in impl.operators]
    return doc


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
    labels = tuple(str(x) for x in labels or ())
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
