"""Density operators, classical-quantum ensembles, and the channels acting on them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    UNIT_TRACE_TOL,
    SchemaError,
    _spectrum,
    _stack,
    as_unitary,
    matrices_from_json,
    matrix_to_json,
    trace_distance,
)

__all__ = [
    "CqEnsemble",
    "average_state",
    "apply_unitary",
    "depolarize",
    "unitary_disturbance",
    "bb84_ensemble",
    "ket",
    "pure_state",
    "ensemble_to_json",
    "ensemble_from_json",
]


def checked_states(mats) -> np.ndarray:
    """The density matrices as one checked, symmetrized, read-only (n, d, d) array.

    The whole stack is checked in one pass with one spectrum call: each
    matrix must be square and of the first one's dimension, finite, Hermitian,
    PSD and of unit trace. A failure names the first failing matrix, with the
    text a lone matrix would give, so every earlier matrix passes every check.
    """
    a = _stack(mats, "state")
    adj = a.conj().swapaxes(-1, -2)
    finite = np.isfinite(a).all(axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # inf - inf; those matrices fail as non-finite
        asym = np.abs(a - adj).max(axis=(-2, -1))
    ok = finite & (asym <= HERMITICITY_TOL)
    k = len(a) if ok.all() else int(ok.argmin())  # the first failure of these two checks
    h = (a[:k] + adj[:k]) / 2.0
    low = _spectrum(h)[:, -1]
    tr = h.trace(axis1=-2, axis2=-1).real
    bad = np.flatnonzero((low < -PSD_TOL) | (np.abs(tr - 1.0) > UNIT_TRACE_TOL))
    if bad.size:
        i = int(bad[0])
        if low[i] < -PSD_TOL:
            raise ValueError(f"state {i}: state is not PSD: min eigenvalue {low[i]:.3e}")
        raise ValueError(f"state {i}: state trace {float(tr[i])!r} is not 1")
    if k < len(a):
        raise ValueError(f"state {k}: matrix has non-finite entries" if not finite[k] else
                         f"state {k}: matrix is not Hermitian: max asymmetry {asym[k]:.3e} > "
                         f"{HERMITICITY_TOL:.3e}")
    h.flags.writeable = False
    return h


@dataclass(frozen=True)
class CqEnsemble:
    """Classical-quantum ensemble: labels x with probabilities and encoding states.

    ``states`` holds the density matrices as one read-only (len, d, d) array,
    checked by checked_states. All probabilities must be strictly positive
    (zero-probability symbols are rejected rather than trimmed, so user
    errors surface) and sum to one.
    """

    probs: np.ndarray
    states: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(probs) != len(self.states) or len(probs) == 0:
            raise ValueError("need one probability per state, at least one item")
        states = checked_states(self.states)
        if not np.all(probs > 0.0):
            raise ValueError("all probabilities must be strictly positive")
        if not abs(float(probs.sum()) - 1.0) <= UNIT_TRACE_TOL:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, expected 1")
        labels = tuple(self.labels) if self.labels else tuple(str(i) for i in range(len(states)))
        if len(labels) != len(states) or len(set(labels)) != len(labels):
            raise ValueError("labels must be unique and aligned with states")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def __len__(self) -> int:
        return len(self.states)


def ket(amplitudes) -> np.ndarray:
    """Normalized column vector from a sequence of amplitudes."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector")
    return v / n


def pure_state(amplitudes) -> np.ndarray:
    """The density matrix |v><v| of the normalized amplitudes, checked and read-only."""
    v = ket(amplitudes)
    return checked_states([np.outer(v, v.conj())])[0]


def average_state(e: CqEnsemble) -> np.ndarray:
    """Expected density operator of the ensemble, sum_x p(x) rho^x, symmetrized and read-only.

    The sum is derived from a checked ensemble and is not checked again: its
    trace may miss 1 by the probability and state tolerances together.
    """
    avg = np.einsum("x,xij->ij", e.probs, e.states)
    avg = (avg + avg.conj().T) / 2.0
    avg.flags.writeable = False
    return avg


def apply_unitary(e: CqEnsemble, u) -> CqEnsemble:
    """Conjugate every encoding state by the unitary u; probabilities unchanged."""
    u = as_unitary(u)
    return CqEnsemble(e.probs, u @ e.states @ u.conj().T, e.labels)


def depolarize(e: CqEnsemble, p: float) -> CqEnsemble:
    """Apply the global depolarizing channel rho -> p I/d + (1-p) rho to every state."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter must be in [0, 1], got {p}")
    d = e.dim
    eye = np.eye(d, dtype=complex)
    return CqEnsemble(e.probs, p * eye / d + (1.0 - p) * e.states, e.labels)


def unitary_disturbance(e: CqEnsemble, u) -> float:
    """Largest trace distance between an encoding state and its image under u."""
    u = as_unitary(u)
    return float(trace_distance(u @ e.states @ u.conj().T, e.states).max())


def bb84_ensemble() -> CqEnsemble:
    """The four-state qubit encoding used by BB84, uniform over (basis, bit) labels.

    (0,0) -> |0>, (0,1) -> |1>, (1,0) -> |+>, (1,1) -> |->.
    """
    s = 1.0 / np.sqrt(2.0)
    v = np.array([ket(a) for a in ([1.0, 0.0], [0.0, 1.0], [s, s], [s, -s])])
    return CqEnsemble(
        np.full(4, 0.25), v[:, :, None] * v.conj()[:, None, :],
        labels=("(0,0)", "(0,1)", "(1,0)", "(1,1)"),
    )


def ensemble_to_json(e: CqEnsemble) -> dict:
    return {
        "labels": list(e.labels),
        "probs": [float(p) for p in e.probs],
        "states": [matrix_to_json(s) for s in e.states],
    }


def ensemble_from_json(doc) -> CqEnsemble:
    """Parse and validate the ensemble schema, reporting the first violation by index."""
    if not isinstance(doc, dict):
        raise SchemaError("ensemble document must be an object")
    for key in ("labels", "probs", "states"):
        if key not in doc or not isinstance(doc[key], list):
            raise SchemaError(f"ensemble document needs a '{key}' list")
    labels, probs, states = doc["labels"], doc["probs"], doc["states"]
    if not len(labels) == len(probs) == len(states):
        raise SchemaError(
            f"lengths disagree: {len(labels)} labels, {len(probs)} probs, {len(states)} states"
        )
    mats = matrices_from_json(states, "state")
    for i, p in enumerate(probs):
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 < p <= 1.0:
            raise SchemaError(f"prob {i}: must be a number in (0, 1], got {p!r}")
    try:
        return CqEnsemble(np.array(probs, dtype=float), mats, tuple(str(x) for x in labels))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
