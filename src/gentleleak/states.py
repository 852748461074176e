"""Density operators, classical-quantum ensembles, and the channels acting on them.

A ``CqEnsemble`` is checked when built from input. The channels check only
their own argument; the image ensemble is symmetrized, read-only and not checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    UNIT_TRACE_TOL, SchemaError, _checked_stack, _eigh, _fill, _frozen_hermitian, _herm, as_unitary,
    matrices_from_json, matrix_to_json,
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


@dataclass(frozen=True)
class CqEnsemble:
    """Classical-quantum ensemble: labels x with probabilities and encoding states.

    ``states`` holds the density matrices as one read-only (len, d, d) array,
    checked by linalg._checked_stack. All probabilities must be strictly positive
    (zero-probability symbols are rejected rather than trimmed, so user
    errors surface) and sum to one.
    """

    probs: np.ndarray
    states: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)  # a copy: _fill freezes it
        if probs.ndim != 1 or len(probs) != len(self.states) or len(probs) == 0:
            raise ValueError("need one probability per state, at least one item")
        states = _checked_stack(self.states, "state", unit_trace=True)
        if not np.all(probs > 0.0):
            raise ValueError("all probabilities must be strictly positive")
        if not abs(float(probs.sum()) - 1.0) <= UNIT_TRACE_TOL:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, expected 1")
        labels = tuple(self.labels) if self.labels else tuple(str(i) for i in range(len(states)))
        if len(labels) != len(states) or len(set(labels)) != len(labels):
            raise ValueError("labels must be unique and aligned with states")
        _fill(self, probs=probs, states=states, labels=labels)

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
    return _checked_stack([np.outer(v, v.conj())], "state", unit_trace=True)[0]


def average_state(e: CqEnsemble) -> np.ndarray:
    """Expected density operator of the ensemble, sum_x p(x) rho^x, symmetrized and read-only.

    The sum is derived from a checked ensemble and is not checked again; it is
    renormalized, so its trace is 1 to rounding and it passes as input again.
    """
    rho = np.einsum("x,xij->ij", e.probs, e.states)
    return _frozen_hermitian(rho / rho.trace().real)


def _with_states(e: CqEnsemble, states: np.ndarray) -> CqEnsemble:
    """e with its states replaced by an image derived from them, symmetrized and not checked."""
    states = _frozen_hermitian(states)
    return _fill(object.__new__(CqEnsemble), probs=e.probs, states=states, labels=e.labels)


def _conjugated(e: CqEnsemble, u) -> np.ndarray:
    """u rho^x u† for every state, once u is checked to be a unitary of the ensemble's dimension."""
    u = as_unitary(u)
    if u.shape[0] != e.dim:
        raise ValueError(f"dimension mismatch: unitary {u.shape[0]}, ensemble {e.dim}")
    return u @ e.states @ u.conj().T


def apply_unitary(e: CqEnsemble, u) -> CqEnsemble:
    """Conjugate every encoding state by the unitary u; probabilities unchanged.

    The new states are renormalized, so a u at its UNITARY_TOL edge still gives
    traces of 1 to rounding and an ensemble that passes as input again.
    """
    states = _conjugated(e, u)
    return _with_states(e, states / states.trace(axis1=-2, axis2=-1).real[:, None, None])


def depolarize(e: CqEnsemble, p: float) -> CqEnsemble:
    """Apply the global depolarizing channel rho -> p I/d + (1-p) rho to every state."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter must be in [0, 1], got {p}")
    d = e.dim
    eye = np.eye(d, dtype=complex)
    return _with_states(e, p * eye / d + (1.0 - p) * e.states)


def unitary_disturbance(e: CqEnsemble, u) -> float:
    """Largest trace distance between an encoding state and its image under u."""
    w, _ = _eigh(_herm(_conjugated(e, u)) - e.states)
    return float(0.5 * np.abs(w).sum(axis=-1).max())


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
