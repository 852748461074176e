"""Density operators, classical-quantum ensembles, and the channels acting on them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    PSD_TOL,
    UNIT_TRACE_TOL,
    SchemaError,
    _eigh,
    as_complex_matrix,
    as_hermitian,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    trace_distance,
)

__all__ = [
    "DensityOperator",
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
class DensityOperator:
    """A quantum state: Hermitian, PSD, unit-trace matrix."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_hermitian(self.mat)
        require_states(m, _eigh(m)[0])
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def require_states(mats: np.ndarray, w: np.ndarray) -> None:
    """Raise ValueError unless every matrix of mats (..., d, d) is PSD and unit-trace.

    mats must be Hermitian and w their eigenvalues in descending order, as
    returned by eig_hermitian or _eigh; callers that diagonalize a larger stack pass
    their slice of it, so a state costs no decomposition of its own.
    """
    low = float(w[..., -1].min())
    if low < -PSD_TOL:
        raise ValueError(f"state is not PSD: min eigenvalue {low:.3e}")
    tr = mats.trace(axis1=-2, axis2=-1).real.ravel()
    worst = float(tr[np.abs(tr - 1.0).argmax()])
    if abs(worst - 1.0) > UNIT_TRACE_TOL:
        raise ValueError(f"state trace {worst!r} is not 1")


@dataclass(frozen=True)
class CqEnsemble:
    """Classical-quantum ensemble: labels x with probabilities and encoding states.

    All probabilities must be strictly positive (zero-probability symbols are
    rejected rather than trimmed, so user errors surface) and sum to one;
    all states must share the same dimension.
    """

    probs: np.ndarray
    states: tuple[DensityOperator, ...]
    labels: tuple[str, ...] = field(default=())
    _mats: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        states = tuple(self.states)
        if probs.ndim != 1 or len(probs) != len(states) or len(states) == 0:
            raise ValueError("need one probability per state, at least one item")
        if np.any(probs <= 0.0):
            raise ValueError("all probabilities must be strictly positive")
        if abs(float(probs.sum()) - 1.0) > UNIT_TRACE_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, expected 1")
        d = states[0].dim
        if any(s.dim != d for s in states):
            raise ValueError("all states must share the same dimension")
        labels = tuple(self.labels) if self.labels else tuple(str(i) for i in range(len(states)))
        if len(labels) != len(states) or len(set(labels)) != len(labels):
            raise ValueError("labels must be unique and aligned with states")
        mats = np.array([s.mat for s in states])
        probs.flags.writeable = False
        mats.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_mats", mats)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __len__(self) -> int:
        return len(self.states)

    def state_mats(self) -> np.ndarray:
        """Stack of the encoding states, shape (len, d, d).

        Built once, when the ensemble is; every call returns that same
        read-only array, so callers share it and must copy it to modify it.
        """
        return self._mats


def ket(amplitudes) -> np.ndarray:
    """Normalized column vector from a sequence of amplitudes."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector")
    return v / n


def pure_state(amplitudes) -> DensityOperator:
    v = ket(amplitudes)
    return DensityOperator(np.outer(v, v.conj()))


def average_state(e: CqEnsemble) -> DensityOperator:
    """Expected density operator of the ensemble, sum_x p(x) rho^x."""
    avg = np.einsum("x,xij->ij", e.probs, e.state_mats())
    return DensityOperator(avg)


def apply_unitary(e: CqEnsemble, u) -> CqEnsemble:
    """Conjugate every encoding state by the unitary u; probabilities unchanged."""
    u = as_complex_matrix(u)
    if not is_unitary(u):
        raise ValueError("matrix is not unitary")
    states = tuple(DensityOperator(u @ s.mat @ u.conj().T) for s in e.states)
    return CqEnsemble(e.probs, states, e.labels)


def depolarize(e: CqEnsemble, p: float) -> CqEnsemble:
    """Apply the global depolarizing channel rho -> p I/d + (1-p) rho to every state."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter must be in [0, 1], got {p}")
    d = e.dim
    eye = np.eye(d, dtype=complex)
    states = tuple(DensityOperator(p * eye / d + (1.0 - p) * s.mat) for s in e.states)
    return CqEnsemble(e.probs, states, e.labels)


def unitary_disturbance(e: CqEnsemble, u) -> float:
    """Largest trace distance between an encoding state and its image under u."""
    u = as_complex_matrix(u)
    if not is_unitary(u):
        raise ValueError("matrix is not unitary")
    return max(trace_distance(u @ s.mat @ u.conj().T, s.mat) for s in e.states)


def bb84_ensemble() -> CqEnsemble:
    """The four-state qubit encoding used by BB84, uniform over (basis, bit) labels.

    (0,0) -> |0>, (0,1) -> |1>, (1,0) -> |+>, (1,1) -> |->.
    """
    s = 1.0 / np.sqrt(2.0)
    states = (
        pure_state([1.0, 0.0]),
        pure_state([0.0, 1.0]),
        pure_state([s, s]),
        pure_state([s, -s]),
    )
    return CqEnsemble(
        np.full(4, 0.25), states, labels=("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    )


def ensemble_to_json(e: CqEnsemble) -> dict:
    return {
        "labels": list(e.labels),
        "probs": [float(p) for p in e.probs],
        "states": [matrix_to_json(s.mat) for s in e.states],
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
    ops = []
    for i, raw in enumerate(states):
        try:
            ops.append(DensityOperator(matrix_from_json(raw)))
        except (SchemaError, ValueError) as exc:
            raise SchemaError(f"state {i}: {exc}") from exc
    for i, p in enumerate(probs):
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 < p <= 1.0:
            raise SchemaError(f"prob {i}: must be a number in (0, 1], got {p!r}")
    try:
        return CqEnsemble(np.array(probs, dtype=float), tuple(ops), tuple(str(x) for x in labels))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
