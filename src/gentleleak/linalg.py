"""Dense complex linear algebra for small Hermitian problems (d <= ~16).

Functions take one complex matrix or a stack (..., d, d), except
:func:`as_complex_matrix`, :func:`as_unitary`, :func:`trace_norm` and
:func:`matrix_to_json`, which take one. :func:`matrices_from_json` only parses
a JSON list of matrices: its schema and cell types, in one pass.

A public function is its check plus a private kernel that checks nothing, and
inside the package a value derived from checked values goes to the kernel: it
is checked once, where it enters, against a tolerance of the block below.
Input matrices are checked in two stages: ``_stack``, the one format check, names
the first matrix of a list that is not square, of one dimension and finite, and
``_checked_stack`` then checks each state's or POVM element's values.
:func:`as_hermitian` checks and then symmetrizes with ``_herm``;
:func:`eig_hermitian` is ``_eigh`` (descending ``numpy.linalg.eigh``) of its
output, and ``_spectrum`` (``numpy.linalg.eigvalsh``) gives eigenvalues alone.
``_frozen_hermitian`` symmetrizes and freezes, and ``_fill(object.__new__(cls),
...)`` fills a frozen dataclass without its checks. A derived value may thus
miss an entry tolerance, by at most the drift stated beside it.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "PSD_TOL",
    "COMPLETENESS_TOL",
    "UNIT_TRACE_TOL",
    "UNITARY_TOL",
    "PROBE_TOL",
    "CHANNEL_TOL",
    "ConvergenceError",
    "NotPsdError",
    "SchemaError",
    "as_complex_matrix",
    "as_hermitian",
    "as_unitary",
    "eig_hermitian",
    "trace_norm",
    "trace_distance",
    "psd_inv_sqrt",
    "matrix_to_json",
    "matrix_from_json",
    "matrices_from_json",
]


class ConvergenceError(RuntimeError):
    """Iterative routine failed to reach its tolerance within its budget."""


class NotPsdError(ValueError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""


# Entry tolerances: every tolerance that accepts or rejects outside input, with
# what it guards and how far a value derived from checked ones may drift from it.

# Max-entry asymmetry of M - M† in a state, POVM element or probe, before it is
# symmetrized to (M + M†)/2; derived matrices are symmetrized alike.
HERMITICITY_TOL = 1e-10
# Slack below 0 of the least eigenvalue of a state or POVM element, and of the
# least entry of a channel matrix; conjugation scales it by up to 1 + d UNITARY_TOL.
PSD_TOL = 1e-10
# Max-entry residual of sum_y F_y - I and of B_y† B_y - F_y. The Born columns of
# checked inputs then sum to 1 within about d COMPLETENESS_TOL + UNIT_TRACE_TOL.
COMPLETENESS_TOL = 1e-9
# |tr rho - 1| of a state and |sum_x p_x - 1| of priors; average_state renormalizes its sum.
UNIT_TRACE_TOL = 1e-10
# Max-entry residual of U†U - I. Conjugated states are renormalized to unit trace;
# U's column projectors sum to within d UNITARY_TOL of I.
UNITARY_TOL = 1e-9
# How far a probe's eigenvalues may leave [0, 1]; its operators at strength eps
# then have sum_y B_y† B_y within 4 eps^2 PROBE_TOL of I.
PROBE_TOL = 1e-9
# |column sum - 1| of a channel matrix given to sibson_infinity. It accepts the Born
# table of any checked inputs (within 2.6e-7 of 1 at d = 16, projectors included)
# and still rejects a transposed or unnormalized table.
CHANNEL_TOL = 1e-6

# Floor on the eigenvalues psd_inv_sqrt inverts: a singular matrix gives huge finite entries.
INV_SQRT_FLOOR = 1e-300

# The cell types a JSON parser produces for numbers.
_JSON_NUMBERS = frozenset((int, float))


def _stack(mats, what: str, d: int | None = None) -> np.ndarray:
    """One or more matrices as one finite complex (n, d, d) array: the one format check.

    In index order each matrix must be square, of dimension d (by default the
    first matrix's) and finite; the first that is not is named as '<what> <i>: ...'
    or '<what> <i> has dimension ...'. An (n, d, d) array that passes is returned as it is.
    """
    try:
        a = np.asarray(mats, dtype=complex)
    except ValueError:  # matrices of different shapes
        a = None
    if (a is not None and a.ndim == 3 and a.shape[1] == a.shape[2] == (d or a.shape[1]) >= 1
            and np.isfinite(a).all()):
        return a
    for i, m in enumerate(mats):
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"{what} {i}: expected a square matrix, got shape {m.shape}")
        d = d or m.shape[0]
        if m.shape[0] != d:
            raise ValueError(f"{what} {i} has dimension {m.shape[0]}, expected {d}")
        if not np.isfinite(m).all():
            raise ValueError(f"{what} {i}: matrix has non-finite entries")


def _herm(a: np.ndarray) -> np.ndarray:
    """(a + a†)/2 of a matrix or stack: the one symmetrization; not checked."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _frozen_hermitian(a: np.ndarray) -> np.ndarray:
    """(a + a†)/2, read-only, of a matrix or stack derived from checked values; not checked."""
    h = _herm(a)
    h.flags.writeable = False
    return h


def _fill(obj, **fields):
    """Set the given fields of obj, a frozen dataclass instance; array fields become read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def as_complex_matrix(m) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    return _stack([m], "matrix")[0]


def as_hermitian(m) -> np.ndarray:
    """Check Hermiticity and return the symmetrized matrix (M + M†)/2.

    Accepts one matrix or a stack (..., d, d), checked matrix by matrix; a failure
    names the first, in flattened order, as 'matrix <i>: ...'. Raises ValueError if
    any entry of M - M† exceeds ``HERMITICITY_TOL`` in magnitude; the
    symmetrization absorbs roundoff from channel applications.
    """
    a = np.asarray(m, dtype=complex)
    flat = _stack(a.reshape(math.prod(a.shape[:-2]), *a.shape[-2:]) if a.ndim > 2 else [a],
                  "matrix")
    asym = np.abs(flat - flat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = np.flatnonzero(asym > HERMITICITY_TOL)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"matrix {i}: matrix is not Hermitian: max asymmetry {asym[i]:.3e} "
                         f"> {HERMITICITY_TOL:.3e}")
    return _herm(flat).reshape(a.shape)


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack (..., d, d).

    Returns ``(w, v)`` with eigenvalues ``w`` real and sorted descending along
    the last axis, and unitary ``v`` whose columns are the matching
    eigenvectors, so that ``m @ v == v @ diag(w)``. The input must pass
    :func:`as_hermitian`; LAPACK (``numpy.linalg.eigh``) does the work.
    """
    return _eigh(as_hermitian(m))


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eig_hermitian of an already symmetrized matrix or stack; not checked."""
    w, v = np.linalg.eigh(h)
    return w[..., ::-1], v[..., ::-1]


def _spectrum(h: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending along the last axis, of an already checked, symmetrized array.

    For checks that keep the symmetrized matrix and read no eigenvector.
    """
    return np.linalg.eigvalsh(h)[..., ::-1]


def _checked_stack(mats, what: str, unit_trace: bool = False) -> np.ndarray:
    """The states or POVM elements as one checked, symmetrized, read-only (n, d, d) array.

    ``_stack`` checks the format of the whole list first. Then one pass with one
    spectrum call checks each matrix's values: Hermitian, PSD and, with unit_trace,
    of trace 1. A value failure names the first failing matrix as '<what> <i>: ...'
    with its first failed check.
    """
    a = _stack(mats, what)
    asym = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    h = _herm(a)
    low = _spectrum(h)[:, -1]
    ok = (asym <= HERMITICITY_TOL) & (low >= -PSD_TOL)
    if unit_trace:
        tr = h.trace(axis1=-2, axis2=-1).real
        ok &= np.abs(tr - 1.0) <= UNIT_TRACE_TOL
    if not ok.all():
        i = int(ok.argmin())
        if asym[i] > HERMITICITY_TOL:
            raise ValueError(f"{what} {i}: matrix is not Hermitian: max asymmetry {asym[i]:.3e} "
                             f"> {HERMITICITY_TOL:.3e}")
        if low[i] < -PSD_TOL:
            raise ValueError(f"{what} {i}: {what} is not PSD: min eigenvalue {low[i]:.3e}")
        raise ValueError(f"{what} {i}: {what} trace {float(tr[i])!r} is not 1")
    h.flags.writeable = False
    return h


def trace_norm(m) -> float:
    """Trace norm ||M||_1 = tr sqrt(M†M): the sum of the singular values of M."""
    return float(np.linalg.svd(as_complex_matrix(m), compute_uv=False).sum())


def trace_distance(rho, sigma):
    """Normalized trace distance (1/2)||rho - sigma||_1 between Hermitian operators.

    A float for two matrices; one distance per pair for two stacks of equal
    length, or for one matrix against each matrix of a stack.
    """
    a = as_hermitian(rho)
    b = as_hermitian(sigma)
    if a.shape[-1] != b.shape[-1] or (a.ndim == b.ndim and a.shape != b.shape):
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, _ = _eigh(a - b)
    dist = 0.5 * np.abs(w).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def _from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Hermitian matrix, or stack, v diag(w) v† with eigenvalues w, symmetrized."""
    return _herm((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2))


def psd_inv_sqrt(m) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix, or of each in a stack.

    Eigenvalues are floored at INV_SQRT_FLOOR.
    """
    w, v = eig_hermitian(m)
    low = w[..., -1].min()
    if low < -PSD_TOL:
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {low:.3e} < -{PSD_TOL:.3e}")
    if (w[..., 0] <= 0.0).any():
        raise NotPsdError("matrix is zero; no inverse square root")
    return _from_eig(1.0 / np.sqrt(np.maximum(w, INV_SQRT_FLOOR)), v)


def _positive_part(h: np.ndarray) -> np.ndarray:
    """Positive part of a symmetrized matrix, or of each in a stack: eigenvalues clipped at 0."""
    w, v = _eigh(h)
    return _from_eig(np.clip(w, 0.0, None), v)


def as_unitary(u) -> np.ndarray:
    """Validate and return a finite square U with every entry of U†U - I within UNITARY_TOL."""
    a = as_complex_matrix(u)
    if np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) > UNITARY_TOL:
        raise ValueError("matrix is not unitary")
    return a


def matrix_to_json(m) -> dict:
    """Serialize a complex matrix as {"dim": d, "entries": [[[re, im], ...], ...]}."""
    a = as_complex_matrix(m)
    return {"dim": a.shape[0], "entries": np.stack([a.real, a.imag], -1).tolist()}


def _rows(doc) -> list:
    """The 'entries' rows of a matrix document, checked to be 'dim' lists of 'dim' cells."""
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise SchemaError("matrix document must have 'dim' and 'entries'")
    d = doc["dim"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise SchemaError(f"matrix 'dim' must be a positive integer, got {d!r}")
    rows = doc["entries"]
    if not (
        isinstance(rows, list)
        and len(rows) == d
        and all(isinstance(row, list) and len(row) == d for row in rows)
    ):
        raise SchemaError(f"matrix 'entries' must be {d}x{d}")
    return rows


def _cells_to_array(rows, shape: tuple[int, ...]) -> np.ndarray:
    """The [re, im] cells of the rows, in order, as one complex array of the given shape."""
    cells = list(chain.from_iterable(rows))
    if not set(map(type, cells)) <= {list} or not set(map(len, cells)) <= {2}:
        raise SchemaError("matrix entries must be [re, im] pairs")
    # type scans in C: numpy would read True as 1, "1" as 1.0 and None as nan
    flat = list(chain.from_iterable(cells))
    kinds = set(map(type, flat))
    if not kinds <= _JSON_NUMBERS:
        odd = ", ".join(sorted(k.__name__ for k in kinds - _JSON_NUMBERS))
        raise SchemaError(f"matrix entries must be [re, im] pairs of numbers, got {odd}")
    try:
        pairs = np.array(flat, dtype=float)
    except OverflowError as exc:
        raise SchemaError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    return pairs.view(complex).reshape(shape)


def matrix_from_json(doc) -> np.ndarray:
    """Parse the matrix schema produced by :func:`matrix_to_json`."""
    return as_complex_matrix(matrices_from_json([doc], "matrix")[0])


def matrices_from_json(docs: list, what: str) -> np.ndarray | list[np.ndarray]:
    """Parse a list of matrix documents; only their schema and cell types are checked.

    The whole list is scanned and converted at once, to one complex (n, d, d)
    array when every matrix has the same dimension d, else to a list of the
    matrices. A failure names the first bad document as '<what> <i>: ...'.
    Dimensions and finiteness are left to the constructor that takes the
    matrices, whose ``_stack`` names them as it does for any input.
    """
    try:
        rows = [_rows(raw) for raw in docs]
        dim = len(rows[0]) if rows else 0
        if all(len(r) == dim for r in rows):
            return _cells_to_array(chain.from_iterable(rows), (len(rows), dim, dim))
    except SchemaError:
        pass
    mats = []  # go document by document: to name the first failure, or for mixed dimensions
    for i, raw in enumerate(docs):
        try:
            rows = _rows(raw)
            mats.append(_cells_to_array(rows, (len(rows), len(rows))))
        except SchemaError as exc:
            raise SchemaError(f"{what} {i}: {exc}") from exc
    return mats
