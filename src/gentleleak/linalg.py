"""Dense complex linear algebra for small Hermitian problems (d <= ~16).

Everything operates on plain ``numpy`` arrays of ``complex128``, one matrix or
a stack (..., d, d), so callers validate or diagonalize many operators in one
call. The exceptions take one matrix only: :func:`as_complex_matrix`,
:func:`as_unitary`, :func:`trace_norm` and :func:`matrix_to_json`. Finiteness
and Hermiticity are checked in :func:`as_hermitian`.
Hermitian spectra (LAPACK through numpy) are taken by two routes:

- :func:`eig_hermitian` checks its input with ``as_hermitian`` and returns
  eigenvalues in descending order with their eigenvectors
  (``numpy.linalg.eigh``). The helpers of this module, the cloning cap and
  the solver's start and dual raise use it.
- ``_spectrum`` returns the eigenvalues alone, in the same order
  (``numpy.linalg.eigvalsh``), of an array that has already been checked and
  symmetrized. The ensemble, ``Povm`` and probe checks and ``collapse``'s
  trace distances read no eigenvector, so they take the spectrum of the
  symmetrized array once.

The leakage solver's inner loop (``_povm``, ``_newton_step``, ``_bounds``)
calls ``numpy.linalg.eigh``/``eigvalsh`` directly on the matrices it builds
and symmetrizes itself.

:func:`matrices_from_json` parses a JSON list of matrices in one pass: a
schema and cell-type scan over the whole list, then one array conversion and
one finiteness check. Only a failure goes back over the list, matrix by
matrix, to name the first bad one.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "PSD_TOL",
    "COMPLETENESS_TOL",
    "UNIT_TRACE_TOL",
    "ConvergenceError",
    "NotPsdError",
    "SchemaError",
    "as_complex_matrix",
    "as_hermitian",
    "as_unitary",
    "eig_hermitian",
    "trace_norm",
    "trace_distance",
    "psd_sqrt",
    "psd_inv_sqrt",
    "positive_part",
    "is_psd",
    "haar_unitary",
    "random_hermitian",
    "random_contraction",
    "random_density",
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


# Max-entry asymmetry M - M† allowed before symmetrization is refused.
HERMITICITY_TOL = 1e-10
# Slack on the smallest eigenvalue in PSD checks.
PSD_TOL = 1e-10
# Max-entry residual allowed in sum_y F_y - I (and in B_y† B_y - F_y).
COMPLETENESS_TOL = 1e-9
# |tr rho - 1| allowed for density operators, and |sum_x p_x - 1| for priors.
UNIT_TRACE_TOL = 1e-10

# The cell types a JSON parser produces for numbers.
_JSON_NUMBERS = frozenset((int, float))


def _as_square_stack(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _stack(mats, what: str, d: int | None = None) -> np.ndarray:
    """The matrices as one complex (n, d, d) array, naming the first that is not d x d.

    An (n, d, d) array is taken as it is; d defaults to the dimension of the
    first matrix. Entries are not checked.
    """
    try:
        a = np.asarray(mats, dtype=complex)
    except ValueError:  # matrices of different shapes
        a = None
    if a is not None and a.ndim == 3 and a.shape[1] == a.shape[2] == (d or a.shape[1]) >= 1:
        return a
    arrs = [np.asarray(m, dtype=complex) for m in mats]
    for i, a in enumerate(arrs):
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"{what} {i}: expected a square matrix, got shape {a.shape}")
        d = d or a.shape[0]
        if a.shape[0] != d:
            raise ValueError(f"{what} {i} has dimension {a.shape[0]}, expected {d}")
    return np.array(arrs)


def as_complex_matrix(m) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    a = _as_square_stack(m)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_hermitian(m) -> np.ndarray:
    """Check Hermiticity and return the symmetrized matrix (M + M†)/2.

    Accepts one matrix or a stack (..., d, d), checked matrix by matrix.
    Raises ValueError if any entry of M - M† exceeds ``HERMITICITY_TOL`` in
    magnitude; the symmetrization absorbs roundoff from channel applications.
    """
    a = _as_square_stack(m)
    adj = a.conj().swapaxes(-1, -2)
    asym = np.abs(a - adj).max() if a.size else 0.0
    if asym > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} > {HERMITICITY_TOL:.3e}"
        )
    return (a + adj) / 2.0


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack (..., d, d).

    Returns ``(w, v)`` with eigenvalues ``w`` real and sorted descending along
    the last axis, and unitary ``v`` whose columns are the matching
    eigenvectors, so that ``m @ v == v @ diag(w)``. The input must pass
    :func:`as_hermitian`; LAPACK (``numpy.linalg.eigh``) does the work.
    """
    w, v = np.linalg.eigh(as_hermitian(m))
    return w[..., ::-1], v[..., ::-1]


def _spectrum(h: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending along the last axis, of an already checked, symmetrized array.

    For checks that keep the symmetrized matrix and read no eigenvector.
    """
    return np.linalg.eigvalsh(h)[..., ::-1]


def trace_norm(m) -> float:
    """Trace norm ||M||_1 = tr sqrt(M†M); sum of |eigenvalues| when Hermitian."""
    a = as_complex_matrix(m)
    if np.max(np.abs(a - a.conj().T)) <= HERMITICITY_TOL:
        w, _ = eig_hermitian(a)
        return float(np.sum(np.abs(w)))
    w, _ = eig_hermitian(a.conj().T @ a)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def trace_distance(rho, sigma):
    """Normalized trace distance (1/2)||rho - sigma||_1 between Hermitian operators.

    A float for two matrices; one distance per pair for two stacks of equal
    length, or for one matrix against each matrix of a stack.
    """
    a = as_hermitian(rho)
    b = as_hermitian(sigma)
    if a.shape[-1] != b.shape[-1] or (a.ndim == b.ndim and a.shape != b.shape):
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, _ = eig_hermitian(a - b)
    dist = 0.5 * np.abs(w).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def _eig_psd(m) -> tuple[np.ndarray, np.ndarray]:
    w, v = eig_hermitian(m)
    low = w[..., -1].min()
    if low < -PSD_TOL:
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {low:.3e} < -{PSD_TOL:.3e}")
    return np.clip(w, 0.0, None), v


def _from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Hermitian matrix, or stack, v diag(w) v† with eigenvalues w, symmetrized."""
    m = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix, or of each in a stack."""
    w, v = _eig_psd(m)
    return _from_eig(np.sqrt(w), v)


def psd_inv_sqrt(m) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix, or of each in a stack.

    Eigenvalues are floored at 1e-300, so a singular PSD matrix gives huge
    finite entries rather than infinities.
    """
    w, v = _eig_psd(m)
    if (w[..., 0] <= 0.0).any():
        raise NotPsdError("matrix is zero; no inverse square root")
    return _from_eig(1.0 / np.sqrt(np.maximum(w, 1e-300)), v)


def positive_part(m) -> np.ndarray:
    """Positive part of a Hermitian matrix, or of each in a stack: eigenvalues clipped at zero."""
    w, v = eig_hermitian(m)
    return _from_eig(np.clip(w, 0.0, None), v)


def is_psd(m) -> bool:
    """True iff the Hermitian matrix (each matrix of a stack) has no eigenvalue below -PSD_TOL."""
    w, _ = eig_hermitian(m)
    return bool((w[..., -1] >= -PSD_TOL).all())


def as_unitary(u) -> np.ndarray:
    """Validate and return a finite square matrix U with every entry of U†U - I within 1e-9."""
    a = as_complex_matrix(u)
    if np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) > 1e-9:
        raise ValueError("matrix is not unitary")
    return a


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: orthonormalize a matrix of standard complex Gaussians."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity of QR so the distribution is Haar
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (z + z.conj().T) / 2.0


def random_contraction(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian M with 0 <= M <= I (uniform eigenvalues, Haar basis)."""
    u = haar_unitary(d, rng)
    w = rng.uniform(0.0, 1.0, size=d)
    m = (u * w) @ u.conj().T
    return (m + m.conj().T) / 2.0


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix from a normalized Wishart draw."""
    k = rank or d
    z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = z @ z.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


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
    rows = _rows(doc)
    return as_complex_matrix(_cells_to_array(rows, (len(rows), len(rows))))


def matrices_from_json(docs: list, what: str, d: int | None = None) -> np.ndarray:
    """Parse a list of matrix documents as one complex (n, d, d) array.

    d defaults to the dimension of the first matrix. The whole list is scanned,
    converted and checked for finiteness at once. A failure names the first
    bad matrix as '<what> <i>: ...', with the text :func:`matrix_from_json`
    gives for it alone, or as '<what> <i> has dimension d_i, expected d' once
    every matrix parses.
    """
    try:
        rows = [_rows(raw) for raw in docs]
        dim = d or (len(rows[0]) if rows else 0)
        if all(len(r) == dim for r in rows):
            a = _cells_to_array(chain.from_iterable(rows), (len(rows), dim, dim))
            if np.isfinite(a).all():
                return a
    except SchemaError:
        pass
    mats = []  # the list fails somewhere: go matrix by matrix to name the first failure
    for i, raw in enumerate(docs):
        try:
            mats.append(matrix_from_json(raw))
        except ValueError as exc:  # SchemaError and the non-finite check alike
            raise SchemaError(f"{what} {i}: {exc}") from exc
    try:
        return _stack(mats, what, d)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
