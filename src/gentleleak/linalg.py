"""Dense complex linear algebra for small Hermitian problems (d <= ~16).

Everything operates on plain ``numpy`` arrays of ``complex128``, one matrix or
a stack (..., d, d), so callers validate or diagonalize many operators in one
call. Finiteness and Hermiticity are checked in :func:`as_hermitian`.
Eigendecompositions (LAPACK's ``numpy.linalg.eigh``) are reached three ways:

- :func:`eig_hermitian` checks its input with ``as_hermitian`` and returns
  eigenvalues in descending order. The helpers of this module, ``collapse``,
  the cloning cap and the solver's start and dual raise use it.
- ``_eigh`` is the same decomposition of an array that has already been
  checked and symmetrized. The ensemble, ``Povm`` and probe constructors keep
  that array and decompose it once through ``_eigh``.
- The leakage solver's inner loop (``_povm``, ``_newton_step``, ``_bounds``)
  calls ``numpy.linalg.eigh``/``eigvalsh`` directly on the matrices it builds
  and symmetrizes itself.
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
    "eig_hermitian",
    "trace_norm",
    "trace_distance",
    "psd_sqrt",
    "psd_inv_sqrt",
    "positive_part",
    "is_psd",
    "is_unitary",
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

    d defaults to the dimension of the first matrix. Entries are not checked.
    """
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
    return _eigh(as_hermitian(m))


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eig_hermitian of an already checked, symmetrized array, without checking it again.

    For constructors that keep the symmetrized matrix as well as its spectrum.
    """
    w, v = np.linalg.eigh(h)
    return w[..., ::-1], v[..., ::-1]


def trace_norm(m) -> float:
    """Trace norm ||M||_1 = tr sqrt(M†M); sum of |eigenvalues| when Hermitian."""
    a = as_complex_matrix(m)
    if np.max(np.abs(a - a.conj().T)) <= HERMITICITY_TOL:
        w, _ = eig_hermitian(a)
        return float(np.sum(np.abs(w)))
    w, _ = eig_hermitian(a.conj().T @ a)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def trace_distance(rho, sigma) -> float:
    """Normalized trace distance (1/2)||rho - sigma||_1 between Hermitian operators."""
    a = as_hermitian(rho)
    b = as_hermitian(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, _ = eig_hermitian(a - b)
    return 0.5 * float(np.sum(np.abs(w)))


def _eig_psd(m, tol: float) -> tuple[np.ndarray, np.ndarray]:
    w, v = eig_hermitian(m)
    if w[-1] < -tol:
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e} < -{tol:.3e}")
    return np.clip(w, 0.0, None), v


def psd_sqrt(m, tol: float = PSD_TOL) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix."""
    w, v = _eig_psd(m, tol)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2.0


def psd_inv_sqrt(m) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix.

    Eigenvalues are floored at 1e-300, so a singular PSD matrix gives huge
    finite entries rather than infinities.
    """
    w, v = _eig_psd(m, PSD_TOL)
    if w[0] <= 0.0:
        raise NotPsdError("matrix is zero; no inverse square root")
    inv = (v * (1.0 / np.sqrt(np.maximum(w, 1e-300)))) @ v.conj().T
    return (inv + inv.conj().T) / 2.0


def positive_part(m) -> np.ndarray:
    """Positive part of a Hermitian matrix, or of each in a stack: eigenvalues clipped at zero."""
    w, v = eig_hermitian(m)
    pos = (v * np.clip(w, 0.0, None)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (pos + pos.conj().swapaxes(-1, -2)) / 2.0


def is_psd(m) -> bool:
    """True iff the smallest eigenvalue of the Hermitian matrix is >= -PSD_TOL."""
    w, _ = eig_hermitian(m)
    return bool(w[-1] >= -PSD_TOL)


def is_unitary(u) -> bool:
    """True iff every entry of U†U - I is within 1e-9."""
    a = as_complex_matrix(u)
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) <= 1e-9)


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


def matrix_from_json(doc) -> np.ndarray:
    """Parse the matrix schema produced by :func:`matrix_to_json`."""
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
    cells = list(chain.from_iterable(rows))
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {2}:
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
    return as_complex_matrix(pairs.view(complex).reshape(d, d))


def matrices_from_json(docs: list, what: str) -> list[np.ndarray]:
    """Parse each matrix document; a failure names its index as '<what> <i>: ...'."""
    mats = []
    for i, raw in enumerate(docs):
        try:
            mats.append(matrix_from_json(raw))
        except ValueError as exc:  # SchemaError and the non-finite check alike
            raise SchemaError(f"{what} {i}: {exc}") from exc
    return mats
