"""Seeded random matrices for the tests: Haar unitaries, Hermitian matrices,
contractions 0 <= M <= I and density matrices. Each draw takes a numpy Generator."""

import numpy as np


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
