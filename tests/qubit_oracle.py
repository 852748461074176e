"""Bloch-sphere scan over qubit projective measurements, a reference for the tests.

It shares no code with the leakage solver. It scans two-outcome projective
measurements only, so it is a lower bound on the maximal leakage, not the
maximal leakage itself: for the trine ensemble it finds about 0.900 bits
where the supremum over all POVMs is 1 bit. On ensembles whose optimum is
projective (BB84, two states, depolarized BB84) it is stable to ~1e-9.
"""

from dataclasses import dataclass

import numpy as np

from gentleleak.measurements import Povm
from gentleleak.states import CqEnsemble

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class OracleResult:
    """Best projective leakage found, in bits, and the measurement reaching it."""

    bits: float
    achieving_povm: Povm


def _bloch_vectors(mats: np.ndarray) -> np.ndarray:
    """Bloch coordinates (x, y, z) of a stack of qubit operators."""
    return np.stack([np.einsum("xij,ji->x", mats, s).real for s in PAULIS], axis=1)


def _direction_value(bloch: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Objective 1 + (max_x r.n - min_x r.n)/2 for each direction n."""
    dots = bloch @ dirs.T  # (states, dirs)
    return 1.0 + 0.5 * (dots.max(axis=0) - dots.min(axis=0))


def _sphere(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    st = np.sin(theta).ravel()
    return np.stack([st * np.cos(phi).ravel(), st * np.sin(phi).ravel(), np.cos(theta).ravel()],
                    axis=1)


def qubit_grid_oracle(e: CqEnsemble, resolution: int = 721) -> OracleResult:
    """Scan a resolution x 2*resolution (theta, phi) grid of projectors plus the
    Z/X/Y axes, then zoom deterministically around the best direction."""
    if e.dim != 2:
        raise ValueError("the grid oracle is defined for qubit ensembles only")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    bloch = _bloch_vectors(e.state_mats())

    tt, pp = np.meshgrid(np.linspace(0.0, np.pi, resolution),
                         np.linspace(0.0, 2.0 * np.pi, 2 * resolution, endpoint=False),
                         indexing="ij")
    axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    dirs = np.concatenate([axes, _sphere(tt, pp)])
    vals = _direction_value(bloch, dirs)
    best = int(np.argmax(vals))
    best_dir, best_val = dirs[best], float(vals[best])

    # local zoom: 9x9 patches halving in size, keeps the oracle purely scan-based
    theta0 = float(np.arccos(np.clip(best_dir[2], -1.0, 1.0)))
    phi0 = float(np.arctan2(best_dir[1], best_dir[0]))
    span = np.pi / max(resolution - 1, 1)
    while span >= 1e-12:
        dt = np.linspace(-span, span, 9)
        tg, pg = np.meshgrid(theta0 + dt, phi0 + dt, indexing="ij")
        lv = _direction_value(bloch, _sphere(tg, pg))
        k = int(np.argmax(lv))
        if lv[k] > best_val:
            best_val, theta0, phi0 = float(lv[k]), float(tg.ravel()[k]), float(pg.ravel()[k])
        span *= 0.5

    n = _sphere(np.array(theta0), np.array(phi0))[0]
    proj = 0.5 * (np.eye(2, dtype=complex) + sum(c * s for c, s in zip(n, PAULIS)))
    povm = Povm((proj, np.eye(2, dtype=complex) - proj), labels=("+n", "-n"))
    return OracleResult(max(float(np.log2(best_val)), 0.0), povm)
