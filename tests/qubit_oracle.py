"""Exact qubit leakage on the Bloch ball, a reference for the tests.

A qubit state is (I + r.sigma)/2 for a Bloch vector r. The order-infinity
Sibson information ignores the priors, so both closed forms below hold for
any priors:

- projective_bits: the projective measurement along a unit vector n leaks
  log2(1 + (max_x r_x.n - min_x r_x.n)/2), and the best n gives
  log2(1 + D/2) for the largest distance D between two Bloch vectors.
- povm_bits: the optimum over all POVMs is log2(1 + R) for the radius R of
  the smallest ball around the Bloch vectors (Deconinck and Terhal, "Qubit
  state discrimination", 2010).

R is found by brute force. The smallest ball has 1 to 4 of the points on its
sphere and its centre in their affine hull, so it is the smallest among the
balls that hold every point and are centred at the circumcentre of some set
of 1 to 4 points. Nothing here is shared with the solver.
"""

from itertools import combinations

import numpy as np

from gentleleak.states import CqEnsemble

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# Slack, in Bloch-vector length, with which a ball holds a point on its sphere.
HOLD_TOL = 1e-12


def bloch_vectors(e: CqEnsemble) -> np.ndarray:
    """The Bloch vectors (n, 3) of a qubit ensemble's states."""
    if e.dim != 2:
        raise ValueError("the qubit oracle is defined for qubit ensembles only")
    return np.einsum("xij,aji->xa", e.states, PAULIS).real


def projective_bits(e: CqEnsemble) -> float:
    """Best two-outcome projective leakage, log2(1 + D/2), in bits."""
    r = bloch_vectors(e)
    diameter = np.linalg.norm(r[:, None] - r[None], axis=-1).max()
    return float(np.log2(1.0 + diameter / 2.0))


def povm_bits(e: CqEnsemble) -> float:
    """Maximal leakage over all POVMs, log2(1 + R), in bits."""
    r = bloch_vectors(e)
    radius = np.inf
    for k in range(1, min(len(r), 4) + 1):
        for subset in combinations(r, k):
            p = np.array(subset)
            a = p[1:] - p[0]
            # circumcentre c = p_0 + a^T t with 2 a (c - p_0) = |a_k|^2; the
            # least-squares t keeps an affinely dependent set finite
            t = np.linalg.lstsq(2.0 * a @ a.T, (a * a).sum(axis=1), rcond=None)[0]
            centre = p[0] + t @ a
            rad = np.linalg.norm(p - centre, axis=1).max()
            if np.linalg.norm(r - centre, axis=1).max() <= rad + HOLD_TOL:
                radius = min(radius, rad)
    return float(np.log2(1.0 + radius))
