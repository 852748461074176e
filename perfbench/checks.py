"""Independent checks of gentleleak outputs, written against numpy.linalg only.

Nothing here imports gentleleak: every verdict the benchmark compares against
is recomputed from the raw matrices with LAPACK (``numpy.linalg.eigvalsh`` and
``eigh``), so a defect in the program's own linear algebra cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np

# A certify case whose disturbance lies within this distance of alpha, or whose
# good-event probability lies within it of 1 - delta, counts as agreeing with
# either verdict: the program and LAPACK may round it to opposite sides.
AMBIGUOUS = 1e-9
# Outcomes at or below this probability have no post-measurement state.
ZERO_PROB = 1e-12

# The leakage command's result keys; ROADMAP item 1 renames them, so both the
# current and the planned names are read here and nowhere else.
BITS_KEYS = ("bits", "lower_bits")
POVM_KEYS = ("achieving_povm", "povm")


def matrix(doc) -> np.ndarray:
    """Parse the program's matrix schema {"dim": d, "entries": [[[re, im], ...], ...]}."""
    d = doc["dim"]
    a = np.array([[complex(c[0], c[1]) for c in row] for row in doc["entries"]], dtype=complex)
    if a.shape != (d, d):
        raise ValueError(f"matrix entries are {a.shape}, expected {d}x{d}")
    return a


def matrix_doc(m) -> dict:
    a = np.asarray(m, dtype=complex)
    return {
        "dim": a.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def ensemble_doc(probs, states) -> dict:
    return {
        "labels": [str(i) for i in range(len(states))],
        "probs": [float(p) for p in probs],
        "states": [matrix_doc(s) for s in states],
    }


def povm_doc(operators) -> dict:
    """POVM document with implementation {B_y}; the elements are F_y = B_y† B_y."""
    ops = [np.asarray(b, dtype=complex) for b in operators]
    elements = [b.conj().T @ b for b in ops]
    return {
        "labels": [str(i) for i in range(len(ops))],
        "elements": [matrix_doc((f + f.conj().T) / 2.0) for f in elements],
        "implementation": [matrix_doc(b) for b in ops],
    }


def leakage_fields(doc) -> tuple[float, list[np.ndarray]]:
    """Reported bits and POVM elements of a leakage result, in one lookup."""
    bits = next(doc[k] for k in BITS_KEYS if k in doc)
    povm = next(doc[k] for k in POVM_KEYS if k in doc)
    return float(bits), [matrix(f) for f in povm["elements"]]


def povm_problems(elements, d: int, tol: float = 1e-9) -> list[str]:
    """Reasons the elements fail to form a POVM on C^d (empty when valid)."""
    if not elements:
        return ["POVM has no elements"]
    problems = []
    total = np.zeros((d, d), dtype=complex)
    for i, f in enumerate(elements):
        if f.shape != (d, d):
            return [f"element {i} has shape {f.shape}, expected {d}x{d}"]
        if np.max(np.abs(f - f.conj().T)) > tol:
            problems.append(f"element {i} is not Hermitian")
        low = float(np.linalg.eigvalsh((f + f.conj().T) / 2.0)[0])
        if low < -tol:
            problems.append(f"element {i} has eigenvalue {low:.3e} < 0")
        total += f
    resid = float(np.max(np.abs(total - np.eye(d))))
    if resid > tol:
        problems.append(f"elements sum to I only within {resid:.3e}")
    return problems


def born(states, elements) -> np.ndarray:
    """P[y, x] = tr(rho_x F_y)."""
    return np.einsum("yij,xji->yx", np.stack(elements), np.stack(states)).real


def sibson_bits(p) -> float:
    """log2 sum_y max_x P[y, x], the leakage of one measurement, in bits."""
    return max(math.log2(float(np.asarray(p).max(axis=1).sum())), 0.0)


def dual_upper_bits(states, elements) -> float:
    """Upper bound on the maximal leakage from a dual candidate built from a POVM.

    Outcomes are merged by their arg-max state into G_x, Y = herm(sum_x rho_x G_x),
    and log2(tr Y + d max(0, max_x lambda_max(rho_x - Y))) bounds the supremum
    over all measurements.
    """
    rhos = [np.asarray(s, dtype=complex) for s in states]
    d = rhos[0].shape[0]
    winners = born(rhos, elements).argmax(axis=1)
    y = np.zeros((d, d), dtype=complex)
    for f, x in zip(elements, winners):
        y += rhos[x] @ f
    y = (y + y.conj().T) / 2.0
    excess = max(float(np.linalg.eigvalsh(r - y)[-1]) for r in rhos)
    return math.log2(float(np.trace(y).real) + d * max(0.0, excess))


def trace_distance(a, b) -> float:
    diff = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0))))


def recertify(states, operators, alpha: float, delta: float) -> tuple[bool, bool]:
    """Per-state (alpha, delta)-gentleness of an implementation {B_y}.

    An outcome is good when every state that can produce it ends within alpha
    of itself; the verdict asks that the good outcomes carry probability at
    least 1 - delta under every state. Returns (certified, ambiguous), where
    ambiguous means some quantity sat within AMBIGUOUS of its threshold.
    """
    rhos = [np.asarray(s, dtype=complex) for s in states]
    ops = [np.asarray(b, dtype=complex) for b in operators]
    good_prob = np.zeros(len(rhos))
    ambiguous = False
    for b in ops:
        outs = [b @ r @ b.conj().T for r in rhos]
        probs = [float(np.trace(o).real) for o in outs]
        good = True
        for o, p, r in zip(outs, probs, rhos):
            if p <= ZERO_PROB:
                continue
            dist = trace_distance(o / p, r)
            ambiguous |= abs(dist - alpha) <= AMBIGUOUS
            good &= dist <= alpha
        if good:
            good_prob += probs
    worst = float(good_prob.min())
    ambiguous |= abs(worst - (1.0 - delta)) <= AMBIGUOUS
    return worst >= 1.0 - delta, ambiguous


def psd_sqrt(m) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def gentle_probe_operators(m, epsilon: float) -> list[np.ndarray]:
    """The three-outcome weak probe of 0 <= M <= I at strength epsilon."""
    m = np.asarray(m, dtype=complex)
    eye = np.eye(m.shape[0], dtype=complex)
    c = math.sqrt((1.0 - 2.0 * epsilon**2) / 2.0)
    return [c * eye + epsilon * m, c * eye - epsilon * m,
            math.sqrt(2.0) * epsilon * psd_sqrt(eye - m @ m)]


def parse_csv(text: str) -> list[dict[str, float]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def monotone_problems(values, tol: float) -> list[str]:
    """Places where a sequence that must not decrease drops by more than tol."""
    return [f"drops from {a:.6f} to {b:.6f} at index {i + 1}"
            for i, (a, b) in enumerate(zip(values, values[1:])) if b < a - tol][:3]


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, and its value.

    Uses the nearest-rank definition; None when there are fewer than eleven samples.
    """
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    rank = max(math.ceil(pct * n / 100), 1)
    return pct, float(sorted(values)[rank - 1])
