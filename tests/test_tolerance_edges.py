"""Inputs at 0.9 times each entry tolerance, in the direction that hurts.

gentleleak checks a value once, where it enters, against a tolerance of the
block in ``linalg``, and never checks again what it derives from that value.
So an input just inside a tolerance must pass every public function that
accepts it and every CLI command that reads it. Three tests of
TestDerivedValuesStayAccepted each raised while derived values were checked
again: a conjugated ensemble, the Born table of a POVM and the projectors of a
unitary. Two more raised while a conjugated or averaged state, handed back in
as input, kept the trace drift of its sum. The last three tests pin that those derived values run no check,
that no call checks again a matrix it derived, and that every small tolerance
has a name.
"""

import ast
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from random_matrices import haar_unitary, random_density

import gentleleak
from gentleleak import linalg, measurements, simulate, states
from gentleleak.cli import main
from gentleleak.cloning import cloning_lower_bound, lower_bound_sweep
from gentleleak.leakage import (
    gentle_leakage_interval,
    leakage_upper_bound,
    maximal_quantum_leakage,
    sibson_infinity,
)
from gentleleak.linalg import (
    COMPLETENESS_TOL,
    HERMITICITY_TOL,
    PROBE_TOL,
    PSD_TOL,
    UNIT_TRACE_TOL,
    UNITARY_TOL,
    as_unitary,
)
from gentleleak.measurements import (
    MAX_EPSILON,
    MODES,
    ZERO_PROB,
    GentlenessSpec,
    Povm,
    PovmImplementation,
    born_probabilities,
    certify_gentle,
    collapse,
    gentle_povm,
    max_certified_epsilon,
    post_measurement_state,
    povm_from_json,
    povm_to_json,
    projective_povm,
)
from gentleleak.states import (
    CqEnsemble,
    apply_unitary,
    average_state,
    bb84_ensemble,
    depolarize,
    ensemble_from_json,
    ensemble_to_json,
    unitary_disturbance,
)

EDGE = 0.9  # each input sits at this share of its tolerance
DIMS = (2, 3, 8)
SPEC = GentlenessSpec(0.1, 0.05)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

edge_cases = given(
    d=st.sampled_from(DIMS),
    seed=st.integers(0, 2**32 - 1),
    sign=st.sampled_from((-1.0, 1.0)),
)


def edge_ensemble(d: int, rng, sign: float) -> CqEnsemble:
    """Four states, three at a state tolerance, with priors that miss 1 by EDGE UNIT_TRACE_TOL.

    State 0 is pure with an asymmetry of EDGE HERMITICITY_TOL, state 1 has the
    eigenvalue -EDGE PSD_TOL, state 2 the trace 1 + sign EDGE UNIT_TRACE_TOL
    and state 3 is the uniform superposition, whose Born probabilities gather
    the whole completeness residual of edge_implementation's POVM.
    """
    asym = random_density(d, rng, rank=1)
    asym[0, 1] += EDGE * HERMITICITY_TOL
    w = np.append(rng.dirichlet(np.ones(d - 1)) * (1.0 + EDGE * PSD_TOL), -EDGE * PSD_TOL)
    u = haar_unitary(d, rng)
    low = (u * w) @ u.conj().T
    low = (low + low.conj().T) / 2.0
    long = random_density(d, rng) * (1.0 + sign * EDGE * UNIT_TRACE_TOL)
    uniform = np.full((d, d), 1.0 / d, dtype=complex)
    probs = rng.dirichlet(np.ones(4))
    probs = probs / probs.sum()
    probs[-1] += sign * EDGE * UNIT_TRACE_TOL
    return CqEnsemble(probs, (asym, low, long, uniform))


def edge_implementation(d: int, rng) -> PovmImplementation:
    """Haar projectors, the first raised by EDGE COMPLETENESS_TOL in every entry,
    and its operator's B†B raised by as much again."""
    u = haar_unitary(d, rng)
    elements = np.array([np.outer(u[:, k], u[:, k].conj()) for k in range(d)])
    ones = np.ones((d, d))
    elements[0] += EDGE * COMPLETENESS_TOL * ones
    w, v = np.linalg.eigh(elements[0] + EDGE * COMPLETENESS_TOL * ones)
    operators = elements.copy()
    operators[0] = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return PovmImplementation(Povm(elements), operators)


def edge_probe(d: int, rng) -> np.ndarray:
    """A probe with the eigenvalues 1 + EDGE PROBE_TOL and -EDGE PROBE_TOL."""
    w = np.append([1.0 + EDGE * PROBE_TOL, -EDGE * PROBE_TOL], rng.uniform(0.0, 1.0, d - 2))
    u = haar_unitary(d, rng)
    m = (u * w) @ u.conj().T
    return (m + m.conj().T) / 2.0


def edge_unitaries(d: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two unitaries with U†U - I at EDGE UNITARY_TOL: a scaled one and a sheared one."""
    v = haar_unitary(d, rng)
    c = EDGE * UNITARY_TOL / 2.0  # (1 + c)^2 - 1 and (I + cJ)^2 - I are 2c to first order
    return (1.0 + c) * v, v @ (np.eye(d) + c * np.ones((d, d)))


def run_measurement(e: CqEnsemble, impl: PovmImplementation) -> None:
    """Every public function that takes a measurement and an ensemble."""
    sibson_infinity(born_probabilities(e, impl.povm))
    collapse(e, impl)
    for mode in MODES:
        certify_gentle(e, impl, SPEC, mode)


def run_post_measurement(e: CqEnsemble, impl: PovmImplementation) -> None:
    """post_measurement_state on every possible outcome of every state of e.

    It checks its state as input, so e must be built from input: the states
    of a derived ensemble may miss the state tolerances.
    """
    probs = born_probabilities(e, impl.povm)
    for y, x in zip(*np.nonzero(probs > ZERO_PROB)):
        post_measurement_state(e.states[x], impl, int(y))


def run_ensemble(e: CqEnsemble) -> None:
    """Every public function that takes an ensemble alone."""
    average_state(e)
    leakage_upper_bound(e)
    bits = maximal_quantum_leakage(e).bits
    cloning_lower_bound(e, 0.1, bits)
    lower_bound_sweep(e, [0.0, 0.5, 1.0], bits)
    gentle_leakage_interval(e, SPEC)
    maximal_quantum_leakage(depolarize(e, 0.3))


def run_cli(docs: dict, argvs) -> None:
    """Each command, with {name} replaced by the path of the JSON file of docs[name]."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        for argv in argvs:
            argv = [a.format(**paths) for a in argv] + ["--out", str(Path(tmp) / "out")]
            assert main(argv) == 0, argv


class TestDerivedValuesStayAccepted:
    def test_an_ensemble_conjugated_by_a_scaled_identity(self):
        # U†U - I is 8e-10 on the diagonal, which would grow every trace by
        # 8e-10 > UNIT_TRACE_TOL; the image is renormalized instead
        e = apply_unitary(bb84_ensemble(), (1.0 + 4e-10) * np.eye(2))
        drift = np.abs(e.states.trace(axis1=1, axis2=2).real - 1.0).max()
        assert drift <= UNIT_TRACE_TOL
        assert ensemble_from_json(ensemble_to_json(e)).labels == e.labels
        maximal_quantum_leakage(e)
        gentle_leakage_interval(e, SPEC)

    def test_a_conjugated_state_passes_as_input_again(self):
        # U†U - I = 0.9 UNITARY_TOL would give traces of 1 + 9.0e-10
        img = apply_unitary(bb84_ensemble(), np.sqrt(1.0 + EDGE * UNITARY_TOL) * np.eye(2))
        post_measurement_state(img.states[0], projective_povm(np.eye(2)), 0)
        assert ensemble_from_json(ensemble_to_json(img)).labels == img.labels

    def test_the_average_state_passes_as_input_again(self):
        # both inputs pass, but the plain sum would have trace 1 + 1.35e-10
        t, s = EDGE * UNIT_TRACE_TOL, EDGE / 2 * UNIT_TRACE_TOL
        e = CqEnsemble(
            np.array([0.5, 0.5 + s]), (np.diag([0.5 + t, 0.5]), np.diag([0.3, 0.7 + t]))
        )
        avg = average_state(e)
        assert abs(avg.trace().real - 1.0) <= UNIT_TRACE_TOL
        post_measurement_state(avg, projective_povm(np.eye(2)), 0)

    def test_the_born_table_of_a_povm_at_its_completeness_edge(self):
        # the uniform superposition gathers the residual of all 64 entries of 0.9e-9 J
        d = 8
        uniform = np.full((d, d), 1.0 / d)
        e = CqEnsemble(np.array([0.5, 0.5]), (uniform, np.eye(d) / d))
        povm = Povm((np.eye(d) / 2 + EDGE * COMPLETENESS_TOL * np.ones((d, d)), np.eye(d) / 2))
        table = born_probabilities(e, povm)
        assert table.sum(axis=0).max() - 1.0 == pytest.approx(d * EDGE * COMPLETENESS_TOL)
        assert 0.0 <= sibson_infinity(table) < 1e-7

    def test_the_projectors_of_a_unitary_at_its_edge(self):
        # U†U - I reaches 9.0e-10, U U† - I twice that
        u = HADAMARD @ (np.eye(2) + EDGE * UNITARY_TOL / 2.0 * np.ones((2, 2)))
        impl = projective_povm(u)
        resid = np.abs(impl.povm.elements.sum(axis=0) - np.eye(2)).max()
        assert COMPLETENESS_TOL < resid <= 2 * UNITARY_TOL
        run_measurement(bb84_ensemble(), impl)
        run_post_measurement(bb84_ensemble(), impl)


@edge_cases
@settings(max_examples=8)
def test_edge_ensembles_pass_every_function_and_command(d, seed, sign):
    rng = np.random.default_rng(seed)
    e = edge_ensemble(d, rng, sign)
    assert ensemble_from_json(ensemble_to_json(e)).labels == e.labels
    run_ensemble(e)
    run_cli({"e": ensemble_to_json(e)}, [
        ["leakage", "{e}"],
        ["interval", "{e}", "--alpha", "0.1", "--delta", "0.05"],
        ["depolarize", "{e}", "--p", "0", "0.5", "1"],
        ["lower-bound", "{e}", "--alpha", "0", "0.1", "1"],
        ["figure2", "{e}", "--grid", "11"],
    ])


@edge_cases
@settings(max_examples=8)
def test_edge_measurements_pass_every_function_and_command(d, seed, sign):
    rng = np.random.default_rng(seed)
    e = edge_ensemble(d, rng, sign)
    impl = edge_implementation(d, rng)
    m = edge_probe(d, rng)
    probe = gentle_povm(m, MAX_EPSILON)
    for eps in (0.0, 0.05):
        run_measurement(e, gentle_povm(m, eps))
        run_post_measurement(e, gentle_povm(m, eps))
    max_certified_epsilon(m, SPEC, e)
    for one in (impl, probe):
        _, again = povm_from_json(povm_to_json(one))
        assert np.array_equal(again.operators, one.operators)
        run_measurement(e, one)
        run_post_measurement(e, one)
    docs = {"e": ensemble_to_json(e), "impl": povm_to_json(impl), "probe": povm_to_json(probe)}
    run_cli(docs, [
        ["certify", "{e}", f"{{{one}}}", "--alpha", "0.1", "--delta", "0.05", "--mode", mode]
        for one in ("impl", "probe") for mode in MODES
    ])


@edge_cases
@settings(max_examples=8)
def test_edge_unitaries_pass_every_function(d, seed, sign):
    rng = np.random.default_rng(seed)
    e = edge_ensemble(d, rng, sign)
    for u in edge_unitaries(d, rng):
        assert np.abs(u.conj().T @ u - np.eye(d)).max() <= UNITARY_TOL
        as_unitary(u)
        unitary_disturbance(e, u)
        run_measurement(e, projective_povm(u))
        run_post_measurement(e, projective_povm(u))
        rotated = apply_unitary(e, u)
        run_ensemble(rotated)
        run_measurement(rotated, edge_implementation(d, rng))


def test_derived_builds_run_no_check(monkeypatch):
    e, parts = bb84_ensemble(), measurements._probe(np.diag([1.0, 0.0]))

    def refuse(*args, **kwargs):
        raise AssertionError("a derived value was checked again")

    for mod in (linalg, states, measurements):
        for name in ("as_hermitian", "_spectrum", "_checked_stack"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    for cls in (CqEnsemble, Povm, PovmImplementation):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    measurements._probe_at(*parts, 0.05)
    apply_unitary(e, HADAMARD)
    depolarize(e, 0.3)
    projective_povm(HADAMARD)


QUTRIT = CqEnsemble(
    np.full(3, 1.0 / 3), tuple(random_density(3, np.random.default_rng(4)) for _ in range(3))
)
BB84 = bb84_ensemble()


@pytest.mark.parametrize(
    "call, hermitian, probes",
    [
        # the one check left is the solver's witness POVM, 4 elements of a qubit
        (lambda: gentle_leakage_interval(BB84, SPEC), [(4, 2, 2)], 0),
        (lambda: maximal_quantum_leakage(QUTRIT), [(3, 3, 3)], 0),
        (lambda: lower_bound_sweep(QUTRIT, [0.05, 0.1], 1.0), [], 0),
        (lambda: unitary_disturbance(QUTRIT, haar_unitary(3, np.random.default_rng(5))), [], 0),
        # the simulator's constant inputs, built once: |0>, |+> and the BB84 states
        (lambda: simulate._constants.cache_clear()
         or simulate.run_simulation(simulate.EveStrategy.gentle(0.05), 1000, 1),
         [(1, 2, 2), (1, 2, 2), (4, 2, 2)], 0),
    ],
    ids=["bb84-interval", "qutrit-leakage", "lower-bound-sweep", "unitary-disturbance",
         "first-gentle-simulation"],
)
def test_derived_matrices_pass_no_public_check(monkeypatch, call, hermitian, probes):
    # every module that binds linalg.as_hermitian, the stack check of states and
    # POVM elements (linalg._checked_stack) or the probe's range check
    # (measurements._probe) counts its calls: only input is checked, never a
    # matrix the call derived itself
    herm, stack, probe = linalg.as_hermitian, linalg._checked_stack, measurements._probe
    herm_shapes, probe_shapes = [], []
    shapes = {herm: herm_shapes, stack: herm_shapes, probe: probe_shapes}

    def counting(real):
        def check(m, *args, **kwargs):
            shapes[real].append(np.shape(m))
            return real(m, *args, **kwargs)
        return check

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "gentleleak":
            for attr, value in list(vars(mod).items()):
                if any(value is real for real in shapes):
                    monkeypatch.setattr(mod, attr, counting(value))
    call()
    assert herm_shapes == hermitian
    assert probe_shapes == [(2, 2)] * probes


def test_every_small_float_literal_is_a_named_constant():
    # a float in (0, 1e-6) is a tolerance or a slack: it must be the whole value
    # of a module-level UPPER_CASE assignment, where it has a name and a comment
    loose = []
    for path in sorted(Path(gentleleak.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {
            id(stmt.value)
            for stmt in tree.body
            if isinstance(stmt, ast.Assign)
            and all(isinstance(t, ast.Name) and t.id.isupper() for t in stmt.targets)
        }
        loose += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-6 and id(node) not in named
        ]
    assert not loose, loose
