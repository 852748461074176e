"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import json
import time

import numpy as np
import pytest

from qubit_oracle import qubit_grid_oracle

from gentleleak.cli import main as cli_main
from gentleleak.cloning import (
    cloning_lower_bound,
    lower_bound_sweep,
    region_disagreement_report,
    region_quadratic_form,
)
from gentleleak.leakage import (
    depolarized_leakage,
    leakage_upper_bound,
    maximal_quantum_leakage,
)
from gentleleak.linalg import haar_unitary, random_contraction, trace_distance
from gentleleak.measurements import (
    GentlenessSpec,
    certify_gentle,
    gentle_povm,
    max_certified_epsilon,
    post_measurement_state,
)
from gentleleak.simulate import EveStrategy, run_simulation
from gentleleak.states import (
    CqEnsemble,
    apply_unitary,
    bb84_ensemble,
    depolarize,
    ensemble_to_json,
    pure_state,
    unitary_disturbance,
)


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bb84():
    return bb84_ensemble()


@pytest.fixture(scope="module")
def bb84_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "bb84.json"
    path.write_text(json.dumps(ensemble_to_json(bb84_ensemble())))
    return str(path)


def run_cli(argv, capsys):
    code = cli_main(argv)
    return code, capsys.readouterr().out


def test_criterion_1_bb84_maximal_leakage(bb84, bb84_file, capsys):
    t0 = time.perf_counter()
    code, out = run_cli(["leakage", bb84_file], capsys)  # default iteration budget
    doc = json.loads(out)
    oracle = qubit_grid_oracle(bb84, 721)
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and abs(doc["bits"] - 1.0) <= 1e-3
        and oracle.bits >= 1.0 - 1e-6
        and elapsed < 30.0
    )
    report(
        1,
        "BB84 maximal leakage 1.000 +/- 1e-3; grid oracle >= 1 - 1e-6; < 30 s",
        ok,
        f"cli={doc['bits']:.6f}, oracle={oracle.bits:.9f}, {elapsed:.1f}s",
    )


def test_criterion_2_figure2_anchor(bb84_file, capsys):
    code, out = run_cli(["lower-bound", bb84_file, "--alpha", "0.1"], capsys)
    row = out.strip().splitlines()[1].split(",")
    p1, p2, bits = float(row[1]), float(row[2]), float(row[3])
    ok = (
        code == 0
        and abs(bits - 0.7608) <= 5e-4
        and abs(p1 - 0.2) <= 1e-4
        and abs(p2 - 0.30557) <= 1e-4
    )
    report(
        2,
        "lower bound at alpha=0.1 is 0.7608 +/- 5e-4 with (p1*, p2*) ~ (0.2, 0.30557)",
        ok,
        f"bits={bits:.6f}, p1={p1:.6f}, p2={p2:.6f}",
    )


def test_criterion_3_figure2_shape(bb84, capsys):
    q = qubit_grid_oracle(bb84, 721).bits
    rows = lower_bound_sweep(bb84, np.linspace(0.0, 1.0, 101), q)
    bits = [r.lower_bits for r in rows]
    monotone = all(b2 >= b1 - 1e-12 for b1, b2 in zip(bits, bits[1:]))
    zero_start = abs(bits[0]) <= 1e-12
    saturated = all(
        abs(r.lower_bits - 1.0) <= 1e-3 for r in rows if r.alpha >= 0.5 - 1e-12
    )
    ok = monotone and zero_start and saturated
    report(
        3,
        "101-point sweep monotone, 0 at alpha=0, equals Q for alpha >= 0.5",
        ok,
        f"start={bits[0]:.2e}, end={bits[-1]:.6f}",
    )


def test_criterion_4_depolarizing_closed_form(bb84):
    worst_opt = worst_oracle = 0.0
    exact_zero_at_full_noise = True
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        noisy = depolarize(bb84, p)
        expected = depolarized_leakage(1.0, p)
        opt = maximal_quantum_leakage(noisy).bits
        worst_opt = max(worst_opt, abs(opt - expected))
        if p == 1.0:
            exact_zero_at_full_noise = opt == 0.0
        else:
            oracle = qubit_grid_oracle(noisy, 361).bits
            worst_oracle = max(worst_oracle, abs(oracle - expected))
    ok = worst_opt <= 1e-9 and worst_oracle <= 1e-6 and exact_zero_at_full_noise
    report(
        4,
        "depolarized leakage matches log2(p + (1-p)2): solver 1e-9, oracle 1e-6, p=1 exact",
        ok,
        f"solver worst={worst_opt:.2e}, oracle worst={worst_oracle:.2e}",
    )


def test_criterion_5_gentle_construction_suite():
    rng = np.random.default_rng(505)
    worst_resid = 0.0
    worst_eig = 0.0
    all_certified = True
    worst_small_eps = 0.0
    for case in range(100):
        d = int(rng.integers(2, 4))
        m = random_contraction(d, rng)
        eps = float(rng.uniform(0.0, 0.1))
        construction = gentle_povm(m, eps)
        ops = construction.operators
        total = sum(b @ b.conj().T for b in ops)
        worst_resid = max(worst_resid, float(np.max(np.abs(total - np.eye(d)))))
        for f in construction.povm.elements:
            worst_eig = max(worst_eig, -float(np.min(np.linalg.eigvalsh(f))))

        states = tuple(
            _random_density(d, rng) for _ in range(int(rng.integers(2, 4)))
        )
        e = CqEnsemble(np.full(len(states), 1.0 / len(states)), states)
        spec = GentlenessSpec(float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.01, 0.5)))
        cal = max_certified_epsilon(m, spec, e)
        for frac in (1.0, 0.5, 0.25):
            test_eps = cal.epsilon * frac
            if test_eps <= 0.0:
                continue
            cert = certify_gentle(e, gentle_povm(m, test_eps), spec)
            all_certified = all_certified and cert.certified

        tiny = gentle_povm(m, 1e-4)
        for s in e.states:
            for branch in (0, 1):  # the +/- branches carry the good event
                dist = trace_distance(post_measurement_state(s, tiny, branch), s)
                worst_small_eps = max(worst_small_eps, dist)

    ok = (
        worst_resid <= 1e-9
        and worst_eig <= 1e-10
        and all_certified
        and worst_small_eps < 1e-3
    )
    report(
        5,
        "100 random gentle probes: completeness 1e-9, PSD, certified below eps', "
        "branch disturbance < 1e-3 at eps=1e-4",
        ok,
        f"resid={worst_resid:.2e}, min-eig=-{worst_eig:.2e}, tiny-eps dist={worst_small_eps:.2e}",
    )


def _random_density(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return m / np.trace(m).real


def test_criterion_6_invariance_and_positivity(bb84):
    rng = np.random.default_rng(606)
    base_oracle = qubit_grid_oracle(bb84, 721).bits
    base_opt = maximal_quantum_leakage(bb84).bits
    worst_oracle = worst_opt = 0.0
    cap_ok = True
    for _ in range(20):
        u = haar_unitary(2, rng)
        rotated = apply_unitary(bb84, u)
        ob = qubit_grid_oracle(rotated, 721).bits
        op = maximal_quantum_leakage(rotated).bits
        worst_oracle = max(worst_oracle, abs(ob - base_oracle))
        worst_opt = max(worst_opt, abs(op - base_opt))
        cap_ok = cap_ok and op <= leakage_upper_bound(rotated) + 1e-9

    ident = CqEnsemble(
        np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([1, 0]))
    )
    ident_bits = maximal_quantum_leakage(ident).bits

    ok = worst_oracle <= 1e-6 and worst_opt <= 1e-9 and ident_bits == 0.0 and cap_ok
    report(
        6,
        "20 rotations: oracle shift <= 1e-6, solver shift <= 1e-9; identical -> 0; cap held",
        ok,
        f"oracle worst={worst_oracle:.2e}, solver worst={worst_opt:.2e}",
    )


def test_criterion_7_weak_dpi_bound_level(bb84):
    rng = np.random.default_rng(707)
    alpha = 0.12
    q_base = qubit_grid_oracle(bb84, 361).bits
    ok = True
    worst_violation = -np.inf
    for _ in range(20):
        u = haar_unitary(2, rng)
        rotated = apply_unitary(bb84, u)
        beta = unitary_disturbance(bb84, u)
        q_rot = qubit_grid_oracle(rotated, 361).bits
        lhs = cloning_lower_bound(rotated, alpha, q_rot).lower_bits
        rhs = cloning_lower_bound(bb84, min(alpha + beta, 1.0), q_base).lower_bits
        worst_violation = max(worst_violation, lhs - rhs)
        ok = ok and lhs <= rhs + 1e-9
    report(
        7,
        "20 rotations: rotated bound at alpha never exceeds base bound at alpha + beta(U)",
        ok,
        f"max(lhs - rhs)={worst_violation:.2e}",
    )


def test_criterion_8_simulator_oracle_equivalence():
    n = 100000
    sigma = np.sqrt(0.25 * 0.75 / n)
    ok = True
    for strategy in (EveStrategy("w1"), EveStrategy("w2")):
        rep = run_simulation(strategy, n, seed=88)
        ok = ok and abs(rep.qber - 0.25) <= 3.0 * sigma

    passive = run_simulation(EveStrategy("none"), n, seed=88)
    ok = ok and passive.qber == 0.0

    a = run_simulation(EveStrategy("w1"), 40000, seed=3)
    b = run_simulation(EveStrategy("w1"), 40000, seed=3)
    ok = ok and a == b and json.dumps(a.to_json()) == json.dumps(b.to_json())
    report(
        8,
        "W1/W2 Monte Carlo QBER within 3 sigma of 0.25; passive exactly 0; seeded reruns identical",
        ok,
    )


def test_criterion_9_cloning_region_diagnostics():
    sym_ok = True
    for p in np.linspace(0.0, 1.0, 201):
        satisfied, _ = region_quadratic_form(float(p), float(p), 2)
        sym_ok = sym_ok and satisfied == (p >= 0.25 - 1e-12)

    root = (2.4 - np.sqrt(3.2)) / 2.0
    _, slack = region_quadratic_form(0.2, root, 2)
    root_ok = abs(root - 0.305573) <= 1e-6 and abs(slack) <= 1e-9

    rep = region_disagreement_report(2, 200)
    report_ok = rep["points"] == 40000 and rep["sqrt_defined"] > 0

    ok = sym_ok and root_ok and report_ok
    report(
        9,
        "quadratic form: symmetric line p >= 1/4, boundary root 0.305573; 200x200 "
        "disagreement report runs",
        ok,
        f"sqrt-only disagreements={rep['sqrt_only_feasible']}",
    )
