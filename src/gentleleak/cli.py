"""Command-line front end: JSON/CSV in, leakage numbers out.

Exit codes: 0 success, 2 input validation failure (an unreadable input or an
--out path that cannot be written included), 3 semantic precondition
failure (e.g. certifying a POVM without an implementation), 4 numerical
non-convergence (a leakage gap still above its tolerance when the iteration
budget ran out, or when a solver step could no longer close it). Every command
is deterministic (the Monte Carlo ones, simulate and tradeoff, for a fixed
--seed) and writes output atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .cloning import lower_bound_sweep
from .leakage import depolarized_leakage, gentle_leakage_interval, maximal_quantum_leakage
from .linalg import ConvergenceError, SchemaError
from .measurements import MODES, GentlenessSpec, certify_gentle, povm_from_json
from .simulate import STRATEGY_KINDS, EveStrategy, run_simulation, tradeoff_sweep
from .states import CqEnsemble, depolarize, ensemble_from_json

__all__ = ["main", "sweep_csv", "tradeoff_csv"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NONCONVERGENCE = 4


class PreconditionFailure(RuntimeError):
    """Inputs are well-formed but semantically unusable for the command."""


def _write_atomic(path: str, text: str) -> None:
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_json(path: str):
    p = Path(path)
    if not p.exists():
        raise SchemaError(f"input file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read input file: {exc.strerror}") from exc


def _load_ensemble(path: str) -> CqEnsemble:
    try:
        return ensemble_from_json(_load_json(path))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def sweep_csv(rows) -> str:
    """The lower-bound CSV (alpha,p1,p2,lower_bits at six decimals) of figure2 and lower-bound."""
    lines = ["alpha,p1,p2,lower_bits"]
    for r in rows:
        lines.append(f"{r.alpha:.6f},{r.p1_cap:.6f},{r.p2_star:.6f},{r.lower_bits:.6f}")
    return "\n".join(lines) + "\n"


def tradeoff_csv(rows) -> str:
    """The trade-off CSV (epsilon,qber,leakage_bits,mean_disturbance at six decimals)."""
    lines = ["epsilon,qber,leakage_bits,mean_disturbance"]
    for r in rows:
        lines.append(
            f"{r['epsilon']:.6f},{r['qber']:.6f},{r['leakage_bits']:.6f},"
            f"{r['mean_disturbance']:.6f}"
        )
    return "\n".join(lines) + "\n"


def cmd_leakage(args) -> int:
    e = _load_ensemble(args.ensemble)
    est = maximal_quantum_leakage(e)
    _emit(json.dumps(est.to_json(), indent=2), args.out)
    return EXIT_OK


def cmd_lower_bound(args) -> int:
    e = _load_ensemble(args.ensemble)
    q = maximal_quantum_leakage(e)
    rows = lower_bound_sweep(e, args.alpha, q.bits)
    _emit(sweep_csv(rows), args.out)
    return EXIT_OK


def cmd_figure2(args) -> int:
    e = _load_ensemble(args.ensemble)
    if args.grid_points < 2:
        raise SchemaError("--grid needs at least 2 points")
    q = maximal_quantum_leakage(e)
    alphas = np.linspace(0.0, 1.0, args.grid_points)
    rows = lower_bound_sweep(e, alphas, q.bits)
    _emit(sweep_csv(rows), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    e = _load_ensemble(args.ensemble)
    try:
        povm, impl = povm_from_json(_load_json(args.povm))
    except SchemaError as exc:
        raise SchemaError(f"{args.povm}: {exc}") from exc
    if impl is None:
        raise PreconditionFailure(
            f"{args.povm}: certification needs an 'implementation' block (gentleness"
            " is a property of one implementation, not of the POVM alone)"
        )
    spec = GentlenessSpec(args.alpha, args.delta)
    cert = certify_gentle(e, impl, spec, mode=args.mode)
    doc = {"alpha": spec.alpha, "delta": spec.delta, **cert.to_json()}
    _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_depolarize(args) -> int:
    e = _load_ensemble(args.ensemble)
    rows = []
    for p in args.p:
        est = maximal_quantum_leakage(depolarize(e, p))
        rows.append({"p": p, "bits": est.bits, "upper_bits": est.upper_bits})
    base = maximal_quantum_leakage(e)
    doc = {
        "base_bits": base.bits,
        "closed_form_bits": [depolarized_leakage(base.bits, p) for p in args.p],
        "rows": rows,
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_interval(args) -> int:
    e = _load_ensemble(args.ensemble)
    spec = GentlenessSpec(args.alpha, args.delta)
    iv = gentle_leakage_interval(e, spec)
    _emit(json.dumps(iv.to_json(), indent=2), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.strategy == "gentle":
        strategy = EveStrategy.gentle(0.05 if args.epsilon is None else args.epsilon)
    elif args.epsilon is not None:
        raise SchemaError("--epsilon applies only to --strategy gentle")
    else:
        strategy = EveStrategy(args.strategy)
    report = run_simulation(strategy, args.rounds, args.seed)
    _emit(json.dumps(report.to_json(), indent=2), args.out)
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    eps = args.epsilon or [0.0, 0.02, 0.04, 0.06, 0.08, 0.1]
    _emit(tradeoff_csv(tradeoff_sweep(eps, args.rounds, args.seed)), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="gentleleak",
        description="Leakage bounds for quantum encodings under detection-avoiding probing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ensemble=True):
        if ensemble:
            p.add_argument("ensemble", help="ensemble JSON file")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")

    p = sub.add_parser("leakage", help="maximal leakage of an ensemble")
    common(p)
    p.set_defaults(func=cmd_leakage)

    p = sub.add_parser("lower-bound", help="cloning lower bound at given alphas (CSV)")
    common(p)
    p.add_argument("--alpha", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("figure2", help="lower-bound curve over a uniform alpha grid (CSV)")
    common(p)
    p.add_argument("--grid", dest="grid_points", type=int, default=721,
                   help="number of alpha grid points")
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("certify", help="check a POVM implementation for gentleness")
    common(p)
    p.add_argument("povm", help="POVM JSON file (must include an implementation)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", choices=MODES, default="per-state")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("depolarize", help="leakage of the ensemble after depolarizing noise")
    common(p)
    p.add_argument("--p", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_depolarize)

    p = sub.add_parser("interval", help="gentle-leakage interval at (alpha, delta)")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("simulate", help="Monte Carlo of the intercepted BB84 loop")
    common(p, ensemble=False)
    p.add_argument("--strategy", choices=STRATEGY_KINDS, required=True)
    p.add_argument("--rounds", type=int, default=100000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--epsilon", type=float, default=None,
                   help="probe strength of the gentle strategy (default 0.05)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tradeoff", help="gentle-strategy sweep: leakage vs disturbance (CSV)")
    common(p, ensemble=False)
    p.add_argument("--rounds", type=int, default=100000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--epsilon", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_tradeoff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
