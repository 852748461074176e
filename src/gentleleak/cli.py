"""Command-line front end: JSON/CSV in, leakage numbers out.

Exit codes: 0 success, 1 stdout was closed before the output was written, 2 input
validation failure (an unreadable input or an --out path that cannot be written
included), 3 semantic precondition failure (e.g. certifying a POVM without an
implementation), 4 numerical non-convergence (a leakage gap still above its
tolerance when the iteration budget ran out, or when a solver step could no
longer close it). Every command is deterministic (the Monte Carlo ones, simulate
and tradeoff, for a fixed --seed) and returns its output text; main writes it to
stdout or, atomically (temp file + rename), to --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .cloning import CloningSweep, lower_bound_sweep
from .leakage import gentle_leakage_interval, maximal_quantum_leakage
from .linalg import ConvergenceError, SchemaError
from .measurements import MODES, GentlenessSpec, certify_gentle, povm_from_json
from .simulate import STRATEGY_KINDS, EveStrategy, run_simulation, tradeoff_sweep
from .states import depolarize, depolarized_leakage, ensemble_from_json

__all__ = ["main", "sweep_csv", "tradeoff_csv"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NONCONVERGENCE = 4


class PreconditionFailure(RuntimeError):
    """Inputs are well-formed but semantically unusable for the command."""


def _create_beside(path: str) -> tuple[int, str]:
    """Create and open a new file <path>.<pid>.<k>.tmp, with the first free k.

    The file gets mode 0o666 less the umask, as a plain write of path would.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
    k = 0
    while True:
        tmp = f"{path}.{os.getpid()}.{k}.tmp"
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            k += 1


def _write_atomic(path: str, text: str) -> None:
    try:
        fd, tmp = _create_beside(path)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
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
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_json(path: str):
    """The parsed document; errors leave the path out, as _load prefixes it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise SchemaError("input file not found") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read input file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError("input file is not UTF-8 text") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _load(path: str, parse):
    """parse() of the JSON document at path; a SchemaError names the path."""
    try:
        return parse(_load_json(path))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _csv(columns: tuple[str, ...], rows) -> str:
    """The CSV of rows, each a tuple of numbers, under the columns' header, at six decimals."""
    line = ",".join(["%.6f"] * len(columns)) + "\n"  # one format per row: cheaper than per value
    return ",".join(columns) + "\n" + "".join(line % r for r in rows)


def sweep_csv(sweep: CloningSweep) -> str:
    """The lower-bound CSV (alpha,p1,p2,lower_bits at six decimals) of figure2 and lower-bound.

    Written from the sweep's columns, so no row object is built.
    """
    columns = (sweep.alpha, sweep.p1_cap, sweep.p2_star, sweep.lower_bits)
    return _csv(("alpha", "p1", "p2", "lower_bits"), zip(*(c.tolist() for c in columns)))


def tradeoff_csv(rows) -> str:
    """The trade-off CSV (epsilon,qber,leakage_bits,mean_disturbance at six decimals)."""
    columns = ("epsilon", "qber", "leakage_bits", "mean_disturbance")
    return _csv(columns, (tuple(r[k] for k in columns) for r in rows))


def cmd_leakage(args) -> str:
    e = _load(args.ensemble, ensemble_from_json)
    return json.dumps(maximal_quantum_leakage(e).to_json(), indent=2)


def _bound_csv(e, alphas) -> str:
    """The lower-bound CSV of e at the alphas, from its maximal leakage."""
    return sweep_csv(lower_bound_sweep(e, alphas, maximal_quantum_leakage(e).bits))


def cmd_lower_bound(args) -> str:
    return _bound_csv(_load(args.ensemble, ensemble_from_json), args.alpha)


def cmd_figure2(args) -> str:
    e = _load(args.ensemble, ensemble_from_json)
    if args.grid_points < 2:
        raise SchemaError("--grid needs at least 2 points")
    return _bound_csv(e, np.linspace(0.0, 1.0, args.grid_points))


def cmd_certify(args) -> str:
    e = _load(args.ensemble, ensemble_from_json)
    _, impl = _load(args.povm, povm_from_json)
    if impl is None:
        raise PreconditionFailure(
            f"{args.povm}: certification needs an 'implementation' block (gentleness"
            " is a property of one implementation, not of the POVM alone)"
        )
    cert = certify_gentle(e, impl, GentlenessSpec(args.alpha, args.delta), mode=args.mode)
    return json.dumps(cert.to_json(), indent=2)


def cmd_depolarize(args) -> str:
    e = _load(args.ensemble, ensemble_from_json)
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
    return json.dumps(doc, indent=2)


def cmd_interval(args) -> str:
    e = _load(args.ensemble, ensemble_from_json)
    iv = gentle_leakage_interval(e, GentlenessSpec(args.alpha, args.delta))
    return json.dumps(iv.to_json(), indent=2)


def cmd_simulate(args) -> str:
    if args.strategy == "gentle":
        strategy = EveStrategy.gentle(0.05 if args.epsilon is None else args.epsilon)
    elif args.epsilon is not None:
        raise SchemaError("--epsilon applies only to --strategy gentle")
    else:
        strategy = EveStrategy(args.strategy)
    return json.dumps(run_simulation(strategy, args.rounds, args.seed).to_json(), indent=2)


def cmd_tradeoff(args) -> str:
    return tradeoff_csv(tradeoff_sweep(args.epsilon, args.rounds, args.seed))


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
    p.add_argument("--epsilon", type=float, nargs="+",
                   default=[0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
    p.set_defaults(func=cmd_tradeoff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(args), args.out)
        sys.stdout.flush()
        return EXIT_OK
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the exit flush raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PreconditionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
