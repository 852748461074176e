#!/usr/bin/env python3
"""Run one fixed list of CLI invocations in this tree and in another, and compare the bytes.

    python scripts/diff_outputs.py OTHER_TREE [--expect NAME ...]

OTHER_TREE is another checkout, e.g. from `git worktree add /tmp/parent HEAD~1`. Each tree
runs in one subprocess with PYTHONPATH=<tree>/src that calls gentleleak.cli.main per item
and records the exit code, stdout, stderr and --out bytes. Both run in one temporary
directory on relative paths, so a text that echoes a path compares equal. Prints the first
differing bytes of each item, this tree's first; exits 1 if an item no --expect names differs
or an item an --expect names does not.
"""

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKER = r"""
import contextlib, io, json, os, sys
import gentleleak
from gentleleak.cli import main
records = {}
for name, argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:  # a crash is an output too
            code = f"{type(exc).__name__}: {exc}"
    path, data = argv[argv.index("--out") + 1] if "--out" in argv else "", b""
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            data = fh.read()
        os.unlink(path)
    texts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode(), data]
    records[name] = [t.decode("latin-1") for t in texts]
json.dump({"module": gentleleak.__file__, "records": records}, sys.stdout)
"""


def mat(rows) -> dict:
    return {"dim": len(rows), "entries": [[[complex(z).real, complex(z).imag] for z in row]
                                          for row in rows]}


def ensemble(*states) -> dict:
    return {"labels": [str(i) for i in range(len(states))],
            "probs": [1.0 / len(states)] * len(states), "states": [mat(s) for s in states]}


H, J, Z0, Z1 = 0.5, 0.5j, [[1, 0], [0, 0]], [[0, 0], [0, 1]]
DOCS = {  # the make_inputs.py files are written beside these
    "mixed.json": ensemble([[0.9, 0], [0, 0.1]], [[H, 0.3], [0.3, H]], [[H, -0.2j], [0.2j, H]]),
    "qutrit.json": ensemble([[0.6, 0, 0], [0, 0.3, 0], [0, 0, 0.1]],
                            [[0.1, 0, 0], [0, 0.3, 0], [0, 0, 0.6]], [[1 / 3] * 3] * 3),
    "six.json": ensemble(Z0, Z1, [[H, H], [H, H]], [[H, -H], [-H, H]], [[H, -J], [J, H]],
                         [[H, J], [-J, H]]),
    "one.json": ensemble([[1]]),
    "nan-state.json": ensemble(Z0, [[math.nan, 0], [0, 1]]),
    "two-bad-states.json": ensemble(Z0, [[1.2, 0], [0, -0.2]], [[H, 0.3], [0, H]]),
    "nonherm-povm.json": {"elements": [mat([[1, 0], [0, 1]]), mat([[H, 0.3], [0, H]])]},
    "nonpsd-povm.json": {"elements": [mat([[-0.1, 0], [0, H]]), mat([[0.6, 0], [0, H]]),
                                      mat([[H, 0], [0, -H]]), mat([[0, 0], [0, H]])]},
    "bare-povm.json": {"elements": [mat(Z0), mat(Z1)]},
    "true-prior.json": {**ensemble(Z0, Z1), "probs": [True, 0.5]},
    "negative-prior.json": {**ensemble(Z0, Z1), "probs": [1.25, -0.25]},
    "duplicate-labels.json": {**ensemble(Z0, Z1), "labels": ["a", "a"]},
    "labels-not-list.json": {"labels": "ab", "elements": [mat(Z0), mat(Z1)]},
}
RAW = {"bad.json": b'{"labels": ', "not-utf8.json": b"\xff\xfe{}"}
BUDGET = "--alpha 0.1 --delta 0.05"
# every measurement is gentle, at d > 1
SATURATED = {"alpha-1": "--alpha 1 --delta 0", "delta-1": "--alpha 0.1 --delta 1"}
TIGHT = {"alpha-0.01": "--alpha 0.01 --delta 0.001"}  # MAX_EPSILON fails, so the probes bisect
INTERVALS = {  # more interval budgets, per input stem
    "bb84": {**SATURATED, **TIGHT}, "mixed": TIGHT, "qutrit": {**SATURATED, **TIGHT},
    # the paper's d = 2 region value, above the six-state channel value (ROADMAP item 15)
    "six": {"alpha-0.02": "--alpha 0.02 --delta 0", "alpha-0.05": "--alpha 0.05 --delta 0"},
}
SIM = "--rounds 20000 --seed 7"
CERTIFY = {"bb84": ["z_basis", "x_basis", "gentle_probe"], "mixed": ["gentle_probe"],
           "six": ["gentle_probe"],
           "identical": ["z_basis"]}  # ensemble -> the make_inputs.py POVMs it is certified with
ERRORS = {
    "leakage:bad": "leakage bad.json",
    "leakage:not-utf8": "leakage not-utf8.json",
    "leakage:nan-state": "leakage nan-state.json",
    "leakage:two-bad-states": "leakage two-bad-states.json",
    "certify:nonherm-povm": f"certify data/bb84.json nonherm-povm.json {BUDGET}",
    "certify:nonpsd-povm": f"certify data/bb84.json nonpsd-povm.json {BUDGET}",
    "certify:bare-povm": f"certify data/bb84.json bare-povm.json {BUDGET}",
    # the prior and label checks, made once by the constructors
    "leakage:true-prior": "leakage true-prior.json",
    "leakage:negative-prior": "leakage negative-prior.json",
    "leakage:duplicate-labels": "leakage duplicate-labels.json",
    "certify:labels-not-list": f"certify data/bb84.json labels-not-list.json {BUDGET}",
    "leakage:unwritable-out": "leakage data/bb84.json --out missing/out.json",
    "simulate:w1-epsilon": "simulate --strategy w1 --epsilon 0.05",
    "figure2:grid-1": "figure2 data/bb84.json --grid 1",
    # the range errors of real parameters, each printed by the one check
    "interval:alpha-1.5": "interval data/bb84.json --alpha 1.5 --delta 0",
    "certify:delta-nan": "certify data/bb84.json data/gentle_probe_povm.json"
                         " --alpha 0.1 --delta nan",
    "lower-bound:alpha-2": "lower-bound data/bb84.json --alpha 0.1 2",
    "depolarize:p-1.5": "depolarize data/bb84.json --p 0.5 1.5",
    "simulate:epsilon-0.5": "simulate --strategy gentle --epsilon 0.5",
    "tradeoff:epsilon-nan": "tradeoff --epsilon 0 nan",
    # the range errors of integer parameters, each printed by the one check
    "simulate:rounds-0": "simulate --strategy none --rounds 0",
    "simulate:seed-negative": "simulate --strategy none --seed -1",
}


def items() -> dict:
    """Item name -> argv: every command on every input, the error cases, README's examples."""
    out = {}
    for path in ["data/bb84.json", "data/identical.json", "data/commuting.json", "mixed.json",
                 "qutrit.json", "six.json", "one.json"]:
        stem = Path(path).stem
        out[f"leakage:{stem}"] = f"leakage {path}"
        out[f"lower-bound:{stem}"] = f"lower-bound {path} --alpha 0 0.05 0.1 0.5"
        out[f"figure2:{stem}"] = f"figure2 {path} --grid 101 --out out.csv"
        out[f"depolarize:{stem}"] = f"depolarize {path} --p 0 0.25 0.5 1"
        out[f"interval:{stem}"] = f"interval {path} {BUDGET}"
        out.update((f"interval:{stem}:{k}", f"interval {path} {budget}")
                   for k, budget in INTERVALS.get(stem, {}).items())
        for povm in CERTIFY.get(stem, []):
            out[f"certify:{stem}:{povm}"] = f"certify {path} data/{povm}_povm.json {BUDGET}"
    out["certify:average-state"] = out["certify:six:gentle_probe"] + " --mode average-state"
    out["lower-bound:alpha-negative-zero"] = "lower-bound data/bb84.json --alpha -0.0 0.1"
    out["depolarize:p-negative-zero"] = "depolarize data/bb84.json --p -0.0 0.5"
    out["interval:bb84:out"] = f"interval data/bb84.json {BUDGET} --out out.json"
    for kind in ("none", "intercept-z", "w1", "w2", "gentle"):
        out[f"simulate:{kind}"] = f"simulate --strategy {kind} {SIM}"
    out["tradeoff"] = f"tradeoff --epsilon 0 0.05 0.1 {SIM}"
    out.update(ERRORS)
    readme = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("gentleleak ")]
    out.update((f"readme:{k}", line.removeprefix("gentleleak ")) for k, line in enumerate(lines))
    return {name: shlex.split(line, comments=True) for name, line in out.items()}


def run(tree: Path, todo: dict, cwd: str) -> dict:
    """The records of every item, made by tree's gentleleak in one subprocess."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", WORKER], input=json.dumps(list(todo.items())),
                          capture_output=True, text=True, cwd=cwd, env=env)
    if proc.returncode:
        sys.exit(f"{tree}: the worker failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout)
    if not Path(doc["module"]).resolve().is_relative_to((tree / "src").resolve()):
        sys.exit(f"{tree}: imported gentleleak from {doc['module']}")
    return {name: [t.encode("latin-1") for t in texts] for name, texts in doc["records"].items()}


def first_difference(a: list, b: list) -> str:
    for field, x, y in zip(("exit code", "stdout", "stderr", "--out file"), a, b):
        if x != y:
            i = next((k for k, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
            return f"{field} at byte {i}: {x[i:i + 60]!r} != {y[i:i + 60]!r}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="another checkout of this repository")
    parser.add_argument("--expect", nargs="+", default=[], metavar="NAME",
                        help="items that may differ")
    args = parser.parse_args(argv)
    todo = items()
    if unknown := set(args.expect) - set(todo):
        parser.error(f"unknown items: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory() as cwd:
        subprocess.run([sys.executable, str(ROOT / "scripts" / "make_inputs.py")], cwd=cwd,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
                       capture_output=True)
        for name, data in {**{n: json.dumps(d).encode() for n, d in DOCS.items()}, **RAW}.items():
            Path(cwd, name).write_bytes(data)
        mine, theirs = run(ROOT, todo, cwd), run(args.other.resolve(), todo, cwd)
    differ = {name: where for name in todo if (where := first_difference(mine[name], theirs[name]))}
    for name, where in differ.items():
        print(f"{name}: {'expected, ' if name in args.expect else ''}{where}")
    for name in (stale := sorted(set(args.expect) - set(differ))):
        print(f"{name}: expected to differ, but byte-identical")
    unexpected = len(set(differ) - set(args.expect))
    print(f"{len(todo)} items: {len(todo) - len(differ)} byte-identical, {len(differ)} differ "
          f"({unexpected} unexpected)")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
