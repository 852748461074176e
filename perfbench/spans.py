"""Span tracing at gentleleak's module boundaries, installed from outside the program.

The tracer wraps the public functions of each traced module in every
gentleleak module namespace that bound them, and the constructors of its
public classes. While an op is active each wrapped call records a span (name,
start, end, parent span, op id) into flat in-memory arrays; nothing is written
until the run ends. Per-layer metrics are computed from the spans afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("cli", "states", "linalg", "measurements", "leakage", "cloning", "simulate")

# Names the per-layer metrics read. A name a later version of the program drops
# is reported as absent and its metrics read 0; the run goes on.
REQUIRED = (
    "cli.main",
    "states.ensemble_from_json", "states.DensityOperator",
    "linalg.eig_hermitian", "linalg.psd_inv_sqrt", "linalg.trace_distance", "linalg.as_hermitian",
    "measurements.Povm", "measurements.post_measurement_state", "measurements.certify_gentle",
    "measurements.max_certified_epsilon",
    "leakage.maximal_quantum_leakage", "leakage.gentle_leakage_interval",
    "leakage.qubit_grid_oracle",
    "cloning.cloning_lower_bound", "cloning.min_feasible_p2",
    "simulate.run_simulation",
)

# Arguments summed per wrapped function, so rates are counted where the work happens.
COUNTED_ARGS = {"simulate.run_simulation": "rounds"}

# (metric, unit, better); per traced pass. ".s" is inclusive time, ".self_s"
# excludes wrapped children, ".calls" counts calls.
PER_LAYER = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("states.ensemble_from_json.s", "s", "lower"),
    ("states.DensityOperator.calls", "count", "lower"),
    ("states.DensityOperator.s", "s", "lower"),
    ("linalg.eig_hermitian.calls", "count", "lower"),
    ("linalg.eig_hermitian.s", "s", "lower"),
    ("linalg.psd_inv_sqrt.calls", "count", "lower"),
    ("linalg.psd_inv_sqrt.s", "s", "lower"),
    ("linalg.trace_distance.calls", "count", "lower"),
    ("linalg.trace_distance.s", "s", "lower"),
    ("linalg.as_hermitian.calls", "count", "lower"),
    ("measurements.Povm.calls", "count", "lower"),
    ("measurements.Povm.s", "s", "lower"),
    ("measurements.post_measurement_state.calls", "count", "lower"),
    ("measurements.certify_gentle.calls", "count", "lower"),
    ("measurements.certify_gentle.self_s", "s", "lower"),
    ("measurements.max_certified_epsilon.calls", "count", "lower"),
    ("measurements.max_certified_epsilon.self_s", "s", "lower"),
    ("measurements.certify_per_calibration", "count", "lower"),
    ("leakage.maximal_quantum_leakage.calls", "count", "lower"),
    ("leakage.maximal_quantum_leakage.s", "s", "lower"),
    ("leakage.maximal_quantum_leakage.self_s", "s", "lower"),
    ("leakage.eig_per_solve", "count", "lower"),
    ("leakage.gentle_leakage_interval.self_s", "s", "lower"),
    ("leakage.qubit_grid_oracle.s", "s", "lower"),
    ("cloning.cloning_lower_bound.calls", "count", "lower"),
    ("cloning.cloning_lower_bound.self_s", "s", "lower"),
    ("cloning.min_feasible_p2.calls", "count", "lower"),
    ("cloning.p2_evals_per_bound", "count", "lower"),
    ("simulate.run_simulation.calls", "count", "lower"),
    ("simulate.run_simulation.s", "s", "lower"),
    ("simulate.rounds_per_s", "1/s", "higher"),
)

# (metric, child span, parent span): child calls made inside a parent, per parent call.
RATIOS = (
    ("leakage.eig_per_solve", "linalg.eig_hermitian", "leakage.maximal_quantum_leakage"),
    ("measurements.certify_per_calibration", "measurements.certify_gentle",
     "measurements.max_certified_epsilon"),
    ("cloning.p2_evals_per_bound", "cloning.min_feasible_p2", "cloning.cloning_lower_bound"),
)


def _targets(package: str):
    """Yield (span name, module, attribute, original) for every public function and
    (span name, class, "__init__", original) for every public class constructor."""
    for short in MODULES:
        try:
            mod = importlib.import_module(f"{package}.{short}")
        except ImportError:
            continue
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            obj = getattr(mod, name, None)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", mod, name, obj
            elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                  and "__init__" in vars(obj)):
                yield f"{short}.{name}", obj, "__init__", vars(obj)["__init__"]


class Tracer:
    """Records spans of wrapped gentleleak calls made while an op is active."""

    def __init__(self, package: str = "gentleleak"):
        self.package = package
        self.names: list[str] = []
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.arg_sums: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1
        self._targets = [(owner, attr, original, self._wrap(name, original))
                         for name, owner, attr, original in _targets(package)]
        self.absent = [n for n in REQUIRED if n not in self.names]
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        counted = COUNTED_ARGS.get(name)
        signature = inspect.signature(fn) if counted else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            if counted:
                value = signature.bind(*args, **kwargs).arguments.get(counted, 0)
                self.arg_sums[name] = self.arg_sums.get(name, 0) + value
            sid = len(self.start)
            self.name_idx.append(idx)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self._op)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        """Replace each target in every loaded gentleleak namespace that bound it."""
        prefix = self.package + "."
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == self.package or n.startswith(prefix))]
        for owner, attr, original, wrapper in self._targets:
            if attr == "__init__":
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -------------------------------------------------------------- recording

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.clear()

    def end_op(self) -> None:
        self._op = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    # ---------------------------------------------------------------- metrics

    def totals(self) -> dict[str, tuple[float, float, float]]:
        """(calls, inclusive s, self s) per wrapped name, over all recorded spans.

        A span's self time is its duration minus the durations of its child
        spans; children of one span run one after another, so they never overlap.
        """
        a = self.arrays()
        n_names = max(len(self.names), 1)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(a["name"], minlength=n_names)
        incl = np.bincount(a["name"], weights=dur, minlength=n_names)
        self_t = np.bincount(a["name"], weights=dur - child, minlength=n_names)
        return {n: (float(calls[i]), float(incl[i]), float(self_t[i]))
                for i, n in enumerate(self.names)}

    def per_layer(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass, from the recorded spans."""
        flat = {}
        for name, (calls, incl, self_t) in self.totals().items():
            flat.update({f"{name}.calls": calls, f"{name}.s": incl, f"{name}.self_s": self_t})
        out = {metric: flat.get(metric, 0.0) / max(passes, 1) for metric, _, _ in PER_LAYER}
        a = self.arrays()
        index = {n: i for i, n in enumerate(self.names)}
        for metric, child_name, parent_name in RATIOS:
            out[metric] = self._ratio(a, index, child_name, parent_name)
        run_s = flat.get("simulate.run_simulation.s", 0.0)
        rounds = self.arg_sums.get("simulate.run_simulation", 0)
        out["simulate.rounds_per_s"] = float(rounds / run_s) if run_s > 0 else 0.0
        return out

    @staticmethod
    def _ratio(a, index, child_name: str, parent_name: str) -> float:
        """Calls of child_name made under a parent_name span, per parent_name call."""
        if child_name not in index or parent_name not in index:
            return 0.0
        names, parents = a["name"].tolist(), a["parent"].tolist()
        target, wanted = index[parent_name], index[child_name]
        under = [False] * len(names)
        n_child = 0
        for i, p in enumerate(parents):  # parents precede children in recording order
            if p >= 0 and (names[p] == target or under[p]):
                under[i] = True
                n_child += names[i] == wanted
        n_parent = names.count(target)
        return n_child / n_parent if n_parent else 0.0
