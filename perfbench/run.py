"""Benchmark of gentleleak, driven from outside the program.

    python3 perfbench/run.py --workload {leakage,certify,sweep} --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from the ``src/`` directory next to
this one. A run generates its inputs from the seed, then repeats one pass of
the workload's operations, starting a new pass while fewer than ``--seconds``
have passed (a pass is never cut). Every output is checked. Timings use each
op's fastest repeat in the run, and ``wall_s`` is scaled to a nominal machine
speed by the probe in ``speed.py``.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` passes alternate traced and untraced,
the result holds the per-layer metrics, and the tracing overhead is printed.
Metric lines (name, value, unit) precede the result. A run record, and with
tracing the spans, are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, fixed before numpy loads, so timings do not depend on the
# number of cores of the machine.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
TRACED_RUN_LIMIT_S = 150.0  # a traced run adds an untraced pass only if it ends by then


def _load_program() -> None:
    """Import gentleleak from this checkout's src/, or exit non-zero without a result."""
    if not (SRC / "gentleleak" / "__init__.py").is_file():
        sys.exit(f"error: no gentleleak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gentleleak

    if SRC.resolve() not in Path(gentleleak.__file__).resolve().parents:
        sys.exit(f"error: imported gentleleak from {gentleleak.__file__}, not from {SRC}")


_load_program()
import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def run_pass(ops, first_id: int, tracer=None, probe=None) -> list[dict]:
    """Run every op once, in order; time each call and check its result afterwards.

    With a tracer, its wrappers are installed for this pass only.
    """
    records = []
    if tracer:
        tracer.install()
    try:
        for k, op in enumerate(ops):
            if tracer:
                tracer.begin_op(first_id + k)
            error = None
            spent = probe.spent if probe else 0.0
            t = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising op is a failed op; the run goes on
                error = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t - ((probe.spent - spent) if probe else 0.0)
            if tracer:
                tracer.end_op()
            if error is None:
                try:
                    problems = op.check(result)
                except Exception as exc:  # an unreadable output fails its check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            records.append({"kind": op.kind, "s": dt, "points": op.points,
                            "rounds": op.rounds, "traced": tracer is not None,
                            "problems": problems,
                            "known_defect": op.known_defect if problems else ""})
    finally:
        if tracer:
            tracer.uninstall()
    return records


def run_passes(ops, seconds: float, tracer=None, probe=None) -> list[list[dict]]:
    """Closed loop over whole passes, started while less than `seconds` have passed.

    Traced runs alternate traced and untraced passes, and add one untraced pass
    to a run of a single pass when that pass still ends within TRACED_RUN_LIMIT_S.
    """
    start = time.perf_counter()
    passes: list[list[dict]] = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        passes.append(run_pass(ops, len(passes) * len(ops), tracer if traced else None, probe))
        elapsed = time.perf_counter() - start
        if elapsed < seconds:
            continue
        if tracer is not None and len(passes) == 1 and 2 * elapsed <= TRACED_RUN_LIMIT_S:
            continue
        return passes


def best_latencies(passes: list[list[dict]]) -> list[tuple[dict, float]]:
    """Each op of a pass with its fastest latency over the given passes.

    Other tenants of a shared machine slow single ops by up to two times for
    seconds at a time, so the fastest repeat is the steadiest estimate of an
    op's cost; a pass's cost is the sum over its ops.
    """
    return [(recs[0], min(r["s"] for r in recs)) for recs in zip(*passes)]


def workload_metrics(name: str, records: list[dict], untraced: list[dict],
                     best: list[tuple[dict, float]], gaps: list[float]) -> list[tuple]:
    """The metrics particular to one workload, as (name, value, unit).

    Latency distributions use every untraced op; rates use the fastest repeats.
    """
    failed = sum(bool(r["problems"]) for r in records)
    out = [("fail_frac", failed / len(records), "failed ops / attempted ops"),
           ("op_p50_ms", statistics.median(s for _, s in best) * 1e3, "ms (fastest repeat)")]
    if name == "leakage":
        out.append(("gap_bits", max(gaps) if gaps else float("nan"), "bits"))
    elif name == "certify":
        certify = [r["s"] * 1e3 for r in untraced if r["kind"].startswith("certify")]
        out.append(("certify_p50_ms", statistics.median(certify), "ms"))
        tail = checks.tail_percentile(certify)
        if tail:
            out.append(("certify_tail_ms", tail[1], f"ms (p{tail[0]} of {len(certify)} ops)"))
        calibrate = [r["s"] * 1e3 for r in untraced if r["kind"].startswith("calibrate")]
        out.append(("calibrate_p50_ms", statistics.median(calibrate), "ms"))
    elif name == "sweep":
        bounds = [(r, s) for r, s in best if r["points"]]
        sims = [(r, s) for r, s in best if r["rounds"]]
        out.append(("bounds_per_s", sum(r["points"] for r, _ in bounds) / sum(s for _, s in bounds),
                    "alpha points/s"))
        out.append(("sim_rounds_per_s", sum(r["rounds"] for r, _ in sims) / sum(s for _, s in sims),
                    "rounds/s"))
    return out


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        t0: float | None = None, out_dir: Path = OUT) -> dict:
    """One benchmark run; returns the result line, the printed metrics and the record.

    Set-up time is the time from ``t0`` (this module's start when run as a
    script) to the end of the imports, plus the median of SETUP_REPEATS
    generations of the workload's inputs.
    """
    start = time.perf_counter()
    imports_s = start - (start if t0 is None else t0)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"work-{os.getpid()}"
    try:
        builds = []
        for i in range(SETUP_REPEATS):
            t = time.perf_counter()
            ops, gaps = workloads.build(workload, seed, size, work / str(i))
            builds.append(time.perf_counter() - t)
        # Traced runs report spans as measured, so they run without the probe.
        tracer = spans.Tracer() if trace else None
        probe = None if trace else speed.SpeedProbe()
        with probe or contextlib.nullcontext():
            passes = run_passes(ops, seconds, tracer, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r for p in passes for r in p]
    failures = [r for r in records if r["problems"]]
    untraced = [p for p in passes if not p[0]["traced"]]
    best = best_latencies(untraced or passes)
    wall_s = sum(s for _, s in best)
    lines = workload_metrics(workload, records, [r for p in untraced for r in p], best, gaps)
    if trace:
        traced = [p for p in passes if p[0]["traced"]]
        per_layer = tracer.per_layer(len(traced))
        metrics = {m: {"value": per_layer[m], "unit": u} for m, u, _ in spans.PER_LAYER}
        traced_wall_s = sum(s for _, s in best_latencies(traced))
        overhead = traced_wall_s - wall_s if untraced else float("nan")
        lines.append(("trace_overhead_s", overhead, "s (traced minus untraced wall_s)"))
        lines.append(("traced_wall_s", traced_wall_s, "s"))
        tracer.save(out_dir / f"spans-{workload}-seed{seed}.npz")
    else:
        lines += [("wall_raw_s", wall_s, "s (as measured)"),
                  ("probe_kernel_ms", probe.median_s() * 1e3, f"ms ({len(probe.samples)} samples)")]
        values = {
            "setup_s": imports_s + statistics.median(builds),
            "wall_s": wall_s * probe.scale(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    lines = [(m, v["value"], v["unit"]) for m, v in metrics.items()] + lines

    result = {
        # Failures of ops with a documented program defect are counted in
        # `failed` but do not mark the run incorrect; any other failure does.
        "correct": all(r["known_defect"] for r in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload, "size": size, "seconds": seconds, "trace": trace,
        "environment": environment(seed), "passes": len(passes),
        "absent": tracer.absent if tracer else [],
        "metrics": {m: {"value": v, "unit": u} for m, v, u in lines},
        "failures": [{"kind": r["kind"], "problems": r["problems"],
                      "known_defect": r["known_defect"]} for r in failures],
        "ops": [{k: r[k] for k in ("kind", "s", "traced")} for r in records],
    }
    (out_dir / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return {"result": result, "lines": lines, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), t0=T0)
    env = out["record"]["environment"]
    print(f"# {args.workload} seed={args.seed} passes={out['record']['passes']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} blas_threads=1")
    for name in out["record"]["absent"]:
        print(f"# absent: {name} (its metrics read 0)")
    for failure in out["record"]["failures"]:
        tag = f" [known defect: {failure['known_defect']}]" if failure["known_defect"] else ""
        print(f"# failed {failure['kind']}: {'; '.join(failure['problems'])}{tag}")
    for name, value, unit in out["lines"]:
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
