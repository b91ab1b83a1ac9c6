"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload grid16-fixed --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. Every
set-up and every experiment runs in a fresh child interpreter with BLAS and
OpenMP pools pinned to one thread. With ``--trace 0`` the output carries the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the per-layer
metrics of a separate traced run (its spans go to ``.perfbench/``).
Every run passes through the correctness gate, the variogram fit audit
(on workloads that fit) and the rerun-determinism check; a failure there
reports ``"correct": false``. A missing package or a
set-up that fails exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(SINGLE_THREAD)  # before numpy is imported by the gate
sys.path.insert(0, ROOT)

from perfbench import fitaudit, gate  # noqa: E402
from perfbench.tracer import COUNTERS, FUNCTION_FIELDS, TARGETS, span_name  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # the whole run, children included
WORK_DIR = os.path.join(ROOT, ".perfbench")
RMSE_UNITS = {"flow": "veh/h", "density": "veh/km"}


class SetupError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _child(args, deadline):
    """Run a worker child to completion; its last stdout line is returned."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SetupError("time limit reached before a child could start")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SetupError(f"child {args[0]} exceeded the time limit")
    if done.returncode != 0:
        raise SetupError(f"child {args[0]} failed:\n{done.stderr[-4000:]}")
    lines = done.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def _setups(workload, seed, work, repeats, deadline):
    times, dirs = [], []
    for i in range(repeats):
        inputs = os.path.join(work, f"inputs{i}")
        t0 = time.perf_counter()
        _child(["setup", "--workload", workload.name, "--seed", str(seed),
                "--inputs", inputs], deadline)
        times.append(time.perf_counter() - t0)
        dirs.append(inputs)
    return times, dirs


def _e2e_metrics(workload, setup_times, worker, report):
    return {
        "experiment_s": (statistics.median(worker["times"]), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (worker["rss_kb"] / 1024.0, "MB"),
        "success_ratio": (report.produced / workload.attempts, "share"),
    }


def _accuracy_note(workload, report):
    """RMSE of every estimator against the Edie truth, for the log only: at
    the sizes a run can afford they vary too much across seeds to bound."""
    parts = [
        f"{variable} {estimator} {report.rmse(estimator, variable):.6g} {unit}"
        for estimator in workload.estimators
        for variable, unit in RMSE_UNITS.items()
        if report.rmse(estimator, variable) is not None
    ]
    return "perfbench: rmse " + ", ".join(parts)


def _layer_metrics(trace, untraced_s):
    metrics = {}
    for module, qualname in TARGETS:
        name = span_name(module, qualname)
        stats = trace["functions"].get(name)
        if stats is None:
            continue  # absent target: listed in the trace file, never reported as zero
        for f in FUNCTION_FIELDS:
            metrics[f"{name}.{f}"] = (stats[f], "s" if f == "self_s" else "count")
    for counter, unit in COUNTERS.items():
        metrics[counter] = (trace["counters"][counter], unit)
    metrics["trace.overhead_s"] = (trace["wall_s"] - untraced_s, "s")
    metrics["trace.experiment_s"] = (trace["experiment_s"], "s")
    metrics["trace.setup_s"] = (trace["setup_s"], "s")
    metrics["trace.unattributed_s"] = (trace["unattributed_s"], "s")
    metrics["trace.hook_s"] = (trace["hook_s"], "s")
    return metrics


def _trace_identity_error(trace):
    """Self times of all spans must add up to the two root spans."""
    total = (
        sum(s["self_s"] for s in trace["functions"].values())
        + trace["unattributed_s"] + trace["hook_s"]
    )
    roots = trace["setup_s"] + trace["experiment_s"]
    if abs(total - roots) > 1e-6 * max(roots, 1.0):
        return f"trace: self times sum to {total:.6f} s, root spans to {roots:.6f} s"
    return None


def run(workload, seed, seconds, trace):
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    work = os.path.join(WORK_DIR, f"{workload.name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_times, inputs_dirs = _setups(
            workload, seed, work, 1 if trace else SETUP_REPEATS, deadline
        )
        trace_path = os.path.join(WORK_DIR, f"trace-{workload.name}.json")
        # the timed loop stops in time to leave room for the gate, the fit
        # audit's experiment and, with tracing, for one more set-up and one
        # slower experiment
        shares = 1 + (1 if workload.refits else 0) + (2 if trace else 0)
        budget = (deadline - time.monotonic() - 20.0) / shares
        line = _child(
            ["run", "--workload", workload.name, "--seed", str(seed),
             "--inputs", inputs_dirs[0], "--out", os.path.join(work, "out"),
             "--seconds", str(seconds), "--budget", str(budget),
             "--trace", str(trace), "--trace-path", trace_path],
            deadline,
        )
        try:
            worker = json.loads(line)
        except ValueError:
            raise SetupError(f"worker printed no result: {line[-200:]!r}")
        return _evaluate(workload, seed, setup_times, inputs_dirs, worker, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _rounded(values):
    return [round(v, 3) for v in values]


def _evaluate(workload, seed, setup_times, inputs_dirs, worker, trace):
    errors = []
    if len({gate.digest_tree(d) for d in inputs_dirs}) != 1:
        errors.append("set-ups wrote different inputs")
    inputs = gate.read_inputs(inputs_dirs[0])
    trees = list(worker["trees"])
    if worker["error"]:
        errors.append(f"worker raised:\n{worker['error']}")
    elif workload.refits:
        errors.extend(fitaudit.check_fits(worker["fits"], workload.fits))
    if worker["trace"]:
        trees.append(worker["trace"]["tree"])
        identity = _trace_identity_error(worker["trace"])
        if identity:
            errors.append(identity)
    report = gate.Report()
    if trees:
        reference = gate.load_reference(workload.name)
        seed_reference = (reference or {}).get("seeds", {}).get(str(seed))
        if reference is not None and seed_reference is None:
            print(f"note: no recorded kriging reference for seed {seed}", file=sys.stderr)
        try:
            report = gate.check_outputs(workload, seed, inputs, trees[0], seed_reference)
        except (OSError, KeyError, ValueError) as exc:
            report = gate.Report(errors=[f"outputs unreadable: {exc!r}"])
        errors.extend(report.errors)
        digests = [gate.digest_tree(t) for t in trees]
        if len(set(digests)) != 1:
            errors.append(f"reruns wrote different output trees: {digests}")
    runs = len(worker["times"])
    if trace:
        metrics = (
            _layer_metrics(worker["trace"], statistics.median(worker["times"]))
            if worker["trace"] else {}
        )
    elif runs and not worker["error"]:
        metrics = _e2e_metrics(workload, setup_times, worker, report)
    else:
        metrics = {}
    missing = [name for name, (value, _) in metrics.items() if value is None]
    if missing:
        errors.append(f"no estimate to measure {', '.join(missing)}")
    correct = not errors and runs >= 2
    print(
        f"perfbench: set-ups {_rounded(setup_times)} s, experiments "
        f"{_rounded(worker['times'])} s",
        file=sys.stderr,
    )
    if report.produced:
        print(_accuracy_note(workload, report), file=sys.stderr)
    for message in errors[:20]:
        print(f"gate: {message}", file=sys.stderr)
    if not correct:
        # a wrong run counts every attempt as failed
        metrics = {
            name: (0.0 if value is None or name == "success_ratio" else value, unit)
            for name, (value, unit) in metrics.items()
        }
    attempted = workload.attempts * max(runs, 1)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sparsemfd", "__init__.py")):
        print("perfbench: src/sparsemfd not found; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
