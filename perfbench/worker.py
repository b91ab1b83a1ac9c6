"""Child process of the benchmark: one fresh, single-threaded interpreter.

``setup`` generates a workload's inputs and exits, so its wall time from the
parent is the set-up cost a user pays: interpreter start, ``import
sparsemfd``, scenario generation and the three table writes.

``run`` times ``run_experiment`` on those inputs, at least twice and until
the requested seconds are spent, each time into a fresh output directory,
and reports its own peak RSS. On a workload that fits variograms it then
runs the experiment once more, untimed, recording every fit for the fit
audit. With ``--trace 1`` it then installs the tracer, sets up once more
and runs the experiment once more under it.
The last line of standard output is a JSON object for the parent.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from .workloads import WORKLOADS, experiment_config, write_inputs

MIN_RUNS = 2
MAX_RUNS = 50


def _run_loop(config, out_dir, seconds, budget):
    import sparsemfd.experiment as experiment

    started = time.perf_counter()
    times, trees = [], []
    while len(times) < MAX_RUNS:
        if len(times) >= MIN_RUNS:
            spent = time.perf_counter() - started
            if sum(times) >= seconds or spent + statistics.median(times) > budget:
                break
        tree = os.path.join(out_dir, f"run{len(times)}")
        t0 = time.perf_counter()
        experiment.run_experiment(config, output_dir=tree)
        times.append(time.perf_counter() - t0)
        trees.append(tree)
    return times, trees


def _audited(config, out_dir):
    """One more experiment, untimed, with every variogram fit recorded."""
    import sparsemfd.experiment as experiment

    from .fitaudit import record_fits

    records = []
    installation = record_fits(records)
    tree = os.path.join(out_dir, "audited")
    try:
        experiment.run_experiment(config, output_dir=tree)
    finally:
        installation.restore()
    return records, tree


def _traced(workload, seed, config, out_dir, trace_path):
    import sparsemfd.experiment as experiment

    from .tracer import HOOK_SPAN, TARGETS, Tracer, install, span_name

    tracer = Tracer()
    installation = install(tracer)
    try:
        with tracer.span("perfbench.setup"):
            write_inputs(workload, seed, os.path.join(out_dir, "traced-inputs"))
        tree = os.path.join(out_dir, "traced")
        t0 = time.perf_counter()
        experiment.run_experiment(config, output_dir=tree)
        wall = time.perf_counter() - t0
    finally:
        installation.restore()

    names = [span_name(m, q) for m, q in TARGETS if span_name(m, q) in installation.installed]
    stats = tracer.summary(names + ["perfbench.setup", HOOK_SPAN])
    glue = stats.pop("perfbench.setup")["self_s"]
    hooks = stats.pop(HOOK_SPAN)["self_s"]
    tracer.dump(trace_path, {"workload": workload.name, "seed": seed, "absent": installation.absent})
    return {
        "tree": tree,
        "wall_s": wall,
        "functions": stats,
        "absent": installation.absent,
        "counters": tracer.counter_values(),
        "setup_s": tracer.root_duration("perfbench.setup"),
        "experiment_s": tracer.root_duration("experiment.run_experiment"),
        "unattributed_s": glue,
        "hook_s": hooks,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--budget", type=float, default=120.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-path")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.mode == "setup":
        write_inputs(workload, args.seed, args.inputs)
        return 0

    started = time.perf_counter()
    config = experiment_config(workload, args.seed, args.inputs)
    result = {"times": [], "trees": [], "error": None, "trace": None, "fits": None}
    try:
        result["times"], result["trees"] = _run_loop(
            config, args.out, args.seconds, args.budget
        )
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if workload.refits:
            result["fits"], audit_tree = _audited(config, args.out)
            result["trees"].append(audit_tree)
        if args.trace:
            result["trace"] = _traced(
                workload, args.seed, config, args.out, args.trace_path
            )
    except Exception:
        result["error"] = traceback.format_exc()
    result["elapsed_s"] = time.perf_counter() - started
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
