"""Write the benchmark's recorded files.

    PYTHONPATH=src python3 -m perfbench.record workloads
    PYTHONPATH=src python3 -m perfbench.record reference --seeds 0-99

``workloads`` writes ``perfbench/workloads.json``: each workload's reason,
problem sizes and the environment it was measured in, and for each layer
its per-layer metrics, which of them are computed rather than measured,
and the end-to-end metrics and workloads they should move.

``reference`` runs the kriged cells of ``grid16-fixed`` for each seed and
writes their means, failed-link counts and first failure messages to
``perfbench/reference/grid16-fixed.json``. Record it only from a version
whose kriging output is known good: the gate holds every later version to it.
Run both single-threaded (``OMP_NUM_THREADS=1`` and friends).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import tempfile

from . import gate
from .tracer import COUNTERS, FUNCTION_FIELDS, TARGETS, span_name
from .workloads import WORKLOADS, experiment_config, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_WORKLOAD = "grid16-fixed"

# layer -> end-to-end (metric, workload) pairs its per-layer metrics should move
LAYER_TARGETS = {
    "variogram": [
        ("experiment_s", "grid10-refit"), ("success_ratio", "grid10-refit"),
    ],  # and the fit audit of grid10-refit must keep passing
    "network": [
        ("experiment_s", "grid16-fixed"),
        ("setup_s", "grid16-fixed"), ("setup_s", "grid16-scaling"),
    ],
    "synth": [("setup_s", "grid16-fixed"), ("setup_s", "grid16-scaling")],
    "kriging": [
        ("experiment_s", "grid16-fixed"),
        ("success_ratio", "grid16-fixed"), ("success_ratio", "grid10-refit"),
    ],
    "sensing": [("experiment_s", "grid16-scaling")],
    "scaling": [("experiment_s", "grid16-scaling")],
    "tableio": [
        ("experiment_s", "grid16-fixed"), ("experiment_s", "grid16-scaling"),
        ("setup_s", "grid16-fixed"), ("setup_s", "grid16-scaling"),
    ],
    "mfd": [("experiment_s", "grid16-scaling")],
    "metrics": [("experiment_s", "grid16-scaling")],
    "experiment": [("experiment_s", "grid16-scaling")],
    "trace": [],
}


def per_layer_names():
    """Every per-layer metric, in the order the benchmark reports them."""
    names = [
        f"{span_name(m, q)}.{f}" for m, q in TARGETS for f in FUNCTION_FIELDS
    ]
    names += list(COUNTERS)
    names += [
        "trace.overhead_s", "trace.experiment_s", "trace.setup_s",
        "trace.unattributed_s", "trace.hook_s",
    ]
    return names


def workload_record():
    import networkx
    import numpy
    import scipy

    names = per_layer_names()
    return {
        "workloads": {
            w.name: {
                "why": w.why,
                "sizes": w.sizes(),
                "config": {
                    "coverages": list(w.coverages),
                    "coverage_seeds": (
                        "s .. s+%d" % (w.coverage_seeds - 1)
                        if w.layout_seed is None
                        else list(w.coverage_seed_list(0))
                    ),
                    "estimators": list(w.estimators),
                    "variogram": "fixed generating model" if w.fixed_model else "refit per bin",
                },
            }
            for w in WORKLOADS.values()
        },
        "environment": {
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "networkx": networkx.__version__,
        },
        "per_layer": {
            layer: {
                "metrics": [n for n in names if n.split(".", 1)[0] == layer],
                "computed": [n for n in COUNTERS if n.split(".", 1)[0] == layer],
                "should_move": [{"metric": m, "workload": w} for m, w in targets],
            }
            for layer, targets in LAYER_TARGETS.items()
        },
    }


def record_reference(seeds):
    from sparsemfd.experiment import run_experiment

    workload = dataclasses.replace(WORKLOADS[REFERENCE_WORKLOAD], estimators=("variogram",))
    path = os.path.join(gate.REFERENCE_DIR, f"{REFERENCE_WORKLOAD}.json")
    recorded = gate.load_reference(REFERENCE_WORKLOAD) or {"workload": REFERENCE_WORKLOAD, "seeds": {}}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as scratch:
            inputs = write_inputs(workload, seed, os.path.join(scratch, "inputs"))
            out = os.path.join(scratch, "out")
            run_experiment(experiment_config(workload, seed, inputs), output_dir=out)
            recorded["seeds"][str(seed)] = gate.kriged_reference(
                out, gate.read_inputs(inputs), workload, seed
            )
        print(f"seed {seed} recorded", file=sys.stderr)
        with open(path, "w") as handle:
            json.dump(recorded, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")


def _seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.record")
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("workloads")
    reference = sub.add_parser("reference")
    reference.add_argument("--seeds", type=_seed_range, default=_seed_range("0-99"))
    args = parser.parse_args(argv)
    if args.what == "workloads":
        with open(os.path.join(HERE, "workloads.json"), "w") as handle:
            json.dump(workload_record(), handle, indent=1)
            handle.write("\n")
    else:
        record_reference(args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
