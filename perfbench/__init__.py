"""End-to-end and per-layer benchmark of the sparsemfd experiment pipeline.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
prints one JSON line with the metrics named in ``BENCHMARK.json``. See
``perfbench/README.md`` for the workloads, the correctness gate and the
traced run.
"""
