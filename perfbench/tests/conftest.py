"""A tiny workload, generated and run once for all benchmark tests."""
import pytest

from perfbench.workloads import Workload, experiment_config, write_inputs

TINY = Workload(
    name="tiny",
    why="test-sized grid with every estimator",
    grid=5,
    coverages=(0.8, 0.3),
    coverage_seeds=1,
    estimators=("uniform", "hierarchical", "variogram"),
    fixed_model=True,
)


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    from sparsemfd.experiment import run_experiment

    root = tmp_path_factory.mktemp("tiny")
    inputs = write_inputs(TINY, 3, str(root / "inputs"))
    out = str(root / "out")
    run_experiment(experiment_config(TINY, 3, inputs), output_dir=out)
    return TINY, 3, inputs, out
