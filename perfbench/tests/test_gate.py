"""The correctness gate accepts a clean run and rejects single perturbations."""
import csv
import os
import shutil

import pytest

from perfbench import gate


def _copy(tiny_run, tmp_path):
    workload, seed, inputs, out = tiny_run
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    return workload, seed, gate.read_inputs(inputs), copy


def _perturb_estimate(tree, cell, relative):
    path = os.path.join(tree, "cells", cell, "estimates.csv")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[5][3] = repr(float(rows[5][3]) * (1.0 + relative))
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_clean_run_passes_and_tallies_accuracy(tiny_run):
    workload, seed, inputs, out = tiny_run
    report = gate.check_outputs(workload, seed, gate.read_inputs(inputs), out)
    assert report.errors == []
    # the 0.3 kriged cell is not estimable: every other estimate is produced
    assert report.produced == workload.attempts - 2 * 24
    assert report.rmse("hierarchical", "flow") > 0
    assert report.rmse("variogram", "density") > 0


@pytest.mark.parametrize(
    "cell", ["cov0.8_seed3_uniform", "cov0.3_seed3_hierarchical", "cov0.8_seed3_variogram"]
)
def test_a_single_perturbed_estimate_is_rejected(tiny_run, tmp_path, cell):
    workload, seed, inputs, tree = _copy(tiny_run, tmp_path)
    _perturb_estimate(tree, cell, 1e-7)
    errors = gate.check_outputs(workload, seed, inputs, tree).errors
    assert len(errors) == 1 and errors[0].startswith(cell)


def test_a_changed_observed_link_in_a_field_is_rejected(tiny_run, tmp_path):
    workload, seed, inputs, tree = _copy(tiny_run, tmp_path)
    path = os.path.join(tree, "cells", "cov0.8_seed3_variogram", "field.csv")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    row = next(r for r in rows[1:] if r[4] == "observed")
    row[3] = repr(float(row[3]) + 1.0)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    errors = gate.check_outputs(workload, seed, inputs, tree).errors
    assert any("observed link" in e for e in errors)


def test_a_perturbed_output_byte_changes_the_tree_digest(tiny_run, tmp_path):
    _, _, _, out = tiny_run
    _, _, _, tree = _copy(tiny_run, tmp_path)
    assert gate.digest_tree(tree) == gate.digest_tree(out)
    path = os.path.join(tree, "cells", "cov0.3_seed3_uniform", "mfd_fit.csv")
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[-2] ^= 1
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    assert gate.digest_tree(tree) != gate.digest_tree(out)


def test_kriged_reference_round_trip_and_mismatch(tiny_run):
    workload, seed, inputs_dir, out = tiny_run
    inputs = gate.read_inputs(inputs_dir)
    reference = gate.kriged_reference(out, inputs, workload, seed)
    assert gate.check_outputs(workload, seed, inputs, out, reference).errors == []

    cell = reference["cov0.8_seed3_variogram"]["bins"]
    value, failed = cell["2/flow"]
    cell["2/flow"] = [value * (1 + 1e-8), failed]
    errors = gate.check_outputs(workload, seed, inputs, out, reference).errors
    assert len(errors) == 1 and "bin 2/flow" in errors[0]

    cell["2/flow"] = [value, failed + 1]
    assert len(gate.check_outputs(workload, seed, inputs, out, reference).errors) == 1
