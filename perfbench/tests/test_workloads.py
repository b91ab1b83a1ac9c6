"""Workload inputs are a pure function of the seed; the record matches the specs."""
import json
import os

from perfbench import gate
from perfbench.record import per_layer_names
from perfbench.workloads import WORKLOADS, write_inputs

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)


def test_inputs_are_deterministic_per_seed(tiny_run, tmp_path):
    workload, seed, inputs, _ = tiny_run
    again = write_inputs(workload, seed, str(tmp_path / "again"))
    other = write_inputs(workload, seed + 1, str(tmp_path / "other"))
    assert gate.digest_tree(again) == gate.digest_tree(inputs)
    assert gate.digest_tree(other) != gate.digest_tree(inputs)
    # only the readings depend on the seed; the city is the same
    for name in ("network.csv", "sites.csv"):
        with open(os.path.join(inputs, name)) as a, open(os.path.join(other, name)) as b:
            assert a.read() == b.read()


def test_written_inputs_match_the_declared_sizes(tiny_run):
    workload, _, inputs, _ = tiny_run
    read = gate.read_inputs(inputs)
    assert len(read.link_ids) == len(read.site_link) == workload.links
    assert len(read.bins) == workload.bins


def test_record_matches_the_workload_specs():
    with open(os.path.join(HERE, "workloads.json")) as handle:
        record = json.load(handle)
    assert sorted(record["workloads"]) == sorted(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert record["workloads"][name]["why"] == workload.why
        assert record["workloads"][name]["sizes"] == workload.sizes()
    listed = [n for layer in record["per_layer"].values() for n in layer["metrics"]]
    assert sorted(listed) == sorted(per_layer_names())


def test_benchmark_json_lists_every_workload_and_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()
    }
    assert [m["name"] for m in bench["per_layer"]] == per_layer_names()
