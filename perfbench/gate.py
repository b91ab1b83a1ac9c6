"""Correctness gate: recompute what an experiment wrote, independently.

Everything here reads the input and output tables with the standard
library and numpy; nothing imports ``sparsemfd``. The gate checks

* the Edie truth and every uniform and hierarchical estimate, recomputed
  from the plan's retained readings (relative tolerance 1e-9);
* for kriged cells: observed links keep their observed value, each estimate
  is the length-weighted mean of its field, ``ttd_or_ttt`` is value times
  network length, and failed bins are exactly the bins without an estimate;
* optionally, kriged means, failed-link counts and the first failure message
  against a reference recorded from an earlier version of the package.

It also tallies the estimates produced and their squared errors against the
recomputed truth, from which the benchmark reports accuracy.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .workloads import INPUT_FILES, VARIABLES

REL_TOL = 1e-9
MIN_LENGTH_COVERAGE = 0.95  # the experiment's default VariogramSettings threshold
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _opt_float(text):
    return float(text) if text != "" else None


def digest_tree(root):
    """One digest over every file's relative path and bytes below ``root``."""
    outer = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as handle:
                inner = hashlib.sha256(handle.read()).hexdigest()
            outer.update(f"{rel}\0{inner}\n".encode())
    return outer.hexdigest()


@dataclass
class Inputs:
    """The written input tables, as arrays over links and bins."""

    link_ids: list
    lengths: np.ndarray
    hierarchy: np.ndarray
    site_link: dict  # detector id -> link index
    bins: list
    flow: np.ndarray  # (bins, links) detector mean per link, NaN where silent
    density: np.ndarray

    @property
    def total_length(self):
        return math.fsum(self.lengths)

    def values(self, variable):
        return self.flow if variable == "flow" else self.density

    def reporting(self, variable, b_pos, links):
        """The links among ``links`` with a reading in bin position ``b_pos``."""
        return links[np.isfinite(self.values(variable)[b_pos, links])]

    def truth(self, variable):
        """Edie truth per bin: length-weighted mean over every link."""
        return self.values(variable) @ self.lengths / self.total_length


def read_inputs(inputs_dir):
    network_path, sites_path, readings_path = (
        os.path.join(inputs_dir, name) for name in INPUT_FILES
    )
    links = _rows(network_path)
    link_ids = [r["link_id"] for r in links]
    index = {link_id: i for i, link_id in enumerate(link_ids)}
    site_link = {r["detector_id"]: index[r["link_id"]] for r in _rows(sites_path)}
    readings = _rows(readings_path)
    bins = sorted({int(r["bin_index"]) for r in readings})
    position = {b: i for i, b in enumerate(bins)}
    shape = (len(bins), len(link_ids))
    sums = {v: np.zeros(shape) for v in VARIABLES}
    counts = np.zeros(shape)
    for r in readings:
        cell = (position[int(r["bin_index"])], site_link[r["detector_id"]])
        sums["flow"][cell] += float(r["flow_veh_per_h"])
        sums["density"][cell] += float(r["density_veh_per_km"])
        counts[cell] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        flow, density = (np.where(counts > 0, sums[v] / counts, np.nan) for v in VARIABLES)
    return Inputs(
        link_ids=link_ids,
        lengths=np.array([float(r["length_km"]) for r in links]),
        hierarchy=np.array([int(r["hierarchy"]) for r in links]),
        site_link=site_link,
        bins=bins,
        flow=flow,
        density=density,
    )


@dataclass
class Report:
    errors: list = field(default_factory=list)
    produced: int = 0
    # (estimator, variable) -> [sum of squared errors, count]
    squared_errors: dict = field(default_factory=dict)

    def fail(self, message):
        self.errors.append(message)

    def rmse(self, estimator, variable):
        total, count = self.squared_errors.get((estimator, variable), (0.0, 0))
        return math.sqrt(total / count) if count else None


def cell_name(coverage, seed, estimator):
    return f"cov{coverage:g}_seed{seed}_{estimator}"


def _uniform(inputs, observed, values):
    lengths = inputs.lengths[observed]
    total = inputs.total_length
    mean = values.mean()
    rate = values @ lengths + mean * max(total - math.fsum(lengths), 0.0)
    return rate / total, rate, 1


def _hierarchical(inputs, observed, values):
    equipped = np.zeros(len(inputs.link_ids), dtype=bool)
    equipped[observed] = True
    full = np.zeros(len(inputs.link_ids))
    full[observed] = values
    rate = 0.0
    classes = sorted(set(inputs.hierarchy.tolist()))
    for h in classes:
        members = inputs.hierarchy == h
        eq = members & equipped
        rest = members & ~equipped
        if not eq.any():
            if rest.any():
                return None
            continue
        eq_rate = math.fsum(full[eq] * inputs.lengths[eq])
        rate += eq_rate * (1.0 + math.fsum(inputs.lengths[rest]) / math.fsum(inputs.lengths[eq]))
    total = inputs.total_length
    return rate / total, rate, len(classes)


_SCALED = {"uniform": _uniform, "hierarchical": _hierarchical}


def _check_plan(report, inputs, out_dir, coverage, seed):
    path = os.path.join(out_dir, "plans", f"cov{coverage:g}_seed{seed}.json")
    with open(path) as handle:
        plan = json.load(handle)
    retained = plan["retained_detectors"]
    links = sorted({inputs.site_link[d] for d in retained})
    sizes = {}
    for detector, link in inputs.site_link.items():
        h = int(inputs.hierarchy[link])
        sizes[h] = sizes.get(h, 0) + 1
    expected = {str(h): min(n, max(1, round(coverage * n))) for h, n in sizes.items()}
    kept = {}
    for d in retained:
        h = str(int(inputs.hierarchy[inputs.site_link[d]]))
        kept[h] = kept.get(h, 0) + 1
    if plan["per_hierarchy_counts"] != expected or kept != expected:
        report.fail(f"plan cov{coverage:g} seed {seed}: per-class counts {kept}, expected {expected}")
    return np.array(links, dtype=int)


def _estimates(out_dir, name, report):
    rows = {}
    for r in _rows(os.path.join(out_dir, "cells", name, "estimates.csv")):
        key = (int(r["bin_index"]), r["variable"])
        if key in rows:
            report.fail(f"{name}: duplicate estimate for bin {key[0]} {key[1]}")
        rows[key] = r
    return rows


def _field(out_dir, name):
    path = os.path.join(out_dir, "cells", name, "field.csv")
    if not os.path.exists(path):
        return {}
    out = {}
    for r in _rows(path):
        out.setdefault((int(r["bin_index"]), r["variable"]), []).append(r)
    return out


def _check_scaled_cell(report, inputs, name, estimator, observed, rows, truth):
    for b_pos, b in enumerate(inputs.bins):
        for variable in VARIABLES:
            links = inputs.reporting(variable, b_pos, observed)
            values = inputs.values(variable)[b_pos, links]
            expected = _SCALED[estimator](inputs, links, values) if links.size else None
            row = rows.get((b, variable))
            if expected is None:
                if row is not None:
                    report.fail(f"{name}: bin {b} {variable} estimated but not estimable")
                continue
            if row is None:
                report.fail(f"{name}: bin {b} {variable} missing")
                continue
            value, rate, classes = expected
            got = float(row["value"])
            if row["method"] != estimator or int(row["hierarchy_count"]) != classes:
                report.fail(f"{name}: bin {b} {variable} method/hierarchy_count mismatch")
            if not (close(got, value) and close(float(row["ttd_or_ttt"]), rate)):
                report.fail(f"{name}: bin {b} {variable} value {got!r}, recomputed {value!r}")
            _tally(report, estimator, variable, got, truth[variable][b_pos])


def _tally(report, estimator, variable, estimate, truth):
    report.produced += 1
    acc = report.squared_errors.setdefault((estimator, variable), [0.0, 0])
    acc[0] += (estimate - truth) ** 2
    acc[1] += 1


def _check_kriged_cell(report, inputs, name, observed, rows, fields, failed_bins, truth):
    index = {link_id: i for i, link_id in enumerate(inputs.link_ids)}
    total = inputs.total_length
    estimated_bins = set()
    for (b, variable), row in sorted(rows.items()):
        b_pos = inputs.bins.index(b)
        field_rows = fields.get((b, variable))
        got = float(row["value"])
        if row["method"] != "variogram":
            report.fail(f"{name}: bin {b} {variable} method {row['method']}")
        if not field_rows or len(field_rows) != len(inputs.link_ids):
            report.fail(f"{name}: bin {b} {variable} has no complete field")
            continue
        observed_links = set()
        weighted = covered = 0.0
        for r in field_rows:
            i = index[r["link_id"]]
            value = _opt_float(r["value"])
            if r["provenance"] == "observed":
                observed_links.add(i)
                if value is None or not close(value, inputs.values(variable)[b_pos, i]):
                    report.fail(f"{name}: bin {b} {variable} observed link {r['link_id']} changed")
                    continue
            elif r["provenance"] == "imputed":
                if value is None or not math.isfinite(value):
                    report.fail(f"{name}: bin {b} {variable} imputed link {r['link_id']} empty")
                    continue
            elif r["provenance"] == "failed":
                if value is not None:
                    report.fail(f"{name}: bin {b} {variable} failed link {r['link_id']} has a value")
                continue
            else:
                report.fail(f"{name}: unknown provenance {r['provenance']!r}")
                continue
            weighted += value * inputs.lengths[i]
            covered += inputs.lengths[i]
        if observed_links != set(inputs.reporting(variable, b_pos, observed).tolist()):
            report.fail(f"{name}: bin {b} {variable} observed links differ from the plan")
        if covered < MIN_LENGTH_COVERAGE * total - 1e-9:
            report.fail(f"{name}: bin {b} {variable} estimated from {covered / total:.3f} of the length")
        if not close(got, weighted / covered) or not close(float(row["ttd_or_ttt"]), got * total):
            report.fail(f"{name}: bin {b} {variable} value {got!r} is not its field's mean")
        estimated_bins.add((b, variable))
        _tally(report, "variogram", variable, got, truth[variable][b_pos])
    stray = set(fields) - estimated_bins
    if stray:
        report.fail(f"{name}: field written for bins without an estimate: {sorted(stray)[:4]}")
    missing = {b for b in inputs.bins for v in VARIABLES if (b, v) not in estimated_bins}
    if missing != set(failed_bins):
        report.fail(f"{name}: failed bins {sorted(failed_bins)} but missing {sorted(missing)}")


def kriged_reference(out_dir, inputs, workload, seed):
    """Kriged means, failed-link counts and first failure message per cell."""
    manifest = _manifest(out_dir)
    out = {}
    for coverage in workload.coverages:
        for s in workload.coverage_seed_list(seed):
            name = cell_name(coverage, s, "variogram")
            fields = _field(out_dir, name)
            rows = _estimates(out_dir, name, Report())
            entries = {}
            for b in inputs.bins:
                for variable in VARIABLES:
                    row = rows.get((b, variable))
                    field_rows = fields.get((b, variable))
                    failed = (
                        sum(r["provenance"] == "failed" for r in field_rows)
                        if field_rows else None
                    )
                    entries[f"{b}/{variable}"] = [
                        float(row["value"]) if row else None, failed
                    ]
            out[name] = {"message": manifest[name]["message"], "bins": entries}
    return out


def load_reference(workload_name):
    path = os.path.join(REFERENCE_DIR, f"{workload_name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _compare_reference(report, got, expected):
    for name, cell in expected.items():
        mine = got.get(name)
        if mine is None:
            report.fail(f"{name}: missing, the reference has it")
            continue
        if mine["message"] != cell["message"]:
            report.fail(f"{name}: message {mine['message']!r}, reference {cell['message']!r}")
        for key, (value, failed) in cell["bins"].items():
            m_value, m_failed = mine["bins"][key]
            same_value = (value is None) == (m_value is None) and (
                value is None or close(m_value, value)
            )
            if not same_value or m_failed != failed:
                report.fail(
                    f"{name}: bin {key} gives ({m_value!r}, {m_failed}), "
                    f"reference ({value!r}, {failed})"
                )


def _manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as handle:
        manifest = json.load(handle)
    return {cell["path"].split("/", 1)[1]: cell for cell in manifest["cells"]}


def check_outputs(workload, seed, inputs, out_dir, reference=None):
    """Run every check on one output tree; ``reference`` is one seed's entry."""
    report = Report()
    truth = {v: inputs.truth(v) for v in VARIABLES}
    actual = _rows(os.path.join(out_dir, "mfd_actual.csv"))
    if [int(r["bin_index"]) for r in actual] != inputs.bins:
        report.fail("mfd_actual: does not list every bin once, in order")
    for b_pos, r in enumerate(actual[: len(inputs.bins)]):
        if not (
            close(float(r["flow_veh_per_h"]), truth["flow"][b_pos])
            and close(float(r["density_veh_per_km"]), truth["density"][b_pos])
        ):
            report.fail(f"mfd_actual: bin {r['bin_index']} differs from the Edie truth")
    manifest = _manifest(out_dir)
    for coverage in workload.coverages:
        for s in workload.coverage_seed_list(seed):
            observed = _check_plan(report, inputs, out_dir, coverage, s)
            for estimator in workload.estimators:
                name = cell_name(coverage, s, estimator)
                entry = manifest.get(name)
                if entry is None:
                    report.fail(f"{name}: missing from the manifest")
                    continue
                rows = _estimates(out_dir, name, report)
                failed_bins = entry["failed_bins"]
                status = "not-estimable" if failed_bins else "ok"
                if entry["status"] != status:
                    report.fail(f"{name}: status {entry['status']}, expected {status}")
                if estimator == "variogram":
                    _check_kriged_cell(
                        report, inputs, name, observed, rows,
                        _field(out_dir, name), failed_bins, truth,
                    )
                else:
                    _check_scaled_cell(report, inputs, name, estimator, observed, rows, truth)
    if reference is not None:
        _compare_reference(report, kriged_reference(out_dir, inputs, workload, seed), reference)
    return report
