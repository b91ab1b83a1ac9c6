"""Workload definitions and input generation.

A workload is a synthetic city plus an experiment grid. The workload seed
``s`` seeds the scenario and, unless the workload fixes its detector layout,
the first coverage draw; the benchmark writes
the scenario as the three tables a city with real detectors would have
(network, sites, readings) and times ``run_experiment`` in recorded-data
mode on them. Only the functions that build inputs or configs import
``sparsemfd``, so the parent process and the correctness gate stay
independent of the package under test.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

INPUT_FILES = ("network.csv", "sites.csv", "readings.csv")
VARIABLES = ("flow", "density")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: int
    coverages: tuple
    coverage_seeds: int
    estimators: tuple
    fixed_model: bool
    bins: int = 24
    layout_seed: int | None = None  # fixed first coverage seed; None follows ``s``

    @property
    def links(self):
        return 2 * self.grid * (self.grid - 1)

    @property
    def plans(self):
        return len(self.coverages) * self.coverage_seeds

    @property
    def cells(self):
        return self.plans * len(self.estimators)

    @property
    def refits(self):
        """Whether the experiment fits a variogram: once per (plan, bin, variable)."""
        return "variogram" in self.estimators and not self.fixed_model

    @property
    def fits(self):
        return self.plans * self.bins * len(VARIABLES) if self.refits else 0

    @property
    def attempts(self):
        """Estimate attempts of one experiment: one per (cell, bin, variable)."""
        return self.cells * self.bins * len(VARIABLES)

    def coverage_seed_list(self, seed):
        first = seed if self.layout_seed is None else self.layout_seed
        return tuple(range(first, first + self.coverage_seeds))

    def sizes(self):
        return {
            "grid": f"{self.grid}x{self.grid}",
            "links": self.links,
            "sites": self.links,
            "bins": self.bins,
            "plans": self.plans,
            "cells": self.cells,
            "estimate_attempts": self.attempts,
            "variogram_fits": self.fits,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid10-refit",
            why=(
                "10x10 city, fixed 0.8 detector layout: a variogram refit per "
                "bin and variable kriges the other links; the fit dominates"
            ),
            grid=10,
            coverages=(0.8,),
            coverage_seeds=1,
            estimators=("uniform", "hierarchical", "variogram"),
            fixed_model=False,
            layout_seed=0,
        ),
        Workload(
            name="grid16-fixed",
            why=(
                "16x16 city kriged with the generating variogram: distances and "
                "kriging solves dominate, no fit; 0.7 estimable, 0.4 not"
            ),
            grid=16,
            coverages=(0.7, 0.4),
            coverage_seeds=1,
            estimators=("uniform", "hierarchical", "variogram"),
            fixed_model=True,
        ),
        Workload(
            name="grid16-scaling",
            why=(
                "16x16 city, 40 coverage plans, scaling estimators only: readings, "
                "aggregation, scaling and table writes, no distances or kriging"
            ),
            grid=16,
            coverages=(0.5, 0.3, 0.2, 0.1, 0.05),
            coverage_seeds=8,
            estimators=("uniform", "hierarchical"),
            fixed_model=False,
        ),
    )
}


def scenario_for(workload, seed):
    """The CLI's default scenario on the workload's grid, with ``sparsemfd
    --bins`` semantics: the default 24-hour profile resampled to ``bins``."""
    import numpy as np
    from sparsemfd.synth import DEFAULT_DIURNAL, SyntheticScenario

    hours = len(DEFAULT_DIURNAL)
    diurnal = tuple(
        float(v)
        for v in np.interp(np.linspace(0, hours - 1, workload.bins), np.arange(hours), DEFAULT_DIURNAL)
    )
    return SyntheticScenario(rows=workload.grid, cols=workload.grid, diurnal=diurnal, seed=seed)


def write_inputs(workload, seed, out_dir):
    """Generate the workload's scenario and write its three input tables."""
    from sparsemfd.network import NETWORK_COLUMNS
    from sparsemfd.sensing import write_readings
    from sparsemfd.synth import generate_scenario
    from sparsemfd.tableio import write_table

    data = generate_scenario(scenario_for(workload, seed))
    os.makedirs(out_dir, exist_ok=True)
    network_path, sites_path, readings_path = (
        os.path.join(out_dir, name) for name in INPUT_FILES
    )
    write_table(
        network_path,
        NETWORK_COLUMNS,
        [(l.id, l.from_node, l.to_node, l.length_km, l.hierarchy) for l in data.network.links],
    )
    write_table(
        sites_path,
        ("detector_id", "link_id", "offset_fraction"),
        [(s.detector_id, s.link_id, s.offset_fraction) for s in data.sites],
    )
    write_readings(readings_path, data.readings)
    return out_dir


def experiment_config(workload, seed, inputs_dir):
    """The recorded-data experiment the benchmark times."""
    from sparsemfd.experiment import ExperimentConfig, VariogramSettings
    from sparsemfd.synth import DEFAULT_VARIOGRAM

    settings = (
        VariogramSettings(fixed_model=DEFAULT_VARIOGRAM)
        if workload.fixed_model
        else VariogramSettings()
    )
    network_path, sites_path, readings_path = (
        os.path.join(inputs_dir, name) for name in INPUT_FILES
    )
    return ExperimentConfig(
        coverages=workload.coverages,
        seeds=workload.coverage_seed_list(seed),
        estimators=workload.estimators,
        network_path=network_path,
        sites_path=sites_path,
        readings_path=readings_path,
        variogram=settings,
    )
