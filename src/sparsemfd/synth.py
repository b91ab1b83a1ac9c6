"""Synthetic ground truth: grid networks and spatially correlated traffic.

The default scenario is a three-class city grid: a few central arterials
with heavy flows, a belt of collector streets, and many short local streets
with light traffic. Every link carries a midpoint detector, so the full
observation set is an exact ground truth that coverage experiments can
subsample. Link values are a class mean shaped over the day, plus a
spatially correlated residual drawn from the scenario's variogram model.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, ValidationError
from .network import DetectorSite, Link, Network, site_distance_matrix
from .sensing import Readings
from .tableio import record
from .variogram import VariogramModel, gamma

# hour-of-day factors with a morning and an evening peak
DEFAULT_DIURNAL = (
    0.25, 0.18, 0.15, 0.15, 0.20, 0.35,
    0.60, 0.90, 1.00, 0.85, 0.75, 0.72,
    0.70, 0.72, 0.75, 0.80, 0.95, 1.00,
    0.90, 0.70, 0.55, 0.45, 0.35, 0.30,
)

# The exponential shape stays positive definite over this grid's network
# metric; the spherical one does not for ranges past ~1 km.
DEFAULT_VARIOGRAM = VariogramModel(
    kind="exponential", nugget=25.0, sill=1600.0, range_km=1.0
)


def _band_class(index, count):
    """Class of a row or column by distance from the grid center: 1 inner,
    2 middle, 3 outer."""
    half = (count - 1) / 2.0
    relative = abs(index - half) / half if half > 0 else 1.0
    if relative <= 0.25:
        return 1
    if relative <= 0.70:
        return 2
    return 3


def grid_network(rows, cols, edge_lengths_km=(0.65, 0.625, 0.235)):
    """Rectangular grid whose street class depends on the row or column.

    Horizontal links take the class of their row, vertical links the class
    of their column; the link length is the class entry of
    ``edge_lengths_km``, so arterials are longer between intersections than
    local streets.
    """
    if rows < 2 or cols < 2:
        raise ValidationError(f"grid needs at least 2x2 nodes, got {rows}x{cols}")
    if len(edge_lengths_km) != 3:
        raise ValidationError("edge_lengths_km needs one entry per class (three)")
    links = []
    for r in range(rows):
        hierarchy = _band_class(r, rows)
        length = edge_lengths_km[hierarchy - 1]
        for c in range(cols - 1):
            links.append(
                Link(f"h{r}_{c}", f"n{r}_{c}", f"n{r}_{c + 1}", length, hierarchy)
            )
    for c in range(cols):
        hierarchy = _band_class(c, cols)
        length = edge_lengths_km[hierarchy - 1]
        for r in range(rows - 1):
            links.append(
                Link(f"v{r}_{c}", f"n{r}_{c}", f"n{r + 1}_{c}", length, hierarchy)
            )
    return Network(links)


@dataclass(frozen=True)
class SyntheticScenario:
    """Parameters of a synthetic ground truth.

    Class means must be strictly decreasing: class 1 is the heaviest. The
    residual field follows ``variogram`` (as a covariance) over network
    distances; ``noise_scale`` scales the whole stochastic part, zero makes
    the truth exactly deterministic. Densities use the flow profile raised
    to ``density_exponent`` so the flow-density cloud bends like a real
    network loading curve.
    """

    rows: int = 10
    cols: int = 10
    edge_lengths_km: tuple = (0.65, 0.625, 0.235)
    mean_flows: tuple = (1000.0, 400.0, 150.0)
    mean_densities: tuple = (45.0, 30.0, 18.0)
    diurnal: tuple = DEFAULT_DIURNAL
    density_exponent: float = 1.3
    variogram: VariogramModel = DEFAULT_VARIOGRAM
    noise_scale: float = 1.0
    density_noise_ratio: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("mean_flows", "mean_densities"):
            means = getattr(self, name)
            if len(means) != 3:
                raise ValidationError(f"{name} needs one entry per class (three)")
            if any(m <= 0 for m in means):
                raise ValidationError(f"{name} must be positive")
            if not all(a > b for a, b in zip(means, means[1:])):
                raise ValidationError(
                    f"{name} must be strictly decreasing from class 1 to class 3"
                )
        if not self.diurnal or any(f <= 0 for f in self.diurnal):
            raise ValidationError("diurnal factors must be positive")
        if self.density_exponent <= 0:
            raise ValidationError("density exponent must be positive")
        if self.noise_scale < 0:
            raise ValidationError("noise scale must be nonnegative")

    @property
    def n_bins(self):
        return len(self.diurnal)

    @classmethod
    def from_dict(cls, data):
        return record(cls, data, "scenario", variogram=VariogramModel.from_dict)


def load_scenario(path):
    with open(path) as handle:
        return SyntheticScenario.from_dict(json.load(handle))


def covariance_factor(distances, model):
    """Cholesky factor of the covariance implied by a variogram model.

    The covariance at separation h is the total sill minus the semivariance,
    with the nugget acting as white noise on the diagonal. A jitter of 1e-8
    times the total sill absorbs round-off; genuinely indefinite
    combinations (possible for some shapes over graph distances) fail with
    advice to raise the nugget.
    """
    total = model.sill + model.nugget
    # one n x n buffer: the semivariances, turned into covariances in place
    cov = gamma(model, np.asarray(distances, dtype=float))
    np.subtract(total, cov, out=cov)
    np.fill_diagonal(cov, total + 1e-8 * total)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise GenerationError(
            "residual covariance is not positive definite over these network "
            "distances; increase the nugget or shorten the range"
        )


def simulate_correlated_field(factor, rng):
    """One zero-mean draw of the spatially correlated residual field whose
    covariance has the Cholesky factor ``factor`` (``covariance_factor``)."""
    return factor @ rng.standard_normal(factor.shape[0])


@dataclass(frozen=True)
class ScenarioData:
    """A generated ground truth: network, detectors and their readings.

    ``readings`` hold the exact per-link truth of every bin as detector
    output, bin by bin and in link order within a bin, so coverage
    sampling and aggregation run exactly like on field data.
    ``clamped_count`` says how many draws were cut at zero.
    """

    scenario: SyntheticScenario
    network: Network
    sites: tuple
    readings: Readings
    clamped_count: int


def generate_scenario(scenario):
    """Materialise a synthetic scenario; same seed, same data, always."""
    network = grid_network(scenario.rows, scenario.cols, scenario.edge_lengths_km)
    sites = tuple(
        DetectorSite("d" + link.id, link.id, 0.5) for link in network.links
    )
    class_flow, class_density = (
        np.array(means, dtype=float)[network.hierarchies - 1]
        for means in (scenario.mean_flows, scenario.mean_densities)
    )
    density_ratio = (
        scenario.density_noise_ratio
        if scenario.density_noise_ratio is not None
        else float(np.mean(scenario.mean_densities) / np.mean(scenario.mean_flows))
    )

    factor = None
    if scenario.noise_scale > 0:
        factor = covariance_factor(site_distance_matrix(network, sites), scenario.variogram)
    rng = np.random.default_rng(scenario.seed)

    # (bins x links): a bin's flow and density residuals are drawn in turn
    flow = np.outer(np.array(scenario.diurnal, dtype=float), class_flow)
    density = np.outer([f**scenario.density_exponent for f in scenario.diurnal], class_density)
    if factor is not None:
        for b in range(scenario.n_bins):
            flow[b] += scenario.noise_scale * simulate_correlated_field(factor, rng)
            density[b] += (
                scenario.noise_scale * density_ratio * simulate_correlated_field(factor, rng)
            )
    clamped = int((flow < 0).sum() + (density < 0).sum())
    flow = np.maximum(flow, 0.0).ravel()
    density = np.maximum(density, 0.0).ravel()
    speed = np.divide(flow, density, out=np.full(flow.size, np.nan), where=density > 0)

    return ScenarioData(
        scenario=scenario,
        network=network,
        sites=sites,
        readings=Readings(
            detector_ids=tuple(s.detector_id for s in sites) * scenario.n_bins,
            bin_index=np.repeat(np.arange(scenario.n_bins, dtype=np.int64), len(sites)),
            flow=flow,
            density=density,
            speed=speed,
        ),
        clamped_count=clamped,
    )
