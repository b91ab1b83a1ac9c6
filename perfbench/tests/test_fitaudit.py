"""The fit audit accepts the package's fits and rejects worse or missing ones."""
import numpy as np
import pytest

from perfbench import fitaudit


def _empirical(kind, seed):
    from sparsemfd.variogram import EmpiricalVariogram

    rng = np.random.default_rng(seed)
    edges = np.linspace(0.1, 3.0, 16)
    centers = 0.5 * (edges[:-1] + edges[1:])
    gamma = 2.0 + 5.0 * fitaudit.shape(kind, centers, 1.4)
    counts = rng.integers(20, 400, size=centers.size)
    return EmpiricalVariogram(
        bin_edges=edges,
        gamma_hat=gamma * (1 + 0.05 * rng.standard_normal(centers.size)),
        pair_counts=counts,
    )


@pytest.fixture(scope="module")
def records():
    import sparsemfd.kriging as kriging
    import sparsemfd.variogram as variogram

    original = variogram.fit_variogram
    out = []
    installation = fitaudit.record_fits(out)
    try:
        assert kriging.fit_variogram is variogram.fit_variogram is not original
        for seed, kind in enumerate(("spherical", "exponential", "gaussian")):
            variogram.fit_variogram(_empirical(kind, seed))
        with pytest.raises(Exception):
            variogram.fit_variogram(_empirical("spherical", 9), min_pairs=10**6)
    finally:
        installation.restore()
    assert kriging.fit_variogram is variogram.fit_variogram is original
    return out


def test_the_package_fits_pass(records):
    assert len(records) == 4 and records[-1]["raised"] == "InsufficientDataError"
    assert fitaudit.check_fits(records, 4) == []


def test_the_optimum_matches_a_fit_to_exact_data():
    record = {
        "edges": np.linspace(0.1, 3.0, 16).tolist(), "counts": [50] * 15,
        "kinds": ["spherical", "exponential", "gaussian"], "min_pairs": 5,
    }
    centers = 0.5 * (np.array(record["edges"][:-1]) + np.array(record["edges"][1:]))
    record["gamma"] = (1.0 + 3.0 * fitaudit.shape("exponential", centers, 0.9)).tolist()
    problem = fitaudit.Problem(record)
    assert problem.optimum() < 1e-12 * float(problem.c @ problem.g**2)


@pytest.mark.parametrize(
    "change",
    [
        lambda m: [m[0], m[1], m[2], m[3] * 1.2],  # a worse range
        lambda m: [m[0], m[1] + 0.2 * m[2], m[2], m[3]],  # a worse nugget
        lambda m: ["spherical" if m[0] != "spherical" else "gaussian"] + m[1:],
    ],
)
def test_a_worse_model_is_rejected(records, change):
    bad = [dict(r) for r in records]
    bad[0]["model"] = change(bad[0]["model"])
    errors = fitaudit.check_fits(bad, 4)
    assert len(errors) == 1 and "fit 0" in errors[0]


def test_a_few_near_misses_are_tolerated(records):
    many = [dict(r) for r in records[:3] for _ in range(20)]
    many[0]["model"] = many[0]["model"][:3] + [many[0]["model"][3] * 1.02]
    assert fitaudit.check_fits(many, 60) == []
    many[1]["model"] = many[0]["model"]
    many[2]["model"] = many[0]["model"]
    many[3]["model"] = many[0]["model"]
    errors = fitaudit.check_fits(many, 60)
    assert len(errors) == 1 and "4 fits (at most 3 allowed)" in errors[0]


def test_a_raised_fit_or_a_missing_fit_is_rejected(records):
    raised = [dict(r) for r in records]
    raised[1]["raised"] = "FitConvergenceError"
    assert fitaudit.check_fits(raised, 4) == ["fit 1: raised FitConvergenceError on a fittable variogram"]
    assert len(fitaudit.check_fits(records[:3], 4)) == 1
