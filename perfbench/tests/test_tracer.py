"""Tracer arithmetic and installation, on fake functions and on the package."""
import sys
import types

import pytest

from perfbench.tracer import HOOK_SPAN, TARGETS, Tracer, install, span_name


class FakeClock:
    """Each reading advances time by the next scripted step."""

    def __init__(self, steps):
        self.now = 0.0
        self.steps = list(steps)

    def __call__(self):
        value = self.now
        self.now += self.steps.pop(0) if self.steps else 0.0
        return value


def test_self_time_subtracts_nested_children():
    # readings: outer.open 0 | inner.open 1 | inner.close 4 | inner.open 6
    #           leaf.open 7 | leaf.close 9 | inner.close 10 | outer.close 15
    clock = FakeClock([1, 3, 2, 1, 2, 1, 5])
    tracer = Tracer(clock=clock)

    def leaf():
        return None

    def inner(depth):
        if depth:
            traced_leaf()

    def outer():
        traced_inner(0)
        traced_inner(1)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()

    stats = tracer.summary(["outer", "inner", "leaf"])
    assert stats["outer"] == {"calls": 1, "self_s": 15 - 0 - (4 - 1) - (10 - 6), "raised": 0}
    assert stats["inner"] == {"calls": 2, "self_s": (4 - 1) + (10 - 6) - (9 - 7), "raised": 0}
    assert stats["leaf"] == {"calls": 1, "self_s": 9 - 7, "raised": 0}
    assert sum(s["self_s"] for s in stats.values()) == tracer.root_duration("outer") == 15
    parents = {s[2]: s[1] for s in tracer.spans}
    assert parents["outer"] is None and parents["leaf"] == tracer.spans[2][0]


def test_raised_calls_are_counted_and_spans_closed():
    tracer = Tracer(clock=FakeClock([1] * 10))

    def boom():
        raise ValueError("no")

    traced = tracer.wrap("boom", boom)
    with tracer.span("root"):
        for _ in range(2):
            with pytest.raises(ValueError):
                traced()
    stats = tracer.summary(["boom", "root"])
    assert stats["boom"]["calls"] == 2 and stats["boom"]["raised"] == 2
    assert stats["root"]["raised"] == 0
    assert sum(s["self_s"] for s in stats.values()) == tracer.root_duration("root")


def test_hook_time_is_not_booked_on_the_caller():
    clock = FakeClock([])  # time moves only where the fakes move it

    class SlowHook:
        def before(self, tracer, args, kwargs):
            clock.now += 5
            return args, kwargs

        def after(self, tracer, args, kwargs, result, exc):
            clock.now += 7

    def work():
        clock.now += 2

    tracer = Tracer(clock=clock)
    traced = tracer.wrap("work", work, SlowHook())
    with tracer.span("root"):
        traced()
    stats = tracer.summary(["root", "work", HOOK_SPAN])
    assert stats["work"]["self_s"] == 2
    assert stats[HOOK_SPAN] == {"calls": 2, "self_s": 12, "raised": 0}
    assert stats["root"]["self_s"] == 0
    assert sum(s["self_s"] for s in stats.values()) == tracer.root_duration("root") == 14


@pytest.fixture
def fake_package(monkeypatch):
    core = types.ModuleType("fakepkg.core")
    exec(
        "def work(x):\n    return x + 1\n"
        "class Grid:\n    @classmethod\n    def build(cls, n):\n        return cls, n\n",
        core.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.work = core.work  # what ``from .core import work`` leaves behind
    package = types.ModuleType("fakepkg")
    package.core, package.user = core, user
    for name, module in (("fakepkg", package), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return core, user


def test_install_rebinds_every_reference_and_restores(fake_package):
    core, user = fake_package
    original = core.work
    original_build = vars(core.Grid)["build"]
    tracer = Tracer()
    installation = install(
        tracer,
        targets=(("core", "work"), ("core", "Grid.build"), ("core", "gone"), ("core", "Nope.x")),
        package="fakepkg",
    )
    assert installation.installed == ["core.work", "core.Grid.build"]
    assert installation.absent == ["core.gone", "core.Nope.x"]
    assert core.work is user.work is not original
    assert user.work(1) == 2 and core.Grid.build(3) == (core.Grid, 3)
    stats = tracer.summary(["core.work", "core.Grid.build"])
    assert [stats[n]["calls"] for n in stats] == [1, 1]
    installation.restore()
    assert core.work is original and user.work is original
    assert vars(core.Grid)["build"] is original_build


def test_install_covers_every_target_of_the_package():
    import sparsemfd.experiment as experiment
    import sparsemfd.kriging as kriging
    import sparsemfd.variogram as variogram

    original = variogram.fit_variogram
    installation = install(Tracer())
    try:
        assert installation.absent == []
        assert len(installation.installed) == len(TARGETS)
        assert kriging.fit_variogram is variogram.fit_variogram is not original
        assert experiment.impute_network is kriging.impute_network
        assert experiment.impute_network.__wrapped__.__module__ == "sparsemfd.kriging"
    finally:
        installation.restore()
    assert kriging.fit_variogram is original
    assert span_name("kriging", "ImputationDistances.build") == "kriging.ImputationDistances.build"
