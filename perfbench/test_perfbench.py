"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q

None of them imports the program under test.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import statistics

import numpy as np
import pytest

from checks import fails, ladder_impedance, periodic_droop, recompute_verdict
from metrics import (
    percentile,
    quartiles,
    tail_percentile,
    valid_name,
    valid_unit,
)
from run import end_to_end
from spans import Probe, Span, covered_length, self_time_table, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Tail-percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("samples, expected", [
    (1000, 99.0), (5000, 99.0),
    (200, 95.0), (999, 95.0),
    (100, 90.0), (199, 90.0),
])
def test_tail_is_highest_listed_percentile_leaving_ten_beyond(samples, expected):
    assert tail_percentile(samples) == expected


@pytest.mark.parametrize("samples", [40, 57, 99])
def test_tail_below_100_samples_leaves_exactly_ten_beyond(samples):
    pct = tail_percentile(samples)
    assert samples * (100 - pct) / 100 == pytest.approx(10)
    assert pct < 90


def test_no_tail_below_40_samples():
    with pytest.raises(ValueError):
        tail_percentile(39)


def test_percentile_matches_linear_interpolation():
    rng = random.Random(7)
    values = [rng.expovariate(1.0) for _ in range(321)]
    for pct in (0, 10, 50, 90, 95, 99, 100):
        assert percentile(values, pct) == pytest.approx(
            float(np.percentile(values, pct)), rel=1e-12)


def test_quartiles_are_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))


# ----------------------------------------------------------------------
# Metric-name pattern and BENCHMARK.json
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["wall_s", "pdn.solver.samples_per_s",
                                  "campaign-8t-smt", "9lives", "a" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b",
                                  "a" * 65, "über"])
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "MB", "%", "ratio"):
        assert valid_unit(unit)
    for unit in ("", "m s", "a" * 17):
        assert not valid_unit(unit)


def test_benchmark_json_names_what_the_runs_print():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(valid_name(n) for n in names)
    assert len(names) == len(set(names))
    round_ = {"traced": False, "peak_rss_mb": 100.0, "wall_s": 2.0,
              "measurements": 40, "latencies_ms": [1.0] * 40}
    values, _pct, _samples = end_to_end([round_], 1.0)
    assert list(values) == [m["name"] for m in spec["end_to_end"]]
    layers = list(Probe().layer_metrics()) + [
        "setup.import_s", "setup.testbed_s",
        "trace.unexplained_s", "trace.overhead"]
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert valid_unit(metric["unit"])
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# Span self-time algebra
# ----------------------------------------------------------------------
def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(1, 3), (2, 5), (7, 8)]) == 5.0
    assert covered_length([(0, 10), (2, 3)]) == 10.0
    assert covered_length([(4, 6), (1, 2)]) == 3.0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("round", 0.0, 10.0, -1),
        Span("measure", 1.0, 4.0, 0),
        Span("uarch", 1.5, 3.5, 1),
        Span("measure", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 2.0, 4.0])
    table = self_time_table(spans)
    assert table["measure"] == pytest.approx((2, 7.0, 5.0))
    # Self times partition the root's wall clock.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent():
    spans = [Span("outer", 2.0, 6.0, -1), Span("inner", 1.0, 3.0, 0),
             Span("inner", 5.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Independent ladder solver
# ----------------------------------------------------------------------
def test_single_rc_stage_by_hand():
    # Series R into a shunt C: Z = R || 1/(sC) = R / (1 + sRC).  At the
    # corner frequency 1/(2 pi R C) that is R / (1 + j): |Z| = R/sqrt 2, -45°.
    r, c = 2.0, 1e-6
    corner = 1.0 / (2 * math.pi * r * c)
    z_dc, z_corner, z_high = ladder_impedance([(r, 0.0, c, 0.0)],
                                              [0.0, corner, 1e3 * corner])
    assert z_dc == pytest.approx(r)
    assert abs(z_corner) == pytest.approx(r / math.sqrt(2), rel=1e-12)
    assert cmath.phase(z_corner) == pytest.approx(-math.pi / 4, rel=1e-12)
    assert abs(z_high) == pytest.approx(r / math.hypot(1.0, 1e3), rel=1e-12)


def test_two_stages_reduce_series_then_parallel():
    stages = [(1.0, 1e-9, 1e-6, 0.1), (0.5, 2e-9, 1e-7, 0.2)]
    f = 3e6
    s = 2j * math.pi * f
    z = 1.0 + s * 1e-9
    z = 1 / (1 / z + 1 / (0.1 + 1 / (s * 1e-6)))
    z = z + 0.5 + s * 2e-9
    z = 1 / (1 / z + 1 / (0.2 + 1 / (s * 1e-7)))
    assert ladder_impedance(stages, [f])[0] == pytest.approx(z, rel=1e-12)


def test_constant_current_droop_is_ir_drop():
    stages = [(0.25, 1e-9, 1e-6, 0.1)]
    assert periodic_droop(stages, [4.0] * 16, 1e-9) == pytest.approx(1.0)


def test_failure_criterion():
    assert fails([1.0, 0.9], [0.0, 1.0], 0.95)
    assert not fails([1.0, 0.96], [0.0, 1.0], 0.95)
    # Cycles past the shorter trace are ignored.
    assert not fails([1.0, 0.96], [0.0, 1.0, 5.0], 0.95)


# ----------------------------------------------------------------------
# Qualification verdict rule
# ----------------------------------------------------------------------
class _Axis:
    def __init__(self, droops):
        self.droops = droops


class _Config:
    min_droop_v = 1e-6
    pass_retention = 0.6
    artifact_retention = 0.3


class _Report:
    config = _Config()

    def __init__(self, nominal, axes):
        self.nominal_droop_v = nominal
        self.axes = [_Axis(d) for d in axes]


@pytest.mark.parametrize("axes, robustness, verdict", [
    ([[0.1, 0.08], [0.1, 0.07]], 0.7, "PASS"),
    ([[0.1, 0.04]], 0.4, "FRAGILE"),
    ([[0.1, 0.02]], 0.2, "ARTIFACT"),
    ([[math.nan, math.nan]], 0.0, "ARTIFACT"),
    ([[0.1, math.nan, 0.09]], 0.9, "PASS"),
])
def test_recomputed_verdict(axes, robustness, verdict):
    got = recompute_verdict(_Report(0.1, axes))
    assert got[0] == pytest.approx(robustness)
    assert got[1] == verdict
