"""Output checks, each against a computation made apart from the program.

The PDN is recomputed here from its component values by series/parallel
reduction of the ladder, never through ``repro.pdn``; the qualification
verdict and the failure criterion are recomputed from the documented
rules.  Only numpy is used, so the tests of this module do not import the
program.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance between the program's droop and the recomputed one.
#: Both evaluate the same linear network on the same harmonics, by different
#: algebra, so they agree to rounding.
DROOP_RTOL = 1e-9

#: Absolute floor of that tolerance (volts).
DROOP_ATOL = 1e-12


class Checker:
    """Collects the outcome of every check of a round."""

    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)


# ----------------------------------------------------------------------
# PDN: ladder input impedance by series/parallel reduction
# ----------------------------------------------------------------------
def pdn_stages(pdn) -> list[tuple[float, float, float, float]]:
    """``(R, L, C, ESR)`` per ladder stage, source side first.

    The VRM load line is series resistance of the first stage.
    """
    stages = []
    for index, stage in enumerate((pdn.board, pdn.package, pdn.die)):
        r = stage.resistance_ohm + (pdn.load_line_ohm if index == 0 else 0.0)
        stages.append((r, stage.inductance_h, stage.capacitance_f,
                       stage.esr_ohm))
    return stages


def ladder_impedance(stages, frequencies_hz) -> np.ndarray:
    """Complex impedance the load sees looking back into the ladder.

    Each stage is a series ``R + sL`` from the previous node followed by a
    shunt ``ESR + 1/(sC)`` to ground; the source is ideal.  At 0 Hz every
    capacitor is open, so the impedance is the sum of series resistances.
    """
    freqs = np.atleast_1d(np.asarray(frequencies_hz, dtype=np.float64))
    out = np.empty(len(freqs), dtype=np.complex128)
    dc = freqs == 0.0
    out[dc] = sum(r for r, _l, _c, _esr in stages)
    s = 2j * math.pi * freqs[~dc]
    z = np.zeros(len(s), dtype=np.complex128)
    for r, l, c, esr in stages:
        z = z + r + s * l
        shunt = esr + 1.0 / (s * c)
        z = z * shunt / (z + shunt)
    out[~dc] = z
    return out


def periodic_droop(stages, current_a, dt: float) -> float:
    """Worst droop of the periodic steady state for one period of current.

    The voltage deviation is ``-Z(f) I(f)`` summed over the period's
    harmonics; the droop is the largest deviation below the supply.
    """
    current = np.asarray(current_a, dtype=np.float64)
    n = len(current)
    harmonics = np.fft.rfftfreq(n, d=dt)
    drop = np.fft.irfft(ladder_impedance(stages, harmonics)
                        * np.fft.rfft(current), n=n)
    return float(max(0.0, drop.max()))


def impedance_peak_hz(stages, lo_hz: float = 10e6, hi_hz: float = 1e9) -> float:
    """Frequency of the largest ``|Z|`` in ``[lo_hz, hi_hz]``.

    A log-spaced scan locates the peak, then a golden-section search on
    ``|Z|`` refines it to within 1 Hz.
    """
    freqs = np.geomspace(lo_hz, hi_hz, 4001)
    mags = np.abs(ladder_impedance(stages, freqs))
    best = int(np.argmax(mags))
    a = freqs[max(best - 1, 0)]
    b = freqs[min(best + 1, len(freqs) - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0

    def mag(f):
        return float(np.abs(ladder_impedance(stages, [f])[0]))

    while b - a > 1.0:
        c = b - ratio * (b - a)
        d = a + ratio * (b - a)
        if mag(c) > mag(d):
            b = d
        else:
            a = c
    return (a + b) / 2.0


def is_periodic_result(measurement) -> bool:
    """A periodic-path measurement holds exactly one period of current."""
    period = measurement.period_cycles
    return period is not None and len(measurement.current.samples) == period


def check_periodic_droop(checker: Checker, label: str, measurement, pdn) -> None:
    """The reported droop against the ladder recomputation."""
    expected = periodic_droop(pdn_stages(pdn), measurement.current.samples,
                              measurement.current.dt)
    got = measurement.max_droop_v
    checker.expect(
        math.isclose(got, expected, rel_tol=DROOP_RTOL, abs_tol=DROOP_ATOL),
        f"{label}: droop {got!r} V, ladder recomputation {expected!r} V",
    )


# ----------------------------------------------------------------------
# Resonance sweep
# ----------------------------------------------------------------------
def check_resonance(checker: Checker, sweep, pdn, *, clock_hz: float,
                    periods) -> None:
    """``resonance_hz`` within one sweep-grid step of the ``|Z|`` peak.

    The grid step is the larger distance from the grid frequency nearest
    the result to its neighbours.
    """
    grid = sorted(clock_hz / p for p in periods)
    nearest = min(range(len(grid)),
                  key=lambda i: abs(grid[i] - sweep.resonance_hz))
    step = max(
        abs(grid[j] - grid[nearest])
        for j in (nearest - 1, nearest + 1) if 0 <= j < len(grid)
    )
    peak = impedance_peak_hz(pdn_stages(pdn))
    checker.expect(
        abs(sweep.resonance_hz - peak) <= step,
        f"resonance {sweep.resonance_hz / 1e6:.2f} MHz is more than one grid "
        f"step ({step / 1e6:.2f} MHz) from the |Z| peak {peak / 1e6:.2f} MHz",
    )


# ----------------------------------------------------------------------
# GA and qualification
# ----------------------------------------------------------------------
def check_ga(checker: Checker, label: str, ga_result) -> None:
    """Best fitness never decreases from one generation to the next."""
    best = [stats.best_fitness for stats in ga_result.history]
    checker.expect(
        all(b >= a for a, b in zip(best, best[1:])),
        f"{label}: best fitness decreased across generations: {best}",
    )
    checker.expect(
        not best or best[-1] == ga_result.best_fitness,
        f"{label}: last generation's best {best[-1] if best else None!r} "
        f"differs from the result's {ga_result.best_fitness!r}",
    )


def recompute_verdict(report) -> tuple[float, str]:
    """Robustness and verdict from the report's axis droops.

    Retention of an axis is its smallest finite droop over the nominal
    droop (0 with no finite droop, 1 when the nominal droop is not
    positive); robustness is the smallest retention.  A nominal droop that
    is not finite or is below ``min_droop_v`` is an ARTIFACT; otherwise
    robustness at or above ``pass_retention`` passes and at or above
    ``artifact_retention`` is FRAGILE.
    """
    cfg = report.config
    nominal = report.nominal_droop_v
    retentions = []
    for axis in report.axes:
        finite = [d for d in axis.droops if math.isfinite(d)]
        if not finite:
            retentions.append(0.0)
        elif nominal <= 0:
            retentions.append(1.0)
        else:
            retentions.append(min(finite) / nominal)
    robustness = min(retentions)
    if not math.isfinite(nominal) or nominal < cfg.min_droop_v:
        verdict = "ARTIFACT"
    elif robustness >= cfg.pass_retention:
        verdict = "PASS"
    elif robustness >= cfg.artifact_retention:
        verdict = "FRAGILE"
    else:
        verdict = "ARTIFACT"
    return robustness, verdict


def check_verdict(checker: Checker, label: str, report) -> None:
    robustness, verdict = recompute_verdict(report)
    checker.expect(
        verdict == report.verdict and robustness == report.robustness,
        f"{label}: reported {report.verdict} (robustness "
        f"{report.robustness!r}), recomputed {verdict} ({robustness!r})",
    )


def check_nominal(checker: Checker, label: str, report,
                  plain_droop_v: float) -> None:
    """The qualification's nominal droop is a plain measurement's droop."""
    checker.expect(
        report.nominal_droop_v == plain_droop_v,
        f"{label}: nominal droop {report.nominal_droop_v!r} V differs from "
        f"a plain measurement {plain_droop_v!r} V",
    )


# ----------------------------------------------------------------------
# Failure search
# ----------------------------------------------------------------------
def fails(voltage_samples, sensitivity, vcrit_base: float) -> bool:
    """Does any cycle fall below ``vcrit_base`` times its path sensitivity?"""
    v = np.asarray(voltage_samples, dtype=np.float64)
    s = np.asarray(sensitivity, dtype=np.float64)
    n = min(len(v), len(s))
    return bool(np.any(v[:n] < vcrit_base * s[:n]))


class FailureSteps:
    """Wraps a ``run_at(supply_v)`` callable and keeps its last two steps."""

    def __init__(self, run_at):
        self._run_at = run_at
        self.steps: list[tuple[float, np.ndarray, np.ndarray]] = []

    def __call__(self, supply_v: float):
        voltage, sensitivity = self._run_at(supply_v)
        self.steps = self.steps[-1:] + [
            (supply_v, voltage.samples, np.asarray(sensitivity))
        ]
        return voltage, sensitivity


def check_failure(checker: Checker, label: str, failure_v: float,
                  steps: FailureSteps, *, vcrit_base: float,
                  step_v: float) -> None:
    """The returned supply fails and one step above it passes."""
    if len(steps.steps) < 2:
        checker.expect(False, f"{label}: failed at nominal supply, "
                              "no passing step above it")
        return
    (above_v, above, above_s), (last_v, last, last_s) = steps.steps
    checker.expect(
        last_v == failure_v and math.isclose(above_v - last_v, step_v,
                                             rel_tol=1e-9),
        f"{label}: search returned {failure_v!r} V after steps at "
        f"{above_v!r} and {last_v!r} V",
    )
    checker.expect(fails(last, last_s, vcrit_base),
                   f"{label}: {last_v:.4f} V does not fail")
    checker.expect(not fails(above, above_s, vcrit_base),
                   f"{label}: {above_v:.4f} V, one step above, fails")
