import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustcusum import (
    CalibrationError,
    DomainError,
    Gaussian,
    SeededStream,
    calibrate_threshold_mc,
    run_until_alarm,
    threshold_from_gamma,
)
from robustcusum.cusum import (
    _CALIBRATION_REL_TOL,
    _MAX_BISECTIONS,
    _LazyRun,
    alarm_times_gaussian,
    certified_threshold,
    statistic_blocks,
)
from robustcusum.lfp import AffineDetector
from robustcusum.quadratic import llr_detector


class ConstantDetector:
    """Detector whose increment (-phi) is a fixed constant."""

    def __init__(self, increment):
        self.increment = increment
        self.epsilon_star = None

    def increments(self, observations):
        return np.full(len(np.atleast_2d(observations)), self.increment, dtype=float)


class Replay:
    """Fake detector: its increments are `increments`, in order, whatever the
    observations; it raises when they run out."""

    epsilon_star = None

    def __init__(self, increments):
        self._next = iter(increments)

    def increments(self, observations):
        return np.fromiter(self._next, dtype=float, count=len(observations))


# the law a replayed or constant detector's observations are drawn from;
# those detectors ignore the draws
STANDARD_1D = Gaussian(np.zeros(1), np.eye(1))


def scanned_path(increments):
    """S_1..S_n as `statistic_blocks` evaluates it on replayed increments."""
    blocks = statistic_blocks(Replay(increments), STANDARD_1D, np.random.default_rng(0), len(increments))
    return np.concatenate([stats for _, stats in blocks])


def calibration_streams(seed, trials):
    """Trial streams on the calibration lane of scenario 0."""
    return [SeededStream(seed, (3 << 40) | t) for t in range(trials)]


def brute_force_stat(increments, t):
    """max over k of a freshly-summed tail sum_{i=k}^{t} (reversed cumsum oracle)."""
    tail = np.cumsum(increments[t::-1])
    return float(np.max(tail))


def test_recursion_matches_brute_force():
    rng = np.random.default_rng(123)
    inc = rng.normal(size=1000)
    for t, stat in enumerate(scanned_path(inc)):
        assert abs(stat - brute_force_stat(inc, t)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=120))
def test_recursion_matches_brute_force_property(incs):
    for t, stat in enumerate(scanned_path(incs)):
        assert abs(stat - brute_force_stat(np.array(incs), t)) <= 1e-9 * max(1.0, abs(stat))


def test_threshold_examples():
    assert threshold_from_gamma(5000.0, 0.5) == pytest.approx(math.log(5000.0), abs=1e-12)
    expected = math.log(5000.0) + math.log(0.963194 / (1.0 - 0.963194))
    assert threshold_from_gamma(5000.0, 0.963194) == pytest.approx(expected, abs=1e-9)
    assert threshold_from_gamma(math.exp(5.0), math.exp(-1.0)) == pytest.approx(4.458675145387082, abs=1e-9)


def test_threshold_rejects_undetectable_and_bad_gamma():
    with pytest.raises(DomainError):
        threshold_from_gamma(100.0, 1.0)
    with pytest.raises(DomainError):
        threshold_from_gamma(100.0, 1.3)
    with pytest.raises(DomainError):
        threshold_from_gamma(1.0, 0.5)


# blocks end at steps 16, 48, 112, ...: these horizons put the last step of a
# run at, just before and just after the first two block edges
BLOCK_EDGE_HORIZONS = (15, 16, 17, 48, 49)


def test_run_until_alarm_deterministic_ramp():
    # S_t = t, so the alarm falls at step b, here on or before the horizon
    for b, horizon in [(10.0, 50)] + [(float(h), h) for h in BLOCK_EDGE_HORIZONS]:
        res = run_until_alarm(ConstantDetector(1.0), STANDARD_1D, np.random.default_rng(0), b, horizon)
        assert res.alarm_time == b and not res.censored
        assert res.final_statistic == pytest.approx(b)


def test_run_until_alarm_censors():
    # the ramps alarm one step past the horizon
    for increment, b, horizon in [(-1.0, 10.0, 30)] + [(1.0, float(h + 1), h) for h in BLOCK_EDGE_HORIZONS]:
        res = run_until_alarm(ConstantDetector(increment), STANDARD_1D, np.random.default_rng(0), b, horizon)
        assert res.censored and res.alarm_time is None and res.increments_consumed == horizon


def test_run_until_alarm_seeded_determinism():
    det = AffineDetector(a=np.array([-0.5, 0.2]), c=-0.05, epsilon_star=0.9)
    g = Gaussian(np.zeros(2), np.eye(2))
    r1 = run_until_alarm(det, g, SeededStream(9, 1).generator(), 3.0, 10_000)
    r2 = run_until_alarm(det, g, SeededStream(9, 1).generator(), 3.0, 10_000)
    assert r1.alarm_time == r2.alarm_time


def test_block_runner_matches_stepwise_loop():
    # the alarm is the oracle statistic's first passage over b
    rng = np.random.default_rng(77)
    for b in (0.5, 2.0, 5.0):
        inc = rng.normal(loc=0.05, scale=1.0, size=3000)
        fast = run_until_alarm(Replay(inc), STANDARD_1D, np.random.default_rng(0), b, 3000)
        slow = next((t + 1 for t in range(len(inc)) if brute_force_stat(inc, t) >= b), None)
        assert fast.alarm_time == slow


def test_alarm_time_monotone_in_threshold():
    rng = np.random.default_rng(5)
    inc = rng.normal(loc=0.2, size=2000)
    prev = 0
    for b in (0.5, 1.0, 2.0, 4.0, 8.0):
        res = run_until_alarm(Replay(inc), STANDARD_1D, np.random.default_rng(0), b, 2000)
        assert res.alarm_time >= prev
        prev = res.alarm_time


def test_calibration_hits_target_arl():
    # canonical pair detector for mu1 = 0.5 * ones in d=2: a = -mu1/2, c = |mu1|^2/4
    det = AffineDetector(a=np.array([-0.25, -0.25]), c=0.125, epsilon_star=math.exp(-0.5 / 8))
    nu0 = Gaussian(np.zeros(2), np.eye(2))
    gamma = 150.0
    streams = calibration_streams(3, 150)
    b = calibrate_threshold_mc(det, nu0, gamma, streams)
    times = alarm_times_gaussian(det, nu0, streams, b, int(50 * gamma))
    arl = float(np.mean(np.minimum(times, int(50 * gamma))))
    assert 0.95 * gamma <= arl <= 1.05 * gamma


def test_calibration_monotone_in_gamma():
    det = AffineDetector(a=np.array([-0.2]), c=0.04, epsilon_star=math.exp(-0.16 / 8))
    nu0 = Gaussian(np.zeros(1), np.eye(1))
    b_small = calibrate_threshold_mc(det, nu0, 100.0, calibration_streams(5, 120))
    b_large = calibrate_threshold_mc(det, nu0, 1000.0, calibration_streams(5, 120))
    assert b_large > b_small


def test_calibrated_threshold_below_certified_bound_on_desk_l1():
    # the certified threshold is conservative: Monte Carlo calibration at the
    # same ARL target lands well below it
    from robustcusum import L1Ball, SingletonVector, build_affine_detector, solve_lfp

    d, gamma = 10, 500.0
    sol = solve_lfp(SingletonVector(np.zeros(d)), L1Ball(np.ones(d), 0.9 * d), np.eye(d))
    det = build_affine_detector(sol, np.eye(d))
    b_cal = calibrate_threshold_mc(det, Gaussian(np.zeros(d), np.eye(d)), gamma, calibration_streams(17, 200))
    assert b_cal <= threshold_from_gamma(gamma, sol.epsilon_star) + 0.5


def test_calibration_brackets_nonpositive_certified_threshold():
    # d=1 pair detector for mu1 = 9.5: the certified threshold is about
    # -5.07, so the bracket is [2 b - 10, b] with the certified b on top
    mu, gamma = 9.5, 500.0
    det = AffineDetector(a=np.array([-mu / 2]), c=mu**2 / 4, epsilon_star=math.exp(-(mu**2) / 8))
    nu0 = Gaussian(np.zeros(1), np.eye(1))
    b_theory = threshold_from_gamma(gamma, det.epsilon_star)
    assert b_theory < 0
    streams = calibration_streams(1, 200)
    b = calibrate_threshold_mc(det, nu0, gamma, streams)
    assert b < b_theory
    horizon = int(50 * gamma)
    arl = float(np.mean(np.minimum(alarm_times_gaussian(det, nu0, streams, b, horizon), horizon)))
    assert 0.95 * gamma <= arl <= 1.05 * gamma


def test_calibration_bracket_failure_reports_endpoints():
    det = ConstantDetector(-1.0)  # the statistic stays at -1: ARL is the horizon for b > -1
    nu0 = Gaussian(np.zeros(1), np.eye(1))
    with pytest.raises(CalibrationError) as exc:
        calibrate_threshold_mc(det, nu0, 150.0, calibration_streams(1, 100), horizon=500)
    assert exc.value.arl_low is not None
    # the bracket moves below -1, where every run alarms at step 1, and the
    # bisection collapses on the jump there; both ends are evaluated in full
    assert "failed to bracket ARL=150" in str(exc.value)
    assert exc.value.arl_low == 1.0 and exc.value.arl_high == 500.0


def eager_calibration(detector, nu0, gamma, streams, horizon=None):
    """Oracle: calibration as it ran before trials were simulated lazily.
    Every ARL evaluation re-runs every trial from step 0 on fresh streams."""
    horizon = int(horizon if horizon is not None else round(50 * gamma))
    b_theory = certified_threshold(gamma, detector)
    lo, hi = (0.1 * b_theory, 2.0 * b_theory + 10.0) if b_theory > 0 else (2.0 * b_theory - 10.0, b_theory)
    tol = _CALIBRATION_REL_TOL * gamma

    def arl(b):
        return float(np.mean(np.minimum(alarm_times_gaussian(detector, nu0, streams, b, horizon), horizon)))

    arl_lo = arl(lo)
    if abs(arl_lo - gamma) <= tol:
        return lo
    assert arl_lo < gamma < arl(hi), "the oracle covers only brackets that hold"
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        val = arl(mid)
        if abs(val - gamma) <= tol:
            return mid
        if val > gamma:
            hi = mid
        else:
            lo = mid
    raise AssertionError("the oracle's bisection did not settle")


AFFINE_2D = AffineDetector(a=np.array([-0.25, -0.25]), c=0.125, epsilon_star=math.exp(-0.5 / 8))
WELL_SEPARATED = AffineDetector(a=np.array([-4.75]), c=9.5**2 / 4, epsilon_star=math.exp(-(9.5**2) / 8))
VARIANCE_UP = llr_detector(Gaussian(np.zeros(2), np.eye(2)), Gaussian(np.zeros(2), 1.6 * np.eye(2)))


@pytest.mark.parametrize(
    "detector, dim, gamma, seed, trials, decided_early",
    [
        (AFFINE_2D, 2, 150.0, 3, 150, True),
        (VARIANCE_UP, 2, 200.0, 8, 120, True),
        (AffineDetector(a=np.array([-0.2]), c=0.04, epsilon_star=math.exp(-0.16 / 8)), 1, 1000.0, 5, 120, True),
        (WELL_SEPARATED, 1, 500.0, 1, 200, False),
    ],
    ids=["affine", "quadratic", "early-exit", "nonpositive-certified-b"],
)
def test_lazy_calibration_matches_eager_oracle(detector, dim, gamma, seed, trials, decided_early):
    nu0 = Gaussian(np.zeros(dim), np.eye(dim))
    lines = []
    b = calibrate_threshold_mc(detector, nu0, gamma, calibration_streams(seed, trials), progress=lines.append)
    assert b == eager_calibration(detector, nu0, gamma, calibration_streams(seed, trials))
    # an evaluation that stopped once its partial mean passed 1.05 gamma
    # reports that lower bound as "ARL>"
    assert any("ARL>" in line for line in lines) == decided_early


def test_lazy_run_lengths_match_run_until_alarm():
    det, horizon = AFFINE_2D, 3000
    nu0 = Gaussian(np.zeros(2), np.eye(2))
    thresholds = np.random.default_rng(4).permutation(np.linspace(-1.0, 12.0, 27))
    for stream in calibration_streams(11, 40):
        run = _LazyRun(det, nu0, stream.generator(), horizon)
        for b in thresholds:
            res = run_until_alarm(det, nu0, stream.generator(), b, horizon)
            assert run.run_length(b) == (horizon if res.alarm_time is None else res.alarm_time)


def test_calibration_grows_bracket_below_lower_end():
    # increments x - 3 with a loose certificate: ARL(0.1 b_cert) is far above
    # gamma, so the bracket moves down to (2 lo - 10, lo); for b <= 0 each
    # observation is tested alone and ARL = 1 / P(x - 3 >= b), about gamma at
    # b = -0.12
    det = AffineDetector(a=np.array([-1.0]), c=3.0, epsilon_star=0.999)
    nu0 = Gaussian(np.zeros(1), np.eye(1))
    gamma, horizon = 500.0, 25_000
    streams = calibration_streams(2, 200)
    b = calibrate_threshold_mc(det, nu0, gamma, streams)
    assert -1.0 < b < 0.0 < 0.1 * certified_threshold(gamma, det)
    arl = float(np.mean(np.minimum(alarm_times_gaussian(det, nu0, streams, b, horizon), horizon)))
    assert abs(arl - gamma) <= 0.05 * gamma


def test_calibration_requires_enough_trials():
    det = ConstantDetector(1.0)
    with pytest.raises(DomainError, match="100"):
        calibrate_threshold_mc(det, Gaussian(np.zeros(1), np.eye(1)), 100.0, calibration_streams(0, 50))


def test_calibration_rejects_empty_horizon():
    det = ConstantDetector(1.0)
    with pytest.raises(DomainError, match="horizon must be >= 1, got 0"):
        calibrate_threshold_mc(det, Gaussian(np.zeros(1), np.eye(1)), 100.0, calibration_streams(0, 100), horizon=0)
