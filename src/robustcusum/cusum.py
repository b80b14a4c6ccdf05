"""Stopping rules: recursive CUSUM over detector increments.

The running statistic follows S_t = max(S_{t-1}, 0) + increment_t and the
procedure alarms at the first t with S_t >= b.  This recursion equals the
max-form statistic max_{1<=k<=t} sum_{i=k}^t increment_i (verified against a
brute-force oracle in the test suite, not assumed).

One generator, `statistic_blocks`, evaluates the statistic.  It draws a
run's observations block by block and evaluates each block with cumulative
sums and running minima, so long horizons cost O(horizon) numpy work
instead of a Python loop per step:

    S_t = max(s0 + C_t, C_t - min_{0<=j<=t-1} C_j),   C_0 = 0, s0 = max(S_prev, 0)

Blocks start at 16 rows and double up to 1,024, so a run that alarms early
draws few rows it never scans.  Philox yields the same normals however a
request is split, so the block sizes do not change the observations.
`run_until_alarm` reads the blocks up to the first alarm; calibration's
`_LazyRun` reads them as far as the thresholds it is asked about need.

Thresholds come either from the certified rule b = log(gamma) +
log(eps*/(1-eps*)) or from Monte Carlo calibration via bisection on b with
common random numbers per trial (so the estimated ARL is exactly monotone in
b along the bisection).  Calibration simulates each trial's path once, and
only as far as the thresholds tried need: a trial keeps the records of its
statistic (each new strict running maximum), and its alarm time at b is the
time of the first record >= b.  An ARL evaluation stops summing trials as
soon as their partial mean already exceeds gamma by more than the
tolerance, since the full mean can only be larger.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, DomainError
from .gaussian import Gaussian, sample_with

# a run's first observation block; later blocks double up to _MAX_BLOCK
_FIRST_BLOCK = 16
_MAX_BLOCK = 1024

# fewest trials a Monte Carlo estimate (ARL, delay, calibration) accepts
MIN_TRIALS = 100
# default censoring: ARL runs at ARL_HORIZON_FACTOR * gamma steps, delay runs
# at DEFAULT_DELAY_HORIZON steps
ARL_HORIZON_FACTOR = 50
DEFAULT_DELAY_HORIZON = 10_000
# calibration accepts a threshold whose ARL is within this fraction of gamma
_CALIBRATION_REL_TOL = 0.05
_MAX_BISECTIONS = 60
# times calibration moves a bracket whose lower end has ARL above gamma down
_MAX_BRACKET_GROWTH = 4


@dataclass(frozen=True)
class StoppingResult:
    alarm_time: int | None  # None when censored at the horizon
    final_statistic: float
    increments_consumed: int

    @property
    def censored(self) -> bool:
        return self.alarm_time is None


def threshold_from_gamma(gamma: float, epsilon_star: float) -> float:
    """Smallest threshold certified to give ARL >= gamma."""
    if not gamma > 1.0:
        raise DomainError(f"gamma must be > 1, got {gamma}")
    if not 0.0 < epsilon_star < 1.0:
        raise DomainError(
            f"epsilon_star must lie strictly in (0, 1), got {epsilon_star} "
            "(1 means the classes overlap and the change is undetectable)"
        )
    return math.log(gamma) + math.log(epsilon_star / (1.0 - epsilon_star))


def _block_lengths(horizon: int):
    """Row counts of a run's successive blocks: _FIRST_BLOCK rows, doubling
    up to _MAX_BLOCK, the last block cut at the horizon."""
    consumed, n = 0, _FIRST_BLOCK
    while consumed < horizon:
        yield min(n, horizon - consumed)
        consumed += n
        n = min(2 * n, _MAX_BLOCK)


def statistic_blocks(detector, gaussian: Gaussian, rng: np.random.Generator, horizon: int):
    """The statistic S_1..S_horizon of one run from the reset state, as one
    (offset, S) per block, S holding S_{offset+1}..S_{offset+len(S)}.  Each
    block's observations are the next rows of `gaussian` drawn from `rng`."""
    carry, offset = 0.0, 0
    for n in _block_lengths(horizon):
        increments = np.asarray(detector.increments(sample_with(gaussian, rng, n)), dtype=float)
        c = np.concatenate([[0.0], np.cumsum(increments)])
        stats = [np.maximum(carry + c[1:], c[1:] - np.minimum.accumulate(c)[:-1])]
        carry = max(float(stats[0][-1]), 0.0)
        # a run suspended between blocks holds none of their arrays:
        # calibration keeps one suspended run per trial
        del increments, c
        yield offset, stats.pop()
        offset += n


def run_until_alarm(detector, gaussian: Gaussian, rng: np.random.Generator, b: float, horizon: int) -> StoppingResult:
    """Run the reflected CUSUM on -phi increments of observations drawn from
    `gaussian` with the already-positioned `rng`, until alarm or horizon."""
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    for offset, stats in statistic_blocks(detector, gaussian, rng, horizon):
        hits = np.flatnonzero(stats >= b)
        if hits.size:
            t = offset + int(hits[0]) + 1
            return StoppingResult(alarm_time=t, final_statistic=float(stats[hits[0]]), increments_consumed=t)
    return StoppingResult(alarm_time=None, final_statistic=max(float(stats[-1]), 0.0), increments_consumed=horizon)


class _LazyRun:
    """One calibration trial, scanned only as far as the thresholds asked of
    it need.

    The first step with S_t >= b always sets a new running maximum, so the
    alarm time at b is the time of the first record value >= b.  The path
    is read from `statistic_blocks`, so the statistic, and with it every
    alarm time, equals that of a fresh `run_until_alarm` on the trial's
    stream.
    """

    def __init__(self, detector, gaussian: Gaussian, rng: np.random.Generator, horizon: int):
        self._horizon = horizon
        self._blocks = statistic_blocks(detector, gaussian, rng, horizon)
        self._consumed = 0
        self._records = []  # strictly increasing record values of S_t
        self._times = []  # the step (1-based) of each record

    def run_length(self, b: float) -> int:
        """min(alarm time at threshold b, horizon)."""
        while not (self._records and self._records[-1] >= b) and self._consumed < self._horizon:
            self._extend()
        i = bisect.bisect_left(self._records, b)
        return self._times[i] if i < len(self._times) else self._horizon

    def _extend(self):
        offset, stats = next(self._blocks)
        prev = self._records[-1] if self._records else -np.inf
        peaks = np.maximum(np.maximum.accumulate(stats), prev)
        new = np.flatnonzero(peaks > np.concatenate(([prev], peaks[:-1])))
        self._records.extend(stats[new].tolist())
        self._times.extend((offset + 1 + new).tolist())
        self._consumed = offset + len(stats)


def certified_threshold(gamma: float, detector) -> float:
    """The certified threshold when the detector carries eps* in (0, 1), else
    log(gamma), the classic CUSUM guideline for a fully specified pair."""
    eps = getattr(detector, "epsilon_star", None)
    if eps is not None and 0.0 < eps < 1.0:
        return threshold_from_gamma(gamma, eps)
    return math.log(gamma)


def alarm_times(detector, draw, streams, b: float, horizon: int) -> np.ndarray:
    """Alarm time per trial stream (horizon + 1 marks a censored run).

    Trial i runs on `streams[i].generator()`.  `draw(rng) -> Gaussian` may
    consume that generator before the observations do, so a trial's
    parameter draw and its sample path share one substream.  Trials run in
    order on the calling thread.
    """
    streams = list(streams)
    out = np.empty(len(streams), dtype=np.int64)
    for i, stream in enumerate(streams):
        rng = stream.generator()
        res = run_until_alarm(detector, draw(rng), rng, b, horizon)
        out[i] = res.alarm_time if res.alarm_time is not None else horizon + 1
    return out


def alarm_times_gaussian(detector, gaussian: Gaussian, streams, b: float, horizon: int) -> np.ndarray:
    """`alarm_times` with every trial observing the one law `gaussian`."""
    return alarm_times(detector, lambda rng: gaussian, streams, b, horizon)


def calibrate_threshold_mc(
    detector,
    nu0: Gaussian,
    gamma: float,
    streams,
    *,
    horizon: int | None = None,
    progress=None,
) -> float:
    """Bisect on b until the Monte Carlo ARL under nu0 is within 5 % of gamma.

    Censored runs count at the horizon (default ARL_HORIZON_FACTOR * gamma),
    which biases the ARL estimate downward, so the calibrated threshold errs
    conservative.  Every evaluation reuses the `streams` (a sequence of
    SeededStream, one per trial: common random numbers), making the
    estimated ARL monotone in b.  Each trial's path is simulated once and
    only as far as the thresholds tried need.  A certified b <= 0 is itself
    the upper end of the starting bracket; while the ARL at the lower end
    exceeds gamma, the bracket moves down to (2 lo - 10, lo).
    """
    trials = len(streams)
    if trials < MIN_TRIALS:
        raise DomainError(f"calibration needs at least {MIN_TRIALS} trials, got {trials}")
    if not gamma > 1.0:
        raise DomainError(f"gamma must be > 1, got {gamma}")
    horizon = int(horizon if horizon is not None else round(ARL_HORIZON_FACTOR * gamma))
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    b_theory = certified_threshold(gamma, detector)
    lo, hi = (0.1 * b_theory, 2.0 * b_theory + 10.0) if b_theory > 0 else (2.0 * b_theory - 10.0, b_theory)
    runs = [_LazyRun(detector, nu0, stream.generator(), horizon) for stream in streams]
    tol = _CALIBRATION_REL_TOL * gamma

    def arl(b, decide=True):
        """(ARL at b, whether it is exact).  With `decide`, the sum over
        trials stops once the partial mean exceeds gamma + tol; that partial
        mean is a lower bound, and the bisection's decision is the same."""
        times = np.zeros(trials, dtype=np.int64)
        total = 0
        for i, run in enumerate(runs):
            times[i] = t = run.run_length(b)
            total += t
            if decide and total / trials - gamma > tol:
                return total / trials, False
        return float(np.mean(times)), True

    def report(b, val, exact):
        if progress is not None:
            progress(f"calibration: b={b:.5g} ARL{'=' if exact else '>'}{val:.1f} target={gamma:g}")

    def bracket_error(lo, hi):
        arl_lo, arl_hi = arl(lo, decide=False)[0], arl(hi, decide=False)[0]
        return CalibrationError(
            f"failed to bracket ARL={gamma:g}: ARL({lo:.4g})={arl_lo:.4g}, ARL({hi:.4g})={arl_hi:.4g}",
            arl_low=arl_lo,
            arl_high=arl_hi,
        )

    arl_lo, _ = arl(lo)
    if abs(arl_lo - gamma) <= tol:
        return lo
    if arl_lo > gamma:
        for _ in range(_MAX_BRACKET_GROWTH):
            lo, hi = 2.0 * lo - 10.0, lo
            arl_lo, exact = arl(lo)
            report(lo, arl_lo, exact)
            if abs(arl_lo - gamma) <= tol:
                return lo
            if arl_lo < gamma:
                break
        else:
            raise bracket_error(lo, hi)
    elif arl(hi)[0] < gamma:
        raise bracket_error(lo, hi)
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        val, exact = arl(mid)
        report(mid, val, exact)
        if abs(val - gamma) <= tol:
            return mid
        if val > gamma:
            hi = mid
        else:
            lo = mid
    raise bracket_error(lo, hi)
