"""Monte Carlo evaluation (ARL, worst-case detection delay), exact bound
audits, and the four-scenario experiment suite.

Worst-case delay convention: for the reflected CUSUM the essential supremum
over pre-change histories is attained with the statistic at its reset
barrier, and from that state the delay distribution does not depend on where
the change falls.  Delay trials therefore start at the reset state and draw
post-change observations from time 1.

Stream discipline: every Monte Carlo trial owns one substream, with the id
composed as (scenario_index << 48) | (lane << 40) | trial.  Lanes separate
ARL runs, delay runs, calibration, the class members a bound audit checks and
design-time draws, so no two uses ever share a stream.  A trial first
draws its law's parameters, if any, then its path: an affine detector's
path is its increments' normals, one per step; a quadratic detector's is
its d-dimensional observations.  The audit itself draws nothing: each
member's moment is exact.
This module is the only one that composes stream ids.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import ExperimentConfig, ScenarioConfig
from .cusum import MIN_TRIALS, alarm_times, alarm_times_gaussian, calibrate_threshold_mc, certified_threshold
from .errors import DomainError, RobustCusumError
from .gaussian import Gaussian, SeededStream, kl_divergence
from .lfp import build_affine_detector, solve_lfp
from .quadratic import ClassSetup, build_quadratic_detector, llr_detector, solve_saddle

LANE_ARL = 1
LANE_WDD = 2
LANE_CALIBRATION = 3
LANE_VERIFY = 4
LANE_DESIGN = 6


def stream_id(scenario_index: int, lane: int, trial: int) -> int:
    """Compose a collision-free substream id (trial < 2**40)."""
    return (scenario_index << 48) | (lane << 40) | trial


@dataclass(frozen=True)
class RunReport:
    scenario: str
    procedure: str
    d: int
    gamma: float
    b: float
    epsilon_star: float | None
    arl_mean: float
    arl_se: float
    wdd_mean: float
    wdd_sd: float
    censored_fraction: float
    trials: int
    seed: int
    efficiency_factor: float | None = None


# the CSV carries every report field but the human-only efficiency factor
CSV_COLUMNS = tuple(f.name for f in fields(RunReport) if f.name != "efficiency_factor")


def format_cell(value) -> str:
    """One table cell: floats as their round-trip repr, None as empty."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def render_table(header, rows, fmt: str) -> str:
    """Header plus rows of string cells, as CSV (fmt "csv") or as a
    right-aligned table for eyeballing (fmt "human")."""
    all_rows = [list(header)] + [list(r) for r in rows]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in all_rows) + "\n"
    widths = [max(len(r[j]) for r in all_rows) for j in range(len(header))]
    out = []
    for i, row in enumerate(all_rows):
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"


def to_csv(reports) -> str:
    rows = [[format_cell(getattr(r, col)) for col in CSV_COLUMNS] for r in reports]
    return render_table(CSV_COLUMNS, rows, "csv")


def render_human(reports) -> str:
    """Aligned table for eyeballing; CSV is the machine format."""
    float_cols = {"gamma", "b", "epsilon_star", "arl_mean", "arl_se", "wdd_mean", "wdd_sd", "censored_fraction"}
    rows = []
    for r in reports:
        row = []
        for col in CSV_COLUMNS:
            value = getattr(r, col)
            if col in float_cols and value is not None:
                row.append(f"{float(value):.6g}")
            else:
                row.append(format_cell(value))
        row.append("-" if r.efficiency_factor is None else f"{r.efficiency_factor:.4g}")
        rows.append(row)
    return render_table(list(CSV_COLUMNS) + ["efficiency_factor"], rows, "human")


def estimate_arl(detector, b: float, nu0: Gaussian, trials: int, horizon: int, seed: int, *, scenario_index: int = 0):
    """(mean, standard error, censored fraction) of the run length under nu0.

    Censored runs count at the horizon, which biases the mean downward; the
    censored fraction is reported so callers can judge the bias.
    """
    if trials < MIN_TRIALS:
        raise DomainError(f"need at least {MIN_TRIALS} trials, got {trials}")
    streams = [SeededStream(seed, stream_id(scenario_index, LANE_ARL, t)) for t in range(trials)]
    times = alarm_times_gaussian(detector, nu0, streams, b, horizon)
    capped = np.minimum(times, horizon).astype(float)
    mean = float(np.mean(capped))
    se = float(np.std(capped, ddof=1) / math.sqrt(trials))
    censored = float(np.mean(times > horizon))
    return mean, se, censored


def _delay_times(detector, b: float, horizon: int, trials: int, seed: int, scenario_index: int, draw) -> np.ndarray:
    """Alarm times from the reset state, one delay-lane stream per trial;
    `draw(rng) -> Gaussian` gives each trial its post-change law."""
    streams = [SeededStream(seed, stream_id(scenario_index, LANE_WDD, i)) for i in range(trials)]
    return alarm_times(detector, draw, streams, b, horizon)


def delay_summary(times: np.ndarray, horizon: int):
    """(mean, sd, censored count) of delays; trials censored past the horizon
    are excluded.  Both moments are nan when no trial is kept; the sd of a
    single kept trial is 0."""
    kept = times[times <= horizon].astype(float)
    censored = int(times.size - kept.size)
    if kept.size == 0:
        return math.nan, math.nan, censored
    sd = float(np.std(kept, ddof=1)) if kept.size > 1 else 0.0
    return float(np.mean(kept)), sd, censored


def estimate_wdd(detector, b: float, draw, trials: int, horizon: int, seed: int, *, scenario_index: int = 0):
    """(mean, standard deviation, censored count) of the worst-case detection
    delay; `draw(rng) -> Gaussian` gives each trial its post-change law.

    Change at time 1 with the statistic at the reset barrier (from the reset
    state the delay law is the same for every change time).  Censored trials
    are excluded from the moments and counted.
    """
    if trials < MIN_TRIALS:
        raise DomainError(f"need at least {MIN_TRIALS} trials, got {trials}")
    times = _delay_times(detector, b, horizon, trials, seed, scenario_index, draw)
    return delay_summary(times, horizon)


# ---------------------------------------------------------------------------
# detector bound audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    side: int  # 0: E[exp(-phi)] under a pre-change member; 1: E[exp(+phi)] post-change
    index: int
    value: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class BoundReport:
    entries: tuple
    epsilon_star: float

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def verify_detector_bounds(detector, p0_members, p1_members) -> BoundReport:
    """Check the certified exponential-moment bounds member by member.

    Each member's moment is the detector's exact Gaussian moment; a member
    passes when it is at most epsilon_star (plus 1e-10 for rounding) and
    fails when it exceeds it or diverges.
    """
    eps = getattr(detector, "epsilon_star", None)
    if eps is None:
        raise DomainError("detector carries no certified risk to audit")
    entries = []
    for side, members in ((0, p0_members), (1, p1_members)):
        for idx, member in enumerate(members):
            value = detector.moment(member, 1.0 if side else -1.0)
            entries.append(BoundCheck(side=side, index=idx, value=value, bound=eps, passed=value <= eps + 1e-10))
    return BoundReport(entries=tuple(entries), epsilon_star=eps)


def class_members(cfg: ExperimentConfig, scen: ScenarioConfig, prep: PreparedScenario, n_members: int):
    """Gaussians sampled from the scenario's declared classes."""
    rng = SeededStream(cfg.seed, stream_id(scen.index, LANE_VERIFY, 1 << 30)).generator()
    (mean0, cov0), (mean1, cov1) = scen.classes
    members0, members1 = [], []
    if scen.kind == "mean_shift":
        sol = prep.solution
        members0.append(Gaussian(sol.mu0_star, cov0))
        members1.append(Gaussian(sol.mu1_star, cov1))
        for _ in range(n_members - 1):
            members0.append(Gaussian(mean0.sample_member(rng), cov0))
            members1.append(Gaussian(mean1.sample_member(rng), cov1))
    else:
        for _ in range(n_members):
            members0.append(Gaussian(mean0, cov0.sample_member(rng)))
            members1.append(Gaussian(mean1, cov1.sample_member(rng)))
    return members0, members1


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedScenario:
    """Solved detectors and scenario context, before any simulation."""

    config: ScenarioConfig
    robust_detector: object
    baseline_detector: object
    nu0_true: Gaussian
    efficiency_factor: float | None
    post_draw: object  # draw(rng) -> Gaussian, per-trial true post-change law
    solution: object

    @property
    def procedures(self):
        return (("robust", self.robust_detector), ("baseline", self.baseline_detector))


@contextlib.contextmanager
def _failure_context(where: str):
    """Re-raise any package error with `where: ` leading its message; the
    exception keeps its type and the diagnostics it carries."""
    try:
        yield
    except RobustCusumError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def prepare_scenario(cfg: ExperimentConfig, scen: ScenarioConfig, *, progress=None) -> PreparedScenario:
    (mean0, cov0), (mean1, cov1) = scen.classes
    if progress:
        progress(f"{scen.name}: solving detector")
    with _failure_context(scen.name):
        if scen.kind == "mean_shift":
            sol = solve_lfp(mean0, mean1, cov0, cfg.lfp_options)
            robust = build_affine_detector(sol, cov0)
            design_rng = None  # a mean-shift baseline draws nothing
        else:
            setup0 = ClassSetup(cov0, mean0)
            setup1 = ClassSetup(cov1, mean1)
            sol = solve_saddle(setup0, setup1, cfg.saddle_options)
            robust = build_quadratic_detector(sol, setup0, setup1)
            design_rng = SeededStream(cfg.seed, stream_id(scen.index, LANE_DESIGN, 0)).generator()
        nu0_true = Gaussian(*scen.pre_law)
        base_post = Gaussian(*scen.baseline_post(design_rng))
        baseline = llr_detector(Gaussian(*scen.baseline_pre), base_post)

    def post_draw(rng):
        mean, cov = scen.post_law(rng)
        # a mean shift keeps the pre-change covariance: reuse nu0_true's factor
        return nu0_true.with_mean(mean) if scen.kind == "mean_shift" else Gaussian(mean, cov)

    eps = sol.epsilon_star
    efficiency = kl_divergence(nu0_true, base_post) / (2.0 * (1.0 - eps)) if eps < 1.0 else None
    return PreparedScenario(scen, robust, baseline, nu0_true, efficiency, post_draw, sol)


def calibrated_threshold(cfg: ExperimentConfig, prep: PreparedScenario, detector, procedure: str, *, progress=None) -> float:
    """Monte Carlo threshold under the true pre-change law; each procedure
    calibrates on its own block of the scenario's calibration lane."""
    if progress:
        progress(f"{prep.config.name}/{procedure}: calibrating threshold")
    lane_offset = 0 if procedure == "robust" else 1 << 30
    ids = (stream_id(prep.config.index, LANE_CALIBRATION, lane_offset | t) for t in range(cfg.arl_trials))
    streams = [SeededStream(cfg.seed, sid) for sid in ids]
    with _failure_context(f"{prep.config.name}/{procedure}"):
        return calibrate_threshold_mc(
            detector, prep.nu0_true, cfg.gamma, streams, horizon=cfg.arl_horizon, progress=progress
        )


def pick_threshold(cfg: ExperimentConfig, prep: PreparedScenario, detector, procedure: str, *, progress=None) -> float:
    """The threshold the config's `threshold_mode` asks for."""
    if cfg.threshold_mode == "theoretical":
        return certified_threshold(cfg.gamma, detector)
    return calibrated_threshold(cfg, prep, detector, procedure, progress=progress)


def run_scenario(cfg: ExperimentConfig, scen: ScenarioConfig, *, progress=None) -> list[RunReport]:
    """Prepare one scenario and evaluate both procedures; one report each."""
    prep = prepare_scenario(cfg, scen, progress=progress)
    reports = []
    for procedure, detector in prep.procedures:
        b = pick_threshold(cfg, prep, detector, procedure, progress=progress)
        if progress:
            progress(f"{scen.name}/{procedure}: ARL at b={b:.5g}")
        # both procedures reuse the same per-trial streams: each trial draws
        # one true parameter and one path, evaluated by both detectors
        arl_mean, arl_se, censored = estimate_arl(
            detector, b, prep.nu0_true, cfg.arl_trials, cfg.arl_horizon, cfg.seed, scenario_index=scen.index
        )
        if progress:
            progress(f"{scen.name}/{procedure}: delays")
        wdd_mean, wdd_sd, _ = estimate_wdd(
            detector, b, prep.post_draw, scen.delay_trials, cfg.delay_horizon, cfg.seed, scenario_index=scen.index
        )
        reports.append(
            RunReport(
                scenario=scen.name,
                procedure=procedure,
                d=cfg.dimension,
                gamma=cfg.gamma,
                b=b,
                epsilon_star=prep.solution.epsilon_star if procedure == "robust" else None,
                arl_mean=arl_mean,
                arl_se=arl_se,
                wdd_mean=wdd_mean,
                wdd_sd=wdd_sd,
                censored_fraction=censored,
                trials=scen.delay_trials,
                seed=cfg.seed,
                efficiency_factor=prep.efficiency_factor if procedure == "robust" else None,
            )
        )
    return reports


def run_experiment(cfg: ExperimentConfig, *, progress=None) -> list[RunReport]:
    """Run every configured scenario with both procedures; one report per
    (scenario, procedure) pair, in configuration order."""
    return [r for scen in cfg.scenarios for r in run_scenario(cfg, scen, progress=progress)]
