"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The long-running criteria (5, 6, 10) print their runtimes; their budgets are
asserted as part of the criterion.
"""

import io
import json
import math
import time
import contextlib

import numpy as np
import pytest

from robustcusum import (
    ClassSetup,
    Gaussian,
    L1Ball,
    L2Ball,
    SeededStream,
    SingletonMean,
    SingletonPSD,
    SingletonVector,
    SpectralBall,
    build_affine_detector,
    build_quadratic_detector,
    load_bundled_config,
    solve_lfp,
    solve_saddle,
    step,
    threshold_from_gamma,
    verify_detector_bounds,
)
from robustcusum.cli import dispatch
from robustcusum.cusum import CusumState, alarm_times_gaussian
from robustcusum.simulate import LANE_ARL, _delay_times, run_experiment, stream_id


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_lfp_l2_closed_form():
    d = 30
    t0 = time.perf_counter()
    sol = solve_lfp(SingletonVector(np.zeros(d)), L2Ball(np.ones(d), math.sqrt(27.0)), np.eye(d))
    elapsed = time.perf_counter() - t0
    target = (math.sqrt(30.0) - math.sqrt(27.0)) ** 2
    coord = 1.0 - math.sqrt(27.0 / 30.0)
    ok = (
        abs(sol.delta_sq - target) <= 1e-6
        and np.all(np.abs(sol.mu1_star - coord) <= 1e-6)
        and elapsed < 1.0
    )
    _report(1, ok, f"delta_sq={sol.delta_sq:.9f} (target {target:.9f}), runtime {elapsed*1e3:.1f} ms")


def test_criterion_02_lfp_l1_closed_form():
    d = 30
    sol = solve_lfp(SingletonVector(np.zeros(d)), L1Ball(np.ones(d), 27.0), np.eye(d))
    ok = abs(sol.delta_sq - 0.3) <= 1e-6 and abs(sol.epsilon_star - math.exp(-0.0375)) <= 1e-6
    _report(2, ok, f"delta_sq={sol.delta_sq:.9f}, eps*={sol.epsilon_star:.9f}")


def test_criterion_03_epsilon_formula_exact():
    sol = solve_lfp(SingletonVector(np.zeros(2)), SingletonVector(np.array([2.0, 2.0])), np.eye(2))
    ok = abs(sol.epsilon_star - math.exp(-1.0)) <= 1e-12
    _report(3, ok, f"eps* - e^-1 = {sol.epsilon_star - math.exp(-1.0):.3e}")


def test_criterion_04_exponential_moment_balance():
    d = 12
    sigma = np.diag(np.linspace(0.5, 3.0, d))
    sol = solve_lfp(SingletonVector(np.zeros(d)), L1Ball(np.ones(d), 4.0), sigma)
    det = build_affine_detector(sol, sigma)
    m0 = det.moment(Gaussian(sol.mu0_star, sigma), -1.0)
    m1 = det.moment(Gaussian(sol.mu1_star, sigma), 1.0)
    ok = abs(m0 - sol.epsilon_star) <= 1e-10 and abs(m1 - sol.epsilon_star) <= 1e-10
    _report(4, ok, f"|E0 - eps*|={abs(m0 - sol.epsilon_star):.2e}, |E1 - eps*|={abs(m1 - sol.epsilon_star):.2e}")


def _l1_scenario_d5():
    d, gamma = 5, 500.0
    sol = solve_lfp(SingletonVector(np.zeros(d)), L1Ball(np.ones(d), 0.9 * d), np.eye(d))
    det = build_affine_detector(sol, np.eye(d))
    return d, gamma, sol, det


def test_criterion_05_certified_threshold_meets_arl_target():
    t0 = time.perf_counter()
    d, gamma, sol, det = _l1_scenario_d5()
    b = threshold_from_gamma(gamma, sol.epsilon_star)
    trials, horizon = 5000, 25_000
    streams = [SeededStream(505, stream_id(0, LANE_ARL, t)) for t in range(trials)]
    times = alarm_times_gaussian(det, Gaussian(np.zeros(d), np.eye(d)), streams, b, horizon)
    capped = np.minimum(times, horizon).astype(float)
    mean = float(np.mean(capped))
    se = float(np.std(capped, ddof=1) / math.sqrt(trials))
    elapsed = time.perf_counter() - t0
    ok = mean >= gamma - 3.0 * se and elapsed < 300.0
    _report(5, ok, f"ARL={mean:.1f} (se {se:.1f}) >= {gamma} - 3se at b={b:.4f}; runtime {elapsed:.1f} s")


def test_criterion_06_delay_growth_slope_bound():
    t0 = time.perf_counter()
    d, gamma, sol, det = _l1_scenario_d5()
    nu1_star = Gaussian(sol.mu1_star, np.eye(d))
    bs = np.array([8.0, 12.0, 16.0, 20.0])
    means = []
    for b in bs:
        # same per-trial streams for every b: delay is monotone pathwise
        times = _delay_times(det, float(b), 1_000_000, 2000, seed=606, scenario_index=0, draw=lambda rng: nu1_star)
        means.append(float(np.mean(times)))
    slope = float(np.polyfit(bs, means, 1)[0])
    bound = 1.15 / (1.0 - sol.epsilon_star)
    elapsed = time.perf_counter() - t0
    ok = slope <= bound and elapsed < 600.0
    _report(6, ok, f"slope={slope:.1f} <= {bound:.1f}; delays {[round(m,1) for m in means]}; runtime {elapsed:.1f} s")


def test_criterion_07_recursion_equals_brute_force():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        inc = rng.normal(size=1000) * rng.uniform(0.5, 3.0)
        state = CusumState(threshold=math.inf)
        rec = np.empty(1000)
        for t, x in enumerate(inc):
            state = step(state, float(x))
            rec[t] = state.statistic
        # independent oracle: fresh reversed-order summation per time point
        brute = np.array([np.max(np.cumsum(inc[t::-1])) for t in range(1000)])
        worst = max(worst, float(np.max(np.abs(rec - brute))))
    ok = worst <= 1e-12
    _report(7, ok, f"max |recursive - brute force| = {worst:.2e}")


def test_criterion_08_saddle_degenerate_consistency():
    details = []
    ok = True
    for dsq in (2.0, 8.0):
        d = 3
        u1 = np.zeros(d)
        u1[0] = math.sqrt(dsq)
        target = math.exp(-dsq / 8.0)
        # brute-force affine oracle: a = -s*(u1-u0) direction x offset grid,
        # minimizing the worse of the two closed-form exponential moments
        best = math.inf
        for s in np.linspace(0.05, 1.2, 120):
            a = -s * u1
            quad = 0.5 * float(a @ a)
            for c in np.linspace(-3.0, 3.0, 241):
                best = min(best, max(math.exp(-c + quad), math.exp(float(a @ u1) + c + quad)))
        assert abs(best - target) <= 2e-3, "oracle disagrees with closed form"
        s0 = ClassSetup(SingletonPSD(np.eye(d)), SingletonMean(np.zeros(d)))
        s1 = ClassSetup(SingletonPSD(np.eye(d)), SingletonMean(u1))
        sol = solve_saddle(s0, s1)
        ok = ok and sol.gap <= 1e-4 and abs(math.exp(sol.sv) - target) <= 1e-2
        details.append(f"dsq={dsq}: exp(sv)={math.exp(sol.sv):.6f} vs {target:.6f}, gap={sol.gap:.1e}")
    _report(8, ok, "; ".join(details))


def test_criterion_09_quadratic_detector_bound_audit():
    d = 5
    s0 = ClassSetup(SingletonPSD(np.eye(d)), SingletonMean(np.zeros(d)))
    ball = SpectralBall(0.5, d)
    s1 = ClassSetup(ball, SingletonMean(np.zeros(d)))
    sol = solve_saddle(s0, s1)
    det = build_quadratic_detector(sol, s0, s1)
    rng = np.random.default_rng(909)
    jitter = 1e-9 * np.eye(d)
    members0 = [Gaussian(np.zeros(d), np.eye(d))]
    members1 = [Gaussian(np.zeros(d), ball.sample_member(rng) + jitter) for _ in range(19)]
    report = verify_detector_bounds(det, members0, members1)
    worst = max(e.value - e.bound for e in report.entries)
    ok = report.all_passed and len(report.entries) == 20
    _report(9, ok, f"20 members audited against exp(sv)={math.exp(sol.sv):.6f}; worst margin {worst:.2e}")


@pytest.fixture(scope="module")
def desk_table():
    t0 = time.perf_counter()
    cfg = load_bundled_config("table1_desk.cfg")
    reports = run_experiment(cfg)
    return reports, time.perf_counter() - t0


def test_criterion_10_table1_desk_reproduction(desk_table):
    reports, elapsed = desk_table
    by_key = {(r.scenario, r.procedure): r for r in reports}
    lines = []
    ok = elapsed < 1200.0
    for name in ("l1_mean", "l2_mean", "cov_spectral"):
        rob, base = by_key[(name, "robust")], by_key[(name, "baseline")]
        ok = ok and rob.wdd_mean < base.wdd_mean
        lines.append(f"{name}: {rob.wdd_mean:.2f} < {base.wdd_mean:.2f}")
    rob, base = by_key[("cov_interval", "robust")], by_key[("cov_interval", "baseline")]
    ratio = rob.wdd_mean / base.wdd_mean
    ok = ok and 0.5 <= ratio <= 2.0
    lines.append(f"cov_interval ratio {ratio:.2f} in [0.5, 2.0]")
    _report(10, ok, "; ".join(lines) + f"; runtime {elapsed:.0f} s")


def test_criterion_11_cli_golden_determinism(tmp_path):
    raw = {
        "dimension": 3,
        "gamma": 200.0,
        "arl_trials": 100,
        "delay_trials": 100,
        "seed": 5,
        "threshold_mode": "calibrated",
        "scenarios": [
            {
                "name": "mean_row",
                "kind": "mean_shift",
                "m0": {"variant": "singleton", "point": "zeros"},
                "m1": {"variant": "l1_ball", "center": "ones", "radius": 1.5},
                "sigma": "identity",
                "true_post_mean": {"kind": "uniform_entries", "low": 0.1, "high": 0.5},
                "baseline": {"post_mean": "ones"},
            },
            {
                "name": "cov_row",
                "kind": "covariance_shift",
                "u0": {"variant": "singleton_psd", "matrix": "identity"},
                "u1": {"variant": "spectral_ball", "radius": 0.5},
                "true_post_cov": {"kind": "random_member"},
                "baseline": {"post_cov": {"kind": "random_member"}},
            },
        ],
    }
    cfg_path = tmp_path / "golden.cfg"
    cfg_path.write_text(json.dumps(raw))
    blobs = {}
    for tag, extra in (("run1", ["--threads", "1"]), ("run2", ["--threads", "1"]), ("run8", ["--threads", "8"])):
        out_path = tmp_path / f"{tag}.csv"
        argv = ["experiment", "--config", str(cfg_path), "--out", str(out_path), "--quiet"] + extra
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = dispatch(argv)
        assert code == 0
        blobs[tag] = out_path.read_bytes()
    # the lfp golden exercises the stdout path as well
    stdouts = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert dispatch(["lfp", "--config", "l1_mean.cfg", "--quiet"]) == 0
        stdouts.append(buf.getvalue())
    ok = blobs["run1"] == blobs["run2"] == blobs["run8"] and stdouts[0] == stdouts[1]
    _report(11, ok, f"experiment goldens {len(blobs['run1'])} bytes identical across runs and threads 1/8; lfp stdout stable")
