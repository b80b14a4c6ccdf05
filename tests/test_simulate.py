import json
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from robustcusum import (
    DomainError,
    Gaussian,
    L1Ball,
    SeededStream,
    SingletonVector,
    build_affine_detector,
    estimate_arl,
    estimate_wdd,
    parse_config,
    run_experiment,
    solve_lfp,
    threshold_from_gamma,
    to_csv,
    verify_detector_bounds,
)
from robustcusum.gaussian import sample_with
from robustcusum.simulate import CSV_COLUMNS, _delay_times, delay_summary, prepare_scenario, render_human


class ConstantDetector:
    def __init__(self, increment, epsilon_star=None):
        self.increment = increment
        self.epsilon_star = epsilon_star

    def increments(self, observations):
        return np.full(len(np.atleast_2d(observations)), self.increment, dtype=float)


NU = Gaussian(np.zeros(1), np.eye(1))


def _mini_config(**overrides):
    raw = {
        "dimension": 4,
        "gamma": 200.0,
        "arl_trials": 100,
        "delay_trials": 100,
        "seed": 11,
        "threshold_mode": "calibrated",
        "scenarios": [
            {
                "name": "mean_row",
                "kind": "mean_shift",
                "m0": {"variant": "singleton", "point": "zeros"},
                "m1": {"variant": "l1_ball", "center": "ones", "radius": 2.0},
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
    raw.update(overrides)
    return parse_config(json.dumps(raw))


def test_estimate_arl_deterministic_ramp():
    mean, se, censored = estimate_arl(ConstantDetector(1.0), 10.0, NU, trials=100, horizon=100, seed=0)
    assert mean == 10.0 and se == 0.0 and censored == 0.0


def test_estimate_arl_censors_at_horizon():
    mean, se, censored = estimate_arl(ConstantDetector(-1.0), 10.0, NU, trials=100, horizon=77, seed=0)
    assert mean == 77.0 and censored == 1.0


def test_estimate_arl_reproducible():
    sol = solve_lfp(SingletonVector(np.zeros(1)), SingletonVector(np.array([0.6])), np.eye(1))
    det = build_affine_detector(sol, np.eye(1))
    a = estimate_arl(det, 2.0, NU, trials=100, horizon=5000, seed=42)
    b = estimate_arl(det, 2.0, NU, trials=100, horizon=5000, seed=42)
    assert a == b


def test_estimate_wdd_deterministic_ramp():
    mean, sd, censored = estimate_wdd(ConstantDetector(1.0), 10.0, lambda rng: NU, trials=100, horizon=10_000, seed=0)
    assert mean == 10.0 and sd == 0.0 and censored == 0


def test_estimate_wdd_monotone_in_threshold():
    sol = solve_lfp(SingletonVector(np.zeros(2)), SingletonVector(np.array([0.4, 0.4])), np.eye(2))
    det = build_affine_detector(sol, np.eye(2))
    nu1 = Gaussian(np.array([0.4, 0.4]), np.eye(2))
    means = [estimate_wdd(det, b, lambda rng: nu1, trials=150, horizon=10_000, seed=3)[0] for b in (2.0, 4.0, 8.0)]
    assert means[0] < means[1] < means[2]


def test_estimate_wdd_excludes_and_counts_censored():
    mean, sd, censored = estimate_wdd(ConstantDetector(-1.0), 5.0, lambda rng: NU, trials=100, horizon=50, seed=0)
    assert math.isnan(mean) and math.isnan(sd) and censored == 100


def test_delay_summary_censoring_edges():
    mean, sd, censored = delay_summary(np.array([51, 60]), 50)
    assert math.isnan(mean) and math.isnan(sd) and censored == 2
    assert delay_summary(np.array([7, 51]), 50) == (7.0, 0.0, 1)
    assert delay_summary(np.array([4, 6, 51]), 50) == (5.0, math.sqrt(2.0), 1)


def test_verify_bounds_affine_exact_at_least_favorable_pair():
    d = 6
    sol = solve_lfp(SingletonVector(np.zeros(d)), L1Ball(np.ones(d), 0.6 * d), np.eye(d))
    det = build_affine_detector(sol, np.eye(d))
    g0 = Gaussian(sol.mu0_star, np.eye(d))
    g1 = Gaussian(sol.mu1_star, np.eye(d))
    report = verify_detector_bounds(det, [g0], [g1])
    assert report.all_passed
    for entry in report.entries:
        assert entry.value == pytest.approx(sol.epsilon_star, abs=1e-10)


def test_verify_bounds_member_moved_against_detector_is_below():
    # the exact moment is exp(-a.mu - c + a.Sigma.a/2): increasing a.mu lowers
    # it, so shifting the member along +a moves the moment strictly below eps*
    d = 3
    sol = solve_lfp(SingletonVector(np.zeros(d)), SingletonVector(0.5 * np.ones(d)), np.eye(d))
    det = build_affine_detector(sol, np.eye(d))
    shifted = Gaussian(sol.mu0_star + 0.5 * det.a, np.eye(d))
    report = verify_detector_bounds(det, [shifted], [])
    assert report.entries[0].value < sol.epsilon_star


def test_verify_bounds_requires_certificate():
    with pytest.raises(DomainError, match="certified"):
        verify_detector_bounds(ConstantDetector(1.0), [NU], [NU])


def test_run_experiment_mini_schema_and_determinism():
    cfg = _mini_config()
    reports = run_experiment(cfg)
    assert len(reports) == 4  # 2 scenarios x 2 procedures
    assert [r.scenario for r in reports] == ["mean_row", "mean_row", "cov_row", "cov_row"]
    assert [r.procedure for r in reports] == ["robust", "baseline"] * 2
    csv_text = to_csv(reports)
    header = csv_text.splitlines()[0].split(",")
    assert header == list(CSV_COLUMNS)
    again = to_csv(run_experiment(cfg))
    assert again == csv_text
    # robust rows carry the certificate; baseline rows do not
    assert reports[0].epsilon_star is not None and reports[1].epsilon_star is None
    assert reports[0].efficiency_factor is not None and reports[1].efficiency_factor is None
    human = render_human(reports)
    assert "scenario" in human and "robust" in human


def test_run_experiment_respects_scenario_delay_trials():
    cfg = _mini_config()
    raw = json.loads(json.dumps(cfg.raw))
    raw["scenarios"][0]["delay_trials"] = 150
    cfg2 = parse_config(json.dumps(raw))
    reports = run_experiment(cfg2)
    assert reports[0].trials == 150 and reports[2].trials == 100


def test_theoretical_threshold_arl_exceeds_gamma_all_scenarios():
    # the certified threshold's run-length guarantee, audited end to end
    # (l1, l2, interval, spectral), at a trimmed scale
    extra = [
        {
            "name": "l2_row",
            "kind": "mean_shift",
            "m0": {"variant": "singleton", "point": "zeros"},
            "m1": {"variant": "l2_ball", "center": "ones", "radius": 1.0},
            "sigma": "identity",
            "true_post_mean": {"kind": "uniform_entries", "low": 0.1, "high": 0.5},
            "baseline": {"post_mean": "ones"},
        },
        {
            "name": "interval_row",
            "kind": "covariance_shift",
            "u0": {"variant": "singleton_psd", "matrix": "identity"},
            "u1": {
                "variant": "interval",
                "base": "identity",
                "direction": "squared_exp_offdiag",
                "sigma_range": [0.5, 1.0],
            },
            "true_post_cov": {"kind": "uniform_sigma"},
            "baseline": {"post_cov": {"kind": "interval_point", "sigma": 0.75}},
        },
    ]
    cfg = _mini_config(threshold_mode="theoretical", gamma=60.0, arl_trials=150)
    raw = json.loads(json.dumps(cfg.raw))
    raw["scenarios"].extend(extra)
    cfg = parse_config(json.dumps(raw))
    reports = run_experiment(cfg)
    assert len(reports) == 8
    for r in reports:
        if r.procedure != "robust":
            continue
        assert r.arl_mean >= cfg.gamma - 3.0 * r.arl_se, (r.scenario, r.arl_mean, r.arl_se)


def test_wdd_distribution_invariant_to_pre_change_member_singleton():
    # degenerate identity check: singleton M0 has one member; two independent
    # delay samples from it must look alike (KS distance small)
    d = 3
    sol = solve_lfp(SingletonVector(np.zeros(d)), SingletonVector(0.4 * np.ones(d)), np.eye(d))
    det = build_affine_detector(sol, np.eye(d))
    nu1 = Gaussian(0.4 * np.ones(d), np.eye(d))
    t1 = _delay_times(det, 3.0, 10_000, 300, seed=1, scenario_index=0, draw=lambda rng: nu1)
    t2 = _delay_times(det, 3.0, 10_000, 300, seed=2, scenario_index=0, draw=lambda rng: nu1)
    stat = ks_2samp(t1, t2).statistic
    assert stat <= 0.15


def test_delay_times_thread_count_invariance():
    d = 2
    sol = solve_lfp(SingletonVector(np.zeros(d)), SingletonVector(0.5 * np.ones(d)), np.eye(d))
    det = build_affine_detector(sol, np.eye(d))
    nu1 = Gaussian(0.5 * np.ones(d), np.eye(d))
    # two runs on the same streams agree trial for trial
    a = _delay_times(det, 4.0, 5_000, 120, seed=9, scenario_index=1, draw=lambda rng: nu1)
    b = _delay_times(det, 4.0, 5_000, 120, seed=9, scenario_index=1, draw=lambda rng: nu1)
    assert np.array_equal(a, b)


def test_mean_shift_post_draw_shares_the_pre_change_factor(monkeypatch):
    cfg = _mini_config()
    scen = cfg.scenarios[0]
    prep = prepare_scenario(cfg, scen)
    real_cholesky = np.linalg.cholesky
    factored = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or real_cholesky(a))
    streams = [SeededStream(cfg.seed, i) for i in range(100)]
    laws = [prep.post_draw(stream.generator()) for stream in streams]
    assert not factored, f"{len(factored)} draws factored their covariance"
    monkeypatch.undo()
    for stream, law in zip(streams, laws):
        rng, fresh_rng = stream.generator(), stream.generator()
        assert np.array_equal(prep.post_draw(rng).mean, law.mean)
        fresh = Gaussian(*scen.post_law(fresh_rng))
        for attr in ("mean", "covariance", "factor"):
            assert np.array_equal(getattr(law, attr), getattr(fresh, attr))
        assert law.factor is prep.nu0_true.factor
        assert np.array_equal(sample_with(law, rng, 40), sample_with(fresh, fresh_rng, 40))


def test_threshold_from_gamma_feeds_simulation():
    # plumbing check: the certified threshold is what the runner uses in
    # theoretical mode for robust procedures
    cfg = _mini_config(threshold_mode="theoretical")
    reports = run_experiment(cfg)
    robust = reports[0]
    assert robust.b == pytest.approx(threshold_from_gamma(cfg.gamma, robust.epsilon_star), abs=1e-12)
