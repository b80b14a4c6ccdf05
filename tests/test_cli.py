import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from robustcusum.cli import dispatch


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


MINI_CONFIG = {
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


@pytest.fixture(scope="module")
def mini_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.cfg"
    path.write_text(json.dumps(MINI_CONFIG))
    return str(path)


def test_lfp_bundled_config_prints_solution():
    code, out, err = run_cli(["lfp", "--config", "l1_mean.cfg", "--quiet"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("scenario,delta_sq,epsilon_star")
    fields = lines[1].split(",")
    assert abs(float(fields[1]) - 0.3) < 1e-6
    assert abs(float(fields[2]) - 0.963194) < 1e-6


def test_unknown_flag_exits_one_with_usage_on_stderr():
    code, out, err = run_cli(["experiment", "--config", "x.cfg", "--bogus"])
    assert code == 1
    assert out == ""
    assert "usage" in err


def test_unknown_subcommand_exits_one():
    code, out, err = run_cli(["frobnicate"])
    assert code == 1 and out == ""


@pytest.mark.parametrize(
    "path",
    [
        "/nonexistent/path.cfg",
        str(Path(__file__).resolve().parent),
        "",  # resolves to the bundled configs/ directory
        str(Path(__file__).resolve().parent / "data" / "not_utf8.cfg"),  # starts with the bytes ff fe
    ],
    ids=["missing", "directory", "empty", "not-utf8"],
)
def test_missing_config_is_validation_error(path):
    code, out, err = run_cli(["experiment", "--config", path])
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_fails_before_any_scenario_is_prepared(tmp_path, monkeypatch, where):
    from robustcusum import cli, simulate

    def never(*args, **kwargs):
        raise AssertionError("a scenario was prepared before --out was checked")

    monkeypatch.setattr(cli, "prepare_scenario", never)
    monkeypatch.setattr(simulate, "prepare_scenario", never)
    out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    code, stdout, err = run_cli(["experiment", "--config", "table1_desk.cfg", "--quiet", "--out", str(out)])
    assert code == 1 and stdout == ""
    assert "Traceback" not in err
    reason = "no such directory" if where == "missing-directory" else "is a directory"
    assert f"--out: cannot write '{out}' ({reason})" in err


def test_write_failure_of_out_is_a_flag_error(tmp_path):
    # a write that fails after the up-front check (a race, a full disk) still
    # ends in the one-line error, not a traceback
    from robustcusum import cli
    from robustcusum.errors import FlagError

    with pytest.raises(FlagError, match="--out: cannot write"):
        cli._emit("x\n", str(tmp_path))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["experiment", "--out", "/nonexistent/x.csv"], "error: --out: cannot write '/nonexistent/x.csv' (no such directory)\n"),
        (["experiment", "--scenario", "nope"], "error: --scenario: no scenario named 'nope'\n"),
        (
            ["lfp", "--config", "table1_desk.cfg", "--scenario", "cov_spectral"],
            "error: --scenario: 'cov_spectral' is a covariance_shift scenario; lfp solves only mean_shift scenarios\n",
        ),
        (
            ["detector", "--config", "table1_desk.cfg", "--scenario", "l1_mean"],
            "error: --scenario: 'l1_mean' is a mean_shift scenario; detector solves only covariance_shift scenarios\n",
        ),
        (
            ["detector", "--config", "l1_mean.cfg"],
            "error: detector: config 'l1_mean.cfg' has no covariance_shift scenario\n",
        ),
        (["lfp", "--config", "nope.cfg"], "error: --config: no such file or bundled config 'nope.cfg'\n"),
    ],
    ids=["out", "scenario", "lfp-scenario-kind", "detector-scenario-kind", "detector-no-scenario", "missing-config"],
)
def test_flag_error_is_not_reported_as_a_config_problem(mini_cfg, argv, message):
    if "--config" not in argv:
        argv = argv + ["--config", mini_cfg]
    code, out, err = run_cli(argv + ["--quiet"])
    assert code == 1 and out == ""
    assert err == message


def test_trials_start_no_thread(mini_cfg, tmp_path, monkeypatch):
    import threading

    def refuse(self):
        raise AssertionError("a Monte Carlo trial started a thread")

    paths = [tmp_path / "t1.csv", tmp_path / "t4.csv"]
    code, _, err = run_cli(["edd", "--config", mini_cfg, "--quiet", "--threads", "1", "--out", str(paths[0])])
    assert code == 0, err
    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, _, err = run_cli(["edd", "--config", mini_cfg, "--quiet", "--threads", "4", "--out", str(paths[1])])
    assert code == 0, err
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_package_starts_without_scipy():
    # scipy is a test-only dependency: importing the CLI and parsing the
    # paper config must not load it
    import robustcusum

    script = (
        "import sys, robustcusum, robustcusum.cli\n"
        "from robustcusum.config import bundled_config_path\n"
        "robustcusum.parse_config(bundled_config_path('table1_paper.cfg').read_text(encoding='utf-8'))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(robustcusum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_invalid_config_lists_violations(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("{\"dimension\": 0}")
    code, out, err = run_cli(["experiment", "--config", str(bad)])
    assert code == 1
    assert "dimension" in err and out == ""


def test_experiment_mini_csv_schema(mini_cfg, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, err = run_cli(["experiment", "--config", mini_cfg, "--out", str(out_path), "--quiet", "--threads", "1"])
    assert code == 0
    assert out == ""  # artifact went to the file
    lines = out_path.read_text().splitlines()
    assert lines[0] == "scenario,procedure,d,gamma,b,epsilon_star,arl_mean,arl_se,wdd_mean,wdd_sd,censored_fraction,trials,seed"
    assert len(lines) == 5  # header + 2 scenarios x 2 procedures


def test_experiment_golden_two_runs_and_thread_counts(mini_cfg, tmp_path):
    paths = [tmp_path / f"t{i}.csv" for i in range(3)]
    for path, threads in zip(paths, ("1", "8", "1")):
        code, _, _ = run_cli(
            ["experiment", "--config", mini_cfg, "--out", str(path), "--quiet", "--threads", threads]
        )
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_seed_flag_overrides_config_seed(mini_cfg, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["experiment", "--config", mini_cfg, "--out", str(a), "--quiet", "--seed", "5"])
    run_cli(["experiment", "--config", mini_cfg, "--out", str(b), "--quiet", "--seed", "77"])
    ta, tb = a.read_text(), b.read_text()
    assert ta != tb
    assert ta.splitlines()[1].endswith(",5")
    assert tb.splitlines()[1].endswith(",77")


def test_detector_subcommand_reports_gap(mini_cfg):
    code, out, err = run_cli(["detector", "--config", mini_cfg, "--quiet"])
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header.split(",")[:4] == ["scenario", "sv", "gap", "epsilon_star"]
    gap = float(row.split(",")[2])
    assert 0.0 <= gap <= 1e-4


def test_verify_subcommand_all_pass(mini_cfg):
    code, out, err = run_cli(["verify", "--config", mini_cfg, "--quiet", "--members", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("status")
    assert all(line.endswith("pass") for line in lines[1:])


def test_verify_passes_a_singleton_against_a_growing_variance(tmp_path):
    # pre-change: the singleton I; post-change: a variance increase to
    # (1 + sigma) I, sigma in [1, 3].  The singleton's exact moment is eps*
    # to within rounding, so an audited law other than N(0, I) reads as FAIL
    raw = {
        **MINI_CONFIG,
        "dimension": 10,
        "threshold_mode": "theoretical",
        "scenarios": [
            {
                "name": "cov_growth",
                "kind": "covariance_shift",
                "u0": {"variant": "singleton_psd", "matrix": "identity"},
                "u1": {"variant": "interval", "base": "identity", "direction": "identity", "sigma_range": [1, 3]},
                "true_post_cov": {"kind": "random_member"},
                "baseline": {"post_cov": {"kind": "random_member"}},
            }
        ],
    }
    path = tmp_path / "growth.cfg"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(["verify", "--config", str(path), "--quiet", "--members", "2"])
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 4
    assert [row[5] for row in rows] == ["pass"] * 4


@pytest.mark.parametrize("config", ["table1_desk.cfg", "table1_paper.cfg", "l1_mean.cfg"])
def test_verify_bundled_config_all_pass(config):
    code, out, err = run_cli(["verify", "--config", config, "--quiet"])
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "scenario,side,member,moment,bound,status"
    assert len(lines) > 1 and all(line.endswith(",pass") for line in lines[1:])


def test_verify_divergent_moment_is_a_fail_row(mini_cfg, monkeypatch):
    # a post-change member of covariance 10 I leaves I - 10 H indefinite for
    # the cov_row detector (H about 0.18 I), so E exp(+phi) is infinite
    import numpy as np

    from robustcusum import Gaussian, cli

    real = cli.class_members

    def wide_member(cfg, scen, prep, n_members):
        members0, members1 = real(cfg, scen, prep, n_members)
        return members0, [Gaussian(members1[0].mean, 10.0 * np.eye(cfg.dimension))] + members1[1:]

    monkeypatch.setattr(cli, "class_members", wide_member)
    code, out, err = run_cli(["verify", "--config", mini_cfg, "--quiet", "--scenario", "cov_row", "--members", "2"])
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 4
    assert [row for row in rows if row[5] != "pass"] == [["cov_row", "1", "0", "inf", rows[0][4], "FAIL"]]


def test_arl_and_edd_and_calibrate_smoke(mini_cfg):
    for cmd in ("calibrate", "arl", "edd"):
        code, out, err = run_cli([cmd, "--config", mini_cfg, "--quiet", "--scenario", "mean_row"])
        assert code == 0, (cmd, err)
        assert out.splitlines()[0].startswith("scenario,")
        assert len(out.splitlines()) == 3  # header + robust + baseline


def test_scenario_filter_unknown_name(mini_cfg):
    code, out, err = run_cli(["arl", "--config", mini_cfg, "--scenario", "nope", "--quiet"])
    assert code == 1 and "nope" in err


def test_human_format_is_aligned(mini_cfg):
    code, out, err = run_cli(["lfp", "--config", mini_cfg, "--quiet", "--format", "human"])
    assert code == 0
    assert "," not in out.splitlines()[0]


def test_experiment_unknown_scenario_exits_one(mini_cfg):
    code, out, err = run_cli(["experiment", "--config", mini_cfg, "--scenario", "nope", "--quiet"])
    assert code == 1 and out == ""
    assert "no scenario named 'nope'" in err


def test_experiment_scenario_filter_matches_full_run(mini_cfg):
    argv = ["experiment", "--config", mini_cfg, "--quiet", "--threads", "1"]
    _, full, _ = run_cli(argv)
    code, one, _ = run_cli(argv + ["--scenario", "cov_row"])
    assert code == 0
    lines = full.splitlines(keepends=True)
    assert one == "".join([lines[0]] + [line for line in lines[1:] if line.startswith("cov_row,")])


@pytest.mark.parametrize("flag, value", [("--members", "0"), ("--members", "x")])
def test_verify_rejects_degenerate_counts(mini_cfg, flag, value):
    code, out, err = run_cli(["verify", "--config", mini_cfg, "--quiet", flag, value])
    assert code == 1 and out == ""
    assert "usage" in err and f"argument {flag}" in err


def test_verify_samples_flag_is_gone(mini_cfg):
    # the audit is exact, so there are no Monte Carlo draws to count
    code, out, err = run_cli(["verify", "--config", mini_cfg, "--quiet", "--samples", "10"])
    assert code == 1 and out == ""
    assert "unrecognized arguments: --samples 10" in err


@pytest.mark.parametrize(
    "command, mode", [("calibrate", "calibrated"), ("arl", "calibrated"), ("experiment", "calibrated"), ("arl", "theoretical")]
)
def test_zero_step_arl_horizon_names_the_config_key(tmp_path, command, mode):
    # round(0.001 * 2) = 0: a horizon no ARL run can take a step in
    path = tmp_path / "short.cfg"
    path.write_text(json.dumps({**MINI_CONFIG, "gamma": 2, "arl_horizon_factor": 0.001, "threshold_mode": mode}))
    code, out, err = run_cli([command, "--config", str(path), "--quiet"])
    assert code == 1 and out == ""
    assert "document.arl_horizon_factor" in err


def test_edd_all_censored_reports_nan_moments(tmp_path):
    raw = {
        "dimension": 3,
        "gamma": 1e6,  # b far above anything one observation can add
        "arl_trials": 100,
        "delay_trials": 100,
        "seed": 5,
        "threshold_mode": "theoretical",
        "delay_horizon": 1,
        "scenarios": [
            {
                "name": "mean_row",
                "kind": "mean_shift",
                "m0": {"variant": "singleton", "point": "zeros"},
                "m1": {"variant": "l1_ball", "center": "ones", "radius": 1.5},
                "sigma": "identity",
                "true_post_mean": {"kind": "uniform_entries", "low": 0.1, "high": 0.5},
                "baseline": {"post_mean": "ones"},
            }
        ],
    }
    path = tmp_path / "censored.cfg"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(["edd", "--config", str(path), "--quiet", "--threads", "1"])
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[1] for row in rows] == ["robust", "baseline"]
    for row in rows:
        assert row[3:] == ["nan", "nan", "100"]


@pytest.mark.parametrize("flags", [["--threads", "0"], ["--threads", "-4"]], ids=["flag-zero", "flag-negative"])
def test_bad_thread_count_is_usage_error(mini_cfg, flags):
    code, out, err = run_cli(["lfp", "--config", mini_cfg, "--quiet"] + flags)
    assert code == 1 and out == ""
    assert "usage" in err and "argument --threads" in err


@pytest.mark.parametrize(
    "doc_seed, flags, where",
    [(2**64, [], "document.seed"), (5, ["--seed", "-1"], "argument --seed"), (5, ["--seed", str(2**64)], "argument --seed")],
    ids=["document-2**64", "flag-negative", "flag-2**64"],
)
def test_seed_outside_64_bits_is_rejected(tmp_path, doc_seed, flags, where):
    # the seed is one 64-bit word of the Philox key: 2**64 + 7 would run as 7
    path = tmp_path / "seed.cfg"
    path.write_text(json.dumps({**MINI_CONFIG, "seed": doc_seed}))
    code, out, err = run_cli(["lfp", "--config", str(path), "--quiet"] + flags)
    assert code == 1 and out == ""
    assert where in err


def _unbracketed_baseline(raw):
    # the baseline's post-change law is its pre-change law: its increments
    # are all zero, so no threshold gives ARL = gamma within the horizon
    raw["arl_horizon_factor"] = 2
    raw["scenarios"] = raw["scenarios"][:1]
    raw["scenarios"][0]["baseline"] = {"post_mean": "zeros"}


def _one_saddle_iteration(raw):
    raw["solver"] = {"gap_tol": 1e-300, "saddle_max_iters": 1}


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("calibrate", _unbracketed_baseline, "solver failure: mean_row/baseline: failed to bracket ARL=200"),
        ("detector", _one_saddle_iteration, "solver failure: cov_row: saddle solver reached 1 iterations"),
    ],
    ids=["calibration", "saddle"],
)
def test_solver_failure_names_where_it_failed(tmp_path, command, edit, message):
    raw = json.loads(json.dumps(MINI_CONFIG))
    edit(raw)
    path = tmp_path / "failing.cfg"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli([command, "--config", str(path), "--quiet", "--threads", "1"])
    assert code == 2 and out == ""
    assert message in err


def _ball_against_identity(tmp_path, d, radius):
    raw = {
        **MINI_CONFIG,
        "dimension": d,
        "threshold_mode": "theoretical",
        "scenarios": [{**MINI_CONFIG["scenarios"][1], "u1": {"variant": "spectral_ball", "radius": radius}}],
    }
    path = tmp_path / "ball.cfg"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("d", [3, 10])
def test_overlapping_covariance_classes_are_refused_at_once(tmp_path, d):
    # a ball of radius 1.5 contains the identity: both classes hold N(0, I),
    # so no detector separates them and the saddle value is exactly 0
    code, out, err = run_cli(["detector", "--config", _ball_against_identity(tmp_path, d, 1.5), "--quiet"])
    assert code == 1 and out == ""
    assert "error: cov_row: uncertainty sets overlap; change undetectable" in err


def test_overlapping_mean_classes_name_their_scenario(tmp_path):
    # an l1 ball of radius 3.5 about ones contains m0 = 0 in d = 3
    raw = json.loads(json.dumps(MINI_CONFIG))
    raw["scenarios"][0]["m1"]["radius"] = 3.5
    path = tmp_path / "overlap.cfg"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(["lfp", "--config", str(path), "--quiet"])
    assert code == 1 and out == ""
    assert "error: mean_row: uncertainty sets overlap; change undetectable" in err


def test_interval_overlapping_a_ball_is_refused_at_once(tmp_path):
    # I + sigma V for sigma in [0.5, 1] has lambda_max at most 1.53, inside
    # the radius-3 ball: both classes hold that law.  The saddle solver would
    # run its 20,000 iterations (about 6 s) before giving up
    interval = {"variant": "interval", "base": "identity", "direction": "squared_exp_offdiag", "sigma_range": [0.5, 1.0]}
    scenario = {
        **MINI_CONFIG["scenarios"][1],
        "u0": interval,
        "u1": {"variant": "spectral_ball", "radius": 3.0},
        "true_pre_cov": "identity",
    }
    path = tmp_path / "interval.cfg"
    path.write_text(json.dumps({**MINI_CONFIG, "threshold_mode": "theoretical", "scenarios": [scenario]}))
    start = time.perf_counter()
    code, out, err = run_cli(["detector", "--config", str(path), "--quiet"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "error: cov_row: uncertainty sets overlap; change undetectable" in err


def test_nearly_overlapping_covariance_classes_still_solve(tmp_path):
    code, out, err = run_cli(["detector", "--config", _ball_against_identity(tmp_path, 3, 0.99), "--quiet"])
    assert code == 0, err
    row = out.splitlines()[1].split(",")
    assert float(row[1]) < 0.0 and float(row[3]) == pytest.approx(0.999995, abs=1e-6)


def test_calibration_grows_bracket_when_lower_end_is_above_gamma():
    # at seed 409 the cov_spectral baseline's ARL at 0.1 b_cert is 973.7 > 500:
    # its threshold lies below the starting bracket, at about -2.31
    code, out, err = run_cli(["calibrate", "--config", "table1_desk.cfg", "--seed", "409", "--quiet"])
    assert code == 0, err
    rows = {tuple(line.split(",")[:2]): float(line.split(",")[3]) for line in out.splitlines()[1:]}
    assert len(rows) == 8
    assert -2.4 < rows[("cov_spectral", "baseline")] < -2.2


def _load_benchmark_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_target(mini_cfg):
    # perfbench/tracing.py wraps package functions by name; a renamed target
    # would silently read 0 in the benchmark's layer metrics
    tracing = _load_benchmark_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _, err = run_cli(["edd", "--config", mini_cfg, "--quiet", "--threads", "1"])
        unpatched = tracer.unpatched_bindings()
    finally:
        tracer.uninstall()
    assert code == 0, err
    assert tracer.missing == [] and unpatched == []
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cusum.steps"] > 0
    assert metrics["simulate.delay_trials"] == len(MINI_CONFIG["scenarios"]) * 2 * MINI_CONFIG["delay_trials"]


# Reaches the config branches no other test or bundled config does: the
# fixed mean and covariance samplers, true_pre_cov, the baseline pre-change
# laws, mean0/mean1, a box and an interval u0.
EVERY_BRANCH_CONFIG = str(Path(__file__).resolve().parent / "data" / "every_branch.cfg")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["experiment", "--config", EVERY_BRANCH_CONFIG, "--threads", "1"],
            "9f3fc72993fac63a40e37cdc87ac59cf43b608ce95df066c7ef79f76bc0f54a5",
        ),
        (
            ["experiment", "--config", EVERY_BRANCH_CONFIG, "--threads", "2"],
            "9f3fc72993fac63a40e37cdc87ac59cf43b608ce95df066c7ef79f76bc0f54a5",
        ),
        (
            ["verify", "--config", EVERY_BRANCH_CONFIG],
            "7b479f2ae11d257d1162098c06340b23c30c84b885a1ad45edcfd5ca8fbae61f",
        ),
        # the only shipped saddle with a nonzero class mean (the cov_fixed
        # classes' [0.1, 0, -0.1])
        (
            ["detector", "--config", EVERY_BRANCH_CONFIG],
            "d96bbef97f968e81fadf967a2c93867ea80dd1b8096a6fe3e4d9e4af10416e1f",
        ),
        # the only byte pin of the saddle solver above d=3: at d=10 the
        # cov_interval envelope theta_star is asymmetric in its last bits
        (
            ["detector", "--config", "table1_desk.cfg"],
            "06fde1a5fdd76fd9bea148b7c9a4b0502de6598f573b9a1b4fe53aa3640dbb55",
        ),
        # the only byte pin of the calibration path above d=3
        (
            ["experiment", "--config", "table1_desk.cfg"],
            "fead8aa1d52c0c11c14b322ec50e17bc705faf0b9d831b89ffde5c18197c26b1",
        ),
    ],
    ids=["experiment-threads-1", "experiment-threads-2", "verify", "detector", "desk-detector", "desk-experiment"],
)
def test_every_config_branch_golden(argv, digest):
    code, out, err = run_cli(argv + ["--quiet"])
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_desk_detector_golden_without_iterations():
    # every field but the outer iteration count, which records when the gap
    # was certified rather than what was solved
    code, out, err = run_cli(["detector", "--config", "table1_desk.cfg", "--quiet"])
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0][4] == "iterations"
    kept = "".join(",".join(row[:4] + row[5:]) + "\n" for row in rows)
    assert hashlib.sha256(kept.encode("utf-8")).hexdigest() == (
        "dfd1bd057f1691b360ee960263625829a5d870588226a60cc2b9e2f4a78345cf"
    )
