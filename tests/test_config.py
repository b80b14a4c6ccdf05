import json
import math
from pathlib import Path

import numpy as np
import pytest

from robustcusum import ConfigError, parse_config, serialize_config
from robustcusum.config import (
    load_bundled_config,
    squared_exp_offdiagonal,
)


def _valid_doc():
    return {
        "dimension": 3,
        "gamma": 100.0,
        "arl_trials": 100,
        "delay_trials": 100,
        "seed": 1,
        "threshold_mode": "theoretical",
        "scenarios": [
            {
                "name": "m",
                "kind": "mean_shift",
                "m0": {"variant": "singleton", "point": "zeros"},
                "m1": {"variant": "l2_ball", "center": "ones", "radius": 1.0},
                "sigma": "identity",
                "true_post_mean": {"kind": "uniform_entries", "low": 0.1, "high": 0.5},
                "baseline": {"post_mean": "ones"},
            }
        ],
    }


def test_bundled_paper_config_parses():
    cfg = load_bundled_config("table1_paper.cfg")
    assert cfg.dimension == 30
    assert cfg.gamma == 5000.0
    assert len(cfg.scenarios) == 4
    names = [s.name for s in cfg.scenarios]
    assert names == ["l1_mean", "l2_mean", "cov_interval", "cov_spectral"]


def test_bundled_desk_config_parses():
    cfg = load_bundled_config("table1_desk.cfg")
    assert cfg.dimension == 10
    assert cfg.gamma == 500.0
    assert cfg.threshold_mode == "calibrated"
    assert cfg.arl_horizon == 25_000
    assert cfg.delay_horizon == 10_000


def test_bundled_l1_mean_config_parses():
    cfg = load_bundled_config("l1_mean.cfg")
    assert cfg.scenarios[0].kind == "mean_shift"


def test_empty_document_lists_required_fields():
    with pytest.raises(ConfigError) as exc:
        parse_config("{}")
    msg = str(exc.value)
    for field in ("dimension", "gamma", "arl_trials", "delay_trials", "seed", "threshold_mode", "scenarios"):
        assert field in msg


def test_invalid_json_is_one_clear_violation():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


@pytest.mark.parametrize(
    "token", ["NaN", "Infinity", "-Infinity", "1e999", pytest.param("1" + "0" * 400, id="int-1e400")]
)
@pytest.mark.parametrize("field", ["gamma", "center"])
def test_non_finite_number_is_one_clear_violation(token, field):
    doc = _valid_doc()
    if field == "gamma":
        doc["gamma"] = "TOKEN"
    else:
        doc["scenarios"][0]["m1"]["center"] = [1.0, "TOKEN", 1.0]
    with pytest.raises(ConfigError, match="non-finite") as exc:
        parse_config(json.dumps(doc).replace('"TOKEN"', token))
    assert len(exc.value.violations) == 1


def test_booleans_are_not_numbers_in_payloads():
    doc = _valid_doc()
    doc["scenarios"][0]["sigma"] = [[True, False, False], [False, True, False], [False, False, True]]
    with pytest.raises(ConfigError, match=r"scenarios\[0\]\.sigma") as exc:
        parse_config(json.dumps(doc))
    assert len(exc.value.violations) == 1
    doc = _valid_doc()
    doc["scenarios"][0] = {
        "name": "c",
        "kind": "covariance_shift",
        "u0": {"variant": "singleton_psd", "matrix": "identity"},
        "u1": {"variant": "interval", "base": "identity", "direction": "identity", "sigma_range": [False, True]},
        "true_post_cov": {"kind": "uniform_sigma"},
        "baseline": {"post_cov": {"kind": "random_member"}},
    }
    with pytest.raises(ConfigError, match="sigma_range") as exc:
        parse_config(json.dumps(doc))
    assert len(exc.value.violations) == 1


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\rb"], ids=["comma", "quote", "newline", "carriage-return"])
def test_scenario_name_must_be_a_bare_csv_cell(name):
    # every artifact writes the name unquoted as a CSV cell
    doc = _valid_doc()
    doc["scenarios"][0]["name"] = name
    with pytest.raises(ConfigError, match=r"scenarios\[0\]\.name") as exc:
        parse_config(json.dumps(doc))
    assert len(exc.value.violations) == 1


def test_beta_must_be_strictly_inside_unit_interval():
    doc = _valid_doc()
    doc["solver"] = {"beta": 1.0}
    with pytest.raises(ConfigError, match="beta"):
        parse_config(json.dumps(doc))


def test_unknown_key_rejected():
    doc = _valid_doc()
    doc["gama"] = 5.0  # misspelled
    with pytest.raises(ConfigError, match="gama"):
        parse_config(json.dumps(doc))


def test_unknown_nested_key_rejected():
    doc = _valid_doc()
    doc["scenarios"][0]["m1"]["radiu"] = 2.0
    with pytest.raises(ConfigError, match="radiu"):
        parse_config(json.dumps(doc))


def test_dimension_mismatch_names_the_field():
    doc = _valid_doc()
    doc["scenarios"][0]["m1"]["center"] = [1.0, 1.0]  # wrong length for d=3
    with pytest.raises(ConfigError, match=r"m1.center"):
        parse_config(json.dumps(doc))


def test_all_violations_reported_not_just_first():
    doc = _valid_doc()
    doc["gamma"] = 0.5
    doc["arl_trials"] = 12
    doc["threshold_mode"] = "magic"
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert len(exc.value.violations) >= 3


def test_arl_horizon_that_rounds_to_zero_is_rejected():
    # round(0.001 * 2) = 0 steps: every ARL run would stop before its first
    # observation, so the config key is named instead of a bracket failure
    doc = _valid_doc()
    doc["gamma"] = 2.0
    doc["arl_horizon_factor"] = 0.001
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert len(exc.value.violations) == 1
    assert exc.value.violations[0].startswith("document.arl_horizon_factor: ")
    doc["arl_horizon_factor"] = 0.5  # round(1.0) = 1 step is the shortest horizon
    assert parse_config(json.dumps(doc)).arl_horizon == 1


def test_round_trip_reparses_equal():
    cfg = parse_config(json.dumps(_valid_doc()))
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_seed_override_changes_only_seed():
    cfg = parse_config(json.dumps(_valid_doc()))
    cfg2 = cfg.with_seed(99)
    assert cfg2.seed == 99
    raw = dict(cfg2.raw)
    raw["seed"] = cfg.seed
    assert raw == cfg.raw


def test_scenarios_are_built_at_parse():
    doc = _valid_doc()
    doc["scenarios"].append(dict(doc["scenarios"][0], name="m2", delay_trials=150))
    cfg = parse_config(json.dumps(doc))
    first, second = cfg.scenarios
    assert (first.delay_trials, second.delay_trials) == (100, 150)
    (m0, sigma0), (m1, sigma1) = first.classes
    assert np.array_equal(m0.point, np.zeros(3)) and m1.radius == 1.0
    assert np.array_equal(sigma0, np.eye(3)) and sigma1 is sigma0
    mean, cov = first.post_law(np.random.default_rng(0))
    assert mean.shape == (3,) and np.all((0.1 <= mean) & (mean <= 0.5)) and cov is sigma0
    assert cfg.with_seed(99).scenarios is cfg.scenarios


def test_singular_singleton_is_a_violation_naming_the_class():
    doc = _valid_doc()
    doc["scenarios"][0] = {
        "name": "c",
        "kind": "covariance_shift",
        "u0": {"variant": "singleton_psd", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]},
        "u1": {"variant": "spectral_ball", "radius": 0.5},
        "true_post_cov": {"kind": "random_member"},
        "baseline": {"post_cov": {"kind": "random_member"}},
    }
    with pytest.raises(ConfigError, match=r"scenarios\[0\]\.u0: singleton member must be positive definite"):
        parse_config(json.dumps(doc))


def test_interval_endpoint_pd_failure_is_a_violation():
    doc = _valid_doc()
    doc["scenarios"][0] = {
        "name": "c",
        "kind": "covariance_shift",
        "u0": {"variant": "singleton_psd", "matrix": "identity"},
        "u1": {
            "variant": "interval",
            "base": "identity",
            "direction": "squared_exp_offdiag",
            "sigma_range": [0.0, 50.0],
        },
        "true_post_cov": {"kind": "uniform_sigma"},
        "baseline": {"post_cov": {"kind": "interval_point", "sigma": 1.0}},
    }
    with pytest.raises(ConfigError, match="positive definite"):
        parse_config(json.dumps(doc))


EVERY_BRANCH_CONFIG = Path(__file__).resolve().parent / "data" / "every_branch.cfg"
SINGULAR = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]


@pytest.mark.parametrize(
    "scenario, keys, value",
    [
        (0, ("sigma",), [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        (2, ("true_pre_cov",), SINGULAR),
        (1, ("baseline", "pre_cov"), SINGULAR),
        (1, ("true_post_cov", "value"), SINGULAR),
        (2, ("baseline", "post_cov", "value"), SINGULAR),
        (1, ("baseline", "post_cov", "sigma"), -5),
    ],
    ids=["sigma", "true_pre_cov", "baseline-pre_cov", "fixed-true_post_cov", "fixed-baseline-post_cov", "interval_point"],
)
def test_covariance_not_positive_definite_is_a_violation_naming_its_path(scenario, keys, value):
    # each payload becomes a Gaussian's covariance; the document is checked
    # at parse, before any command uses it
    doc = json.loads(EVERY_BRANCH_CONFIG.read_text(encoding="utf-8"))
    target = doc["scenarios"][scenario]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    [violation] = exc.value.violations
    path = f"scenarios[{scenario}]." + ".".join(keys)
    assert violation.startswith(f"{path}: ") and violation.endswith(" must be positive definite")


def test_uniform_sigma_requires_interval_set():
    doc = _valid_doc()
    doc["scenarios"][0] = {
        "name": "c",
        "kind": "covariance_shift",
        "u0": {"variant": "singleton_psd", "matrix": "identity"},
        "u1": {"variant": "spectral_ball", "radius": 0.5},
        "true_post_cov": {"kind": "uniform_sigma"},
        "baseline": {"post_cov": {"kind": "random_member"}},
    }
    with pytest.raises(ConfigError, match="interval"):
        parse_config(json.dumps(doc))


def test_non_singleton_m0_requires_explicit_pre_change_mean():
    doc = _valid_doc()
    doc["scenarios"][0]["m0"] = {"variant": "l2_ball", "center": "zeros", "radius": 0.5}
    with pytest.raises(ConfigError, match="true_pre_mean"):
        parse_config(json.dumps(doc))


def test_squared_exp_offdiagonal_values():
    v = squared_exp_offdiagonal(4)
    assert np.all(np.diag(v) == 0.0)
    assert v[0, 1] == pytest.approx(math.exp(-1.0))
    assert v[0, 2] == pytest.approx(math.exp(-4.0))
    assert np.allclose(v, v.T)


def test_duplicate_scenario_names_rejected():
    doc = _valid_doc()
    doc["scenarios"].append(json.loads(json.dumps(doc["scenarios"][0])))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(json.dumps(doc))
