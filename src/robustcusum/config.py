"""Experiment configuration: parsing, strict validation, set builders.

Config files are JSON documents (conventionally with a .cfg extension).  The
schema is strict: unknown keys anywhere are errors, scientific knobs (gamma,
trials, seed, set geometry) have no defaults, and validation reports every
violation found rather than stopping at the first.  Solver internals
(tolerances, iteration caps, beta) do default.

See docs/config-schema.md for the full field-by-field reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .cusum import ARL_HORIZON_FACTOR, DEFAULT_DELAY_HORIZON, MIN_TRIALS
from .errors import ConfigError
from .lfp import SolverOptions
from .quadratic import DEFAULT_BETA, SaddleOptions
from .sets import Box, L1Ball, L2Ball, MatrixInterval, SingletonPSD, SingletonVector, SpectralBall

THRESHOLD_MODES = ("theoretical", "calibrated")
SCENARIO_KINDS = ("mean_shift", "covariance_shift")

_SOLVER_DEFAULTS = {
    "lfp_tol": SolverOptions.tol,
    "lfp_max_iters": SolverOptions.max_iters,
    "beta": DEFAULT_BETA,
    "gap_tol": SaddleOptions.gap_tol,
    "saddle_max_iters": SaddleOptions.max_iters,
}


def squared_exp_offdiagonal(d: int) -> np.ndarray:
    """Zero-diagonal matrix with entries exp(-(i-j)^2) off the diagonal."""
    idx = np.arange(d)
    v = np.exp(-((idx[:, None] - idx[None, :]) ** 2).astype(float))
    np.fill_diagonal(v, 0.0)
    return v


_NAMED_VECTORS = {
    "zeros": np.zeros,
    "ones": np.ones,
}

_NAMED_MATRICES = {
    "identity": np.eye,
    "squared_exp_offdiag": squared_exp_offdiagonal,
}


class _Validator:
    def __init__(self):
        self.violations: list[str] = []

    def fail(self, path, message):
        self.violations.append(f"{path}: {message}")

    def require_keys(self, obj, path, required, optional=()):
        ok = True
        for key in required:
            if key not in obj:
                self.fail(path, f"missing required key '{key}'")
                ok = False
        for key in obj:
            if key not in required and key not in optional:
                self.fail(path, f"unknown key '{key}'")
                ok = False
        return ok

    def number(self, obj, path, key, *, minimum=None, exclusive_minimum=None, maximum=None, exclusive_maximum=None):
        val = obj.get(key)
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            self.fail(f"{path}.{key}", f"must be a number, got {val!r}")
            return None
        if minimum is not None and val < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}, got {val}")
            return None
        if exclusive_minimum is not None and val <= exclusive_minimum:
            self.fail(f"{path}.{key}", f"must be > {exclusive_minimum}, got {val}")
            return None
        if maximum is not None and val > maximum:
            self.fail(f"{path}.{key}", f"must be <= {maximum}, got {val}")
            return None
        if exclusive_maximum is not None and val >= exclusive_maximum:
            self.fail(f"{path}.{key}", f"must be < {exclusive_maximum}, got {val}")
            return None
        return float(val)

    def integer(self, obj, path, key, *, minimum=None):
        val = obj.get(key)
        if not isinstance(val, int) or isinstance(val, bool):
            self.fail(f"{path}.{key}", f"must be an integer, got {val!r}")
            return None
        if minimum is not None and val < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}, got {val}")
            return None
        return val


def _vector_payload(value, d, path, v: _Validator):
    if isinstance(value, str):
        if value in _NAMED_VECTORS:
            return _NAMED_VECTORS[value](d)
        v.fail(path, f"unknown named vector '{value}' (known: {sorted(_NAMED_VECTORS)})")
        return None
    if isinstance(value, list):
        if len(value) != d or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value):
            v.fail(path, f"must be a list of {d} numbers (configured dimension), got length {len(value)}")
            return None
        return np.asarray(value, dtype=float)
    v.fail(path, f"must be a named vector or a list of numbers, got {value!r}")
    return None


def _matrix_payload(value, d, path, v: _Validator):
    if isinstance(value, str):
        if value in _NAMED_MATRICES:
            return _NAMED_MATRICES[value](d)
        v.fail(path, f"unknown named matrix '{value}' (known: {sorted(_NAMED_MATRICES)})")
        return None
    if isinstance(value, list):
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            v.fail(path, "must be a rectangular array of numbers")
            return None
        if arr.shape != (d, d):
            v.fail(path, f"must be a {d}x{d} matrix (configured dimension), got shape {arr.shape}")
            return None
        return arr
    v.fail(path, f"must be a named matrix or a nested list, got {value!r}")
    return None


def _build_vector_set(spec, d, path, v: _Validator):
    if not isinstance(spec, dict):
        v.fail(path, "must be an object with a 'variant' key")
        return None
    variant = spec.get("variant")
    try:
        if variant == "singleton":
            if not v.require_keys(spec, path, ("variant", "point")):
                return None
            point = _vector_payload(spec["point"], d, f"{path}.point", v)
            return SingletonVector(point) if point is not None else None
        if variant in ("l2_ball", "l1_ball"):
            if not v.require_keys(spec, path, ("variant", "center", "radius")):
                return None
            center = _vector_payload(spec["center"], d, f"{path}.center", v)
            radius = v.number(spec, path, "radius", exclusive_minimum=0.0)
            if center is None or radius is None:
                return None
            cls = L2Ball if variant == "l2_ball" else L1Ball
            return cls(center, radius)
        if variant == "box":
            if not v.require_keys(spec, path, ("variant", "lower", "upper")):
                return None
            lower = _vector_payload(spec["lower"], d, f"{path}.lower", v)
            upper = _vector_payload(spec["upper"], d, f"{path}.upper", v)
            if lower is None or upper is None:
                return None
            return Box(lower, upper)
    except ValueError as exc:
        v.fail(path, str(exc))
        return None
    v.fail(f"{path}.variant", f"unknown vector-set variant {variant!r}")
    return None


def _build_matrix_set(spec, d, path, v: _Validator):
    if not isinstance(spec, dict):
        v.fail(path, "must be an object with a 'variant' key")
        return None
    variant = spec.get("variant")
    try:
        if variant == "singleton_psd":
            if not v.require_keys(spec, path, ("variant", "matrix")):
                return None
            mat = _matrix_payload(spec["matrix"], d, f"{path}.matrix", v)
            return SingletonPSD(mat) if mat is not None else None
        if variant == "spectral_ball":
            if not v.require_keys(spec, path, ("variant", "radius")):
                return None
            radius = v.number(spec, path, "radius", exclusive_minimum=0.0)
            return SpectralBall(radius, d) if radius is not None else None
        if variant == "interval":
            if not v.require_keys(spec, path, ("variant", "base", "direction", "sigma_range")):
                return None
            base = _matrix_payload(spec["base"], d, f"{path}.base", v)
            direction = _matrix_payload(spec["direction"], d, f"{path}.direction", v)
            rng = spec.get("sigma_range")
            if not (isinstance(rng, list) and len(rng) == 2 and all(isinstance(x, (int, float)) for x in rng)):
                v.fail(f"{path}.sigma_range", "must be a two-element [lo, hi] list of numbers")
                return None
            if base is None or direction is None:
                return None
            return MatrixInterval(base, direction, float(rng[0]), float(rng[1]))
    except ValueError as exc:
        v.fail(path, str(exc))
        return None
    v.fail(f"{path}.variant", f"unknown matrix-set variant {variant!r}")
    return None


def _check_mean_sampler(spec, d, path, v: _Validator):
    if not isinstance(spec, dict):
        v.fail(path, "must be an object with a 'kind' key")
        return
    kind = spec.get("kind")
    if kind == "uniform_entries":
        if v.require_keys(spec, path, ("kind", "low", "high")):
            low = v.number(spec, path, "low")
            high = v.number(spec, path, "high")
            if low is not None and high is not None and low > high:
                v.fail(path, f"low must be <= high, got [{low}, {high}]")
    elif kind == "fixed":
        if v.require_keys(spec, path, ("kind", "value")):
            _vector_payload(spec["value"], d, f"{path}.value", v)
    else:
        v.fail(f"{path}.kind", f"unknown mean sampler kind {kind!r}")


def _check_cov_sampler(spec, d, path, v: _Validator, *, u1_variant=None, allow_interval_point=False):
    if not isinstance(spec, dict):
        v.fail(path, "must be an object with a 'kind' key")
        return
    kind = spec.get("kind")
    if kind == "uniform_sigma":
        v.require_keys(spec, path, ("kind",))
        if u1_variant is not None and u1_variant != "interval":
            v.fail(path, "uniform_sigma sampler requires an interval post-change set")
    elif kind == "random_member":
        v.require_keys(spec, path, ("kind",))
    elif kind == "fixed":
        if v.require_keys(spec, path, ("kind", "value")):
            _matrix_payload(spec["value"], d, f"{path}.value", v)
    elif kind == "interval_point" and allow_interval_point:
        if v.require_keys(spec, path, ("kind", "sigma")):
            v.number(spec, path, "sigma")
        if u1_variant is not None and u1_variant != "interval":
            v.fail(path, "interval_point requires an interval post-change set")
    else:
        v.fail(f"{path}.kind", f"unknown covariance sampler kind {kind!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario; `raw` is the exact parsed payload."""

    index: int
    raw: dict

    @property
    def name(self) -> str:
        return self.raw["name"]

    @property
    def kind(self) -> str:
        return self.raw["kind"]

    def delay_trials(self, default: int) -> int:
        return self.raw.get("delay_trials", default)


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict

    @property
    def dimension(self) -> int:
        return self.raw["dimension"]

    @property
    def gamma(self) -> float:
        return float(self.raw["gamma"])

    @property
    def arl_trials(self) -> int:
        return self.raw["arl_trials"]

    @property
    def delay_trials(self) -> int:
        return self.raw["delay_trials"]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def threshold_mode(self) -> str:
        return self.raw["threshold_mode"]

    @property
    def arl_horizon(self) -> int:
        return int(round(self.raw.get("arl_horizon_factor", ARL_HORIZON_FACTOR) * self.gamma))

    @property
    def delay_horizon(self) -> int:
        return self.raw.get("delay_horizon", DEFAULT_DELAY_HORIZON)

    @property
    def solver(self) -> dict:
        merged = dict(_SOLVER_DEFAULTS)
        merged.update(self.raw.get("solver", {}))
        return merged

    @property
    def scenarios(self) -> list[ScenarioConfig]:
        return [ScenarioConfig(i, s) for i, s in enumerate(self.raw["scenarios"])]

    def with_seed(self, seed: int) -> "ExperimentConfig":
        raw = json.loads(json.dumps(self.raw))
        raw["seed"] = int(seed)
        return ExperimentConfig(raw)


def _validate(doc) -> list[str]:
    v = _Validator()
    if not isinstance(doc, dict):
        return ["document: must be a JSON object"]
    required = ("dimension", "gamma", "arl_trials", "delay_trials", "seed", "threshold_mode", "scenarios")
    optional = ("arl_horizon_factor", "delay_horizon", "solver")
    v.require_keys(doc, "document", required, optional)
    d = v.integer(doc, "document", "dimension", minimum=1) if "dimension" in doc else None
    if "gamma" in doc:
        v.number(doc, "document", "gamma", exclusive_minimum=1.0)
    for key in ("arl_trials", "delay_trials"):
        if key in doc:
            v.integer(doc, "document", key, minimum=MIN_TRIALS)
    if "seed" in doc:
        v.integer(doc, "document", "seed", minimum=0)
    if "threshold_mode" in doc and doc["threshold_mode"] not in THRESHOLD_MODES:
        v.fail("document.threshold_mode", f"must be one of {THRESHOLD_MODES}, got {doc['threshold_mode']!r}")
    if "arl_horizon_factor" in doc:
        v.number(doc, "document", "arl_horizon_factor", exclusive_minimum=0.0)
    if "delay_horizon" in doc:
        v.integer(doc, "document", "delay_horizon", minimum=1)
    if "solver" in doc:
        solver = doc["solver"]
        if not isinstance(solver, dict):
            v.fail("document.solver", "must be an object")
        else:
            v.require_keys(solver, "document.solver", (), tuple(_SOLVER_DEFAULTS))
            if "lfp_tol" in solver:
                v.number(solver, "document.solver", "lfp_tol", exclusive_minimum=0.0)
            if "lfp_max_iters" in solver:
                v.integer(solver, "document.solver", "lfp_max_iters", minimum=1)
            if "beta" in solver:
                v.number(solver, "document.solver", "beta", exclusive_minimum=0.0, exclusive_maximum=1.0)
            if "gap_tol" in solver:
                v.number(solver, "document.solver", "gap_tol", exclusive_minimum=0.0)
            if "saddle_max_iters" in solver:
                v.integer(solver, "document.solver", "saddle_max_iters", minimum=1)

    scenarios = doc.get("scenarios")
    if scenarios is not None:
        if not isinstance(scenarios, list) or not scenarios:
            v.fail("document.scenarios", "must be a non-empty array")
        elif d is not None:
            names = set()
            for i, scen in enumerate(scenarios):
                _validate_scenario(scen, d, f"scenarios[{i}]", v, names)
    return v.violations


def _validate_scenario(scen, d, path, v: _Validator, names: set):
    if not isinstance(scen, dict):
        v.fail(path, "must be an object")
        return
    kind = scen.get("kind")
    if kind == "mean_shift":
        required = ("name", "kind", "m0", "m1", "sigma", "true_post_mean", "baseline")
        optional = ("true_pre_mean", "delay_trials")
    elif kind == "covariance_shift":
        required = ("name", "kind", "u0", "u1", "true_post_cov", "baseline")
        optional = ("true_pre_cov", "mean0", "mean1", "delay_trials")
    else:
        v.fail(f"{path}.kind", f"must be one of {SCENARIO_KINDS}, got {kind!r}")
        return
    if not v.require_keys(scen, path, required, optional):
        return
    name = scen.get("name")
    if not isinstance(name, str) or not name or "," in name:
        v.fail(f"{path}.name", "must be a non-empty string without commas")
    elif name in names:
        v.fail(f"{path}.name", f"duplicate scenario name '{name}'")
    else:
        names.add(name)
    if "delay_trials" in scen:
        v.integer(scen, path, "delay_trials", minimum=MIN_TRIALS)

    if kind == "mean_shift":
        m0 = _build_vector_set(scen["m0"], d, f"{path}.m0", v)
        _build_vector_set(scen["m1"], d, f"{path}.m1", v)
        _matrix_payload(scen["sigma"], d, f"{path}.sigma", v)
        _check_mean_sampler(scen["true_post_mean"], d, f"{path}.true_post_mean", v)
        if "true_pre_mean" in scen:
            _vector_payload(scen["true_pre_mean"], d, f"{path}.true_pre_mean", v)
        elif m0 is not None and not isinstance(m0, SingletonVector):
            v.fail(f"{path}.true_pre_mean", "required when m0 is not a singleton")
        baseline = scen["baseline"]
        if isinstance(baseline, dict):
            if v.require_keys(baseline, f"{path}.baseline", ("post_mean",), ("pre_mean",)):
                _vector_payload(baseline["post_mean"], d, f"{path}.baseline.post_mean", v)
                if "pre_mean" in baseline:
                    _vector_payload(baseline["pre_mean"], d, f"{path}.baseline.pre_mean", v)
        else:
            v.fail(f"{path}.baseline", "must be an object")
    else:
        u0 = _build_matrix_set(scen["u0"], d, f"{path}.u0", v)
        u1 = _build_matrix_set(scen["u1"], d, f"{path}.u1", v)
        u1_variant = scen["u1"].get("variant") if isinstance(scen["u1"], dict) else None
        _check_cov_sampler(scen["true_post_cov"], d, f"{path}.true_post_cov", v, u1_variant=u1_variant)
        if "true_pre_cov" in scen:
            _matrix_payload(scen["true_pre_cov"], d, f"{path}.true_pre_cov", v)
        elif u0 is not None and not isinstance(u0, SingletonPSD):
            v.fail(f"{path}.true_pre_cov", "required when u0 is not a singleton")
        for key in ("mean0", "mean1"):
            if key in scen:
                _vector_payload(scen[key], d, f"{path}.{key}", v)
        baseline = scen["baseline"]
        if isinstance(baseline, dict):
            if v.require_keys(baseline, f"{path}.baseline", ("post_cov",), ("pre_cov",)):
                _check_cov_sampler(
                    baseline["post_cov"], d, f"{path}.baseline.post_cov", v,
                    u1_variant=u1_variant, allow_interval_point=True,
                )
                if "pre_cov" in baseline:
                    _matrix_payload(baseline["pre_cov"], d, f"{path}.baseline.pre_cov", v)
        else:
            v.fail(f"{path}.baseline", "must be an object")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration document.

    Raises ConfigError listing every violation found (not just the first).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"document: not valid JSON ({exc})"]) from exc
    violations = _validate(doc)
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(doc)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    return json.dumps(config.raw, indent=2) + "\n"


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def bundled_config_path(name: str):
    """Filesystem path of a config shipped with the package."""
    return resources.files("robustcusum").joinpath("configs", name)


def load_bundled_config(name: str) -> ExperimentConfig:
    return parse_config(bundled_config_path(name).read_text(encoding="utf-8"))


# -- typed builders used by the experiment runner ---------------------------


def build_vector_set(spec: dict, d: int):
    v = _Validator()
    out = _build_vector_set(spec, d, "set", v)
    if v.violations:
        raise ConfigError(v.violations)
    return out


def build_matrix_set(spec: dict, d: int):
    v = _Validator()
    out = _build_matrix_set(spec, d, "set", v)
    if v.violations:
        raise ConfigError(v.violations)
    return out


def vector_payload(value, d: int) -> np.ndarray:
    v = _Validator()
    out = _vector_payload(value, d, "vector", v)
    if v.violations:
        raise ConfigError(v.violations)
    return out


def matrix_payload(value, d: int) -> np.ndarray:
    v = _Validator()
    out = _matrix_payload(value, d, "matrix", v)
    if v.violations:
        raise ConfigError(v.violations)
    return out
