"""Experiment configuration: parsing, strict validation, and the scenario
objects the experiment runner uses.

Config files are JSON documents (conventionally with a .cfg extension).  The
schema is strict: unknown keys anywhere are errors, numbers must be finite,
scientific knobs (gamma, trials, seed, set geometry) have no defaults, and
validation reports every violation found rather than stopping at the first.
Solver internals (tolerances, iteration caps, beta) do default.

Validation builds what it checks: each scenario's uncertainty sets, vector
and matrix payloads and samplers are built once, at parse, into the
ScenarioConfig that the runner reads, and the solver settings into the
library's own SolverOptions and SaddleOptions.

See docs/config-schema.md for the full field-by-field reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .cusum import ARL_HORIZON_FACTOR, DEFAULT_DELAY_HORIZON, MIN_TRIALS
from .errors import ConfigError
from .lfp import SolverOptions
from .quadratic import SaddleOptions
from .sets import Box, L1Ball, L2Ball, MatrixInterval, SingletonPSD, SingletonVector, SpectralBall, positive_definite

THRESHOLD_MODES = ("theoretical", "calibrated")
SCENARIO_KINDS = ("mean_shift", "covariance_shift")
SEED_LIMIT = 1 << 64  # a seed is one 64-bit word of the Philox key; a larger one would alias

_SOLVER_KEYS = ("lfp_tol", "lfp_max_iters", "beta", "gap_tol", "saddle_max_iters")


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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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

    def number(self, obj, path, key, *, exclusive_minimum=None, exclusive_maximum=None):
        val = obj.get(key)
        if not _is_number(val):
            self.fail(f"{path}.{key}", f"must be a number, got {val!r}")
            return None
        if exclusive_minimum is not None and val <= exclusive_minimum:
            self.fail(f"{path}.{key}", f"must be > {exclusive_minimum}, got {val}")
            return None
        if exclusive_maximum is not None and val >= exclusive_maximum:
            self.fail(f"{path}.{key}", f"must be < {exclusive_maximum}, got {val}")
            return None
        return float(val)

    def integer(self, obj, path, key, *, minimum=None, below=None):
        val = obj.get(key)
        if not isinstance(val, int) or isinstance(val, bool):
            self.fail(f"{path}.{key}", f"must be an integer, got {val!r}")
            return None
        if minimum is not None and val < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}, got {val}")
            return None
        if below is not None and val >= below:
            self.fail(f"{path}.{key}", f"must be < {below}, got {val}")
            return None
        return val


def _vector_payload(value, d, path, v: _Validator):
    if isinstance(value, str):
        if value in _NAMED_VECTORS:
            return _NAMED_VECTORS[value](d)
        v.fail(path, f"unknown named vector '{value}' (known: {sorted(_NAMED_VECTORS)})")
        return None
    if isinstance(value, list):
        if len(value) != d or not all(_is_number(x) for x in value):
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
        if not all(_is_number(x) for row in value for x in row):
            v.fail(path, "must be a rectangular array of numbers")
            return None
        return arr
    v.fail(path, f"must be a named matrix or a nested list, got {value!r}")
    return None


def _check_covariance(mat, path, v: _Validator, what="covariance") -> bool:
    """Whether `mat` is a covariance a Gaussian accepts; records a violation
    when it is not."""
    try:
        positive_definite(mat, what=what)
    except ValueError as exc:
        v.fail(path, str(exc))
        return False
    return True


def _covariance_payload(value, d, path, v: _Validator):
    mat = _matrix_payload(value, d, path, v)
    return mat if mat is not None and _check_covariance(mat, path, v) else None


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
            if not (isinstance(rng, list) and len(rng) == 2 and all(_is_number(x) for x in rng)):
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


def _mean_sampler(spec, d, path, v: _Validator):
    """rng -> one trial's post-change mean."""
    if not isinstance(spec, dict):
        v.fail(path, "must be an object with a 'kind' key")
        return None
    kind = spec.get("kind")
    if kind == "uniform_entries":
        if v.require_keys(spec, path, ("kind", "low", "high")):
            low = v.number(spec, path, "low")
            high = v.number(spec, path, "high")
            if low is not None and high is not None and low > high:
                v.fail(path, f"low must be <= high, got [{low}, {high}]")
            return lambda rng: rng.uniform(low, high, size=d)
    elif kind == "fixed":
        if v.require_keys(spec, path, ("kind", "value")):
            value = _vector_payload(spec["value"], d, f"{path}.value", v)
            return lambda rng: value
    else:
        v.fail(f"{path}.kind", f"unknown mean sampler kind {kind!r}")
    return None


def _cov_sampler(spec, d, path, v: _Validator, u1, u1_variant, *, allow_interval_point=False):
    """rng -> a covariance, drawn from the post-change set `u1` where the
    kind asks.  Set methods are looked up at draw time, so a method wrapped
    after parse is the one called."""
    if not isinstance(spec, dict):
        v.fail(path, "must be an object with a 'kind' key")
        return None
    kind = spec.get("kind")
    if kind == "uniform_sigma":
        v.require_keys(spec, path, ("kind",))
        if u1_variant is not None and u1_variant != "interval":
            v.fail(path, "uniform_sigma sampler requires an interval post-change set")
        return lambda rng: u1.member(float(rng.uniform(u1.sigma_lo, u1.sigma_hi)))
    if kind == "random_member":
        v.require_keys(spec, path, ("kind",))
        return lambda rng: u1.sample_member(rng)
    if kind == "fixed":
        if v.require_keys(spec, path, ("kind", "value")):
            value = _covariance_payload(spec["value"], d, f"{path}.value", v)
            return lambda rng: value
        return None
    if kind == "interval_point" and allow_interval_point:
        sigma = None
        if v.require_keys(spec, path, ("kind", "sigma")):
            sigma = v.number(spec, path, "sigma")
        if u1_variant is not None and u1_variant != "interval":
            v.fail(path, "interval_point requires an interval post-change set")
        elif isinstance(u1, MatrixInterval) and sigma is not None:
            _check_covariance(u1.member(sigma), f"{path}.sigma", v, what=f"interval member at sigma={sigma:g}")
        return lambda rng: u1.member(sigma)
    v.fail(f"{path}.kind", f"unknown covariance sampler kind {kind!r}")
    return None


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A validated scenario and the objects built from it.

    `classes` holds (mean, covariance) per class: a mean shift pairs each
    class's VectorSet with the shared covariance, a covariance shift pairs
    each class's fixed mean with its MatrixSet.  The laws are (mean,
    covariance) pairs of arrays.
    """

    index: int
    name: str
    kind: str
    delay_trials: int  # the scenario's own count, else the document's
    classes: tuple
    pre_law: tuple  # the true pre-change law
    baseline_pre: tuple  # the baseline CUSUM's pre-change design law
    baseline_post: object  # design_rng -> its post-change design law
    post_law: object  # rng -> one trial's true post-change law


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated document: `raw` is the exact parsed payload; the
    scenarios and solver options are built from it."""

    raw: dict
    scenarios: tuple = field(compare=False)
    lfp_options: SolverOptions = field(compare=False)
    saddle_options: SaddleOptions = field(compare=False)

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

    def with_seed(self, seed: int) -> "ExperimentConfig":
        # the built scenarios do not depend on the seed
        return replace(self, raw={**self.raw, "seed": int(seed)})


def _validate(doc, v: _Validator) -> tuple:
    """Record every violation of `doc` in `v`; returns the (scenarios,
    lfp_options, saddle_options) built on the way, which are complete only
    when no violation was recorded."""
    if not isinstance(doc, dict):
        v.fail("document", "must be a JSON object")
        return (), None, None
    required = ("dimension", "gamma", "arl_trials", "delay_trials", "seed", "threshold_mode", "scenarios")
    optional = ("arl_horizon_factor", "delay_horizon", "solver")
    v.require_keys(doc, "document", required, optional)
    d = v.integer(doc, "document", "dimension", minimum=1) if "dimension" in doc else None
    gamma = v.number(doc, "document", "gamma", exclusive_minimum=1.0) if "gamma" in doc else None
    for key in ("arl_trials", "delay_trials"):
        if key in doc:
            v.integer(doc, "document", key, minimum=MIN_TRIALS)
    if "seed" in doc:
        v.integer(doc, "document", "seed", minimum=0, below=SEED_LIMIT)
    if "threshold_mode" in doc and doc["threshold_mode"] not in THRESHOLD_MODES:
        v.fail("document.threshold_mode", f"must be one of {THRESHOLD_MODES}, got {doc['threshold_mode']!r}")
    if "arl_horizon_factor" in doc:
        factor = v.number(doc, "document", "arl_horizon_factor", exclusive_minimum=0.0)
        if factor is not None and gamma is not None and round(factor * gamma) < 1:
            v.fail("document.arl_horizon_factor", f"the ARL horizon round({factor:g} * gamma) is 0 steps; it must be >= 1")
    if "delay_horizon" in doc:
        v.integer(doc, "document", "delay_horizon", minimum=1)
    lfp_options, saddle_options = _solver_options(doc.get("solver", {}), v)

    scenarios = doc.get("scenarios")
    built = []
    if scenarios is not None:
        if not isinstance(scenarios, list) or not scenarios:
            v.fail("document.scenarios", "must be a non-empty array")
        elif d is not None:
            names = set()
            built = [_build_scenario(scen, i, d, doc.get("delay_trials"), v, names) for i, scen in enumerate(scenarios)]
    return tuple(built), lfp_options, saddle_options


def _solver_options(solver, v: _Validator):
    """The (SolverOptions, SaddleOptions) of the `solver` object; a key it
    leaves out keeps the library default."""
    path = "document.solver"
    if not isinstance(solver, dict):
        v.fail(path, "must be an object")
        return None, None
    v.require_keys(solver, path, (), _SOLVER_KEYS)
    lfp, saddle = {}, {}
    if "lfp_tol" in solver:
        lfp["tol"] = v.number(solver, path, "lfp_tol", exclusive_minimum=0.0)
    if "lfp_max_iters" in solver:
        lfp["max_iters"] = v.integer(solver, path, "lfp_max_iters", minimum=1)
    if "beta" in solver:
        saddle["beta"] = v.number(solver, path, "beta", exclusive_minimum=0.0, exclusive_maximum=1.0)
    if "gap_tol" in solver:
        saddle["gap_tol"] = v.number(solver, path, "gap_tol", exclusive_minimum=0.0)
    if "saddle_max_iters" in solver:
        saddle["max_iters"] = v.integer(solver, path, "saddle_max_iters", minimum=1)
    return SolverOptions(**lfp), SaddleOptions(**saddle)


def _build_scenario(scen, index, d, delay_trials, v: _Validator, names: set):
    """The ScenarioConfig of `scen`, or None after recording a violation."""
    path = f"scenarios[{index}]"
    if not isinstance(scen, dict):
        v.fail(path, "must be an object")
        return None
    kind = scen.get("kind")
    if kind == "mean_shift":
        required = ("name", "kind", "m0", "m1", "sigma", "true_post_mean", "baseline")
        optional = ("true_pre_mean", "delay_trials")
        build_laws = _mean_shift_laws
    elif kind == "covariance_shift":
        required = ("name", "kind", "u0", "u1", "true_post_cov", "baseline")
        optional = ("true_pre_cov", "mean0", "mean1", "delay_trials")
        build_laws = _covariance_shift_laws
    else:
        v.fail(f"{path}.kind", f"must be one of {SCENARIO_KINDS}, got {kind!r}")
        return None
    if not v.require_keys(scen, path, required, optional):
        return None
    name = scen.get("name")
    # a name is a bare CSV cell in every artifact
    if not isinstance(name, str) or not name or any(ch in name for ch in ',"\n\r'):
        v.fail(f"{path}.name", "must be a non-empty string without commas, quotes or line breaks")
    elif name in names:
        v.fail(f"{path}.name", f"duplicate scenario name '{name}'")
    else:
        names.add(name)
    if "delay_trials" in scen:
        v.integer(scen, path, "delay_trials", minimum=MIN_TRIALS)
    laws = build_laws(scen, d, path, v)
    if laws is None:
        return None
    return ScenarioConfig(index, name, kind, scen.get("delay_trials", delay_trials), **laws)


def _mean_shift_laws(scen, d, path, v: _Validator):
    """The ScenarioConfig fields of a mean shift, or None after recording a
    violation."""
    found = len(v.violations)
    m0 = _build_vector_set(scen["m0"], d, f"{path}.m0", v)
    m1 = _build_vector_set(scen["m1"], d, f"{path}.m1", v)
    sigma = _covariance_payload(scen["sigma"], d, f"{path}.sigma", v)
    post_mean = _mean_sampler(scen["true_post_mean"], d, f"{path}.true_post_mean", v)
    pre_mean = m0.point if isinstance(m0, SingletonVector) else None
    if "true_pre_mean" in scen:
        pre_mean = _vector_payload(scen["true_pre_mean"], d, f"{path}.true_pre_mean", v)
    elif m0 is not None and pre_mean is None:
        v.fail(f"{path}.true_pre_mean", "required when m0 is not a singleton")
    baseline = scen["baseline"]
    if isinstance(baseline, dict):
        if v.require_keys(baseline, f"{path}.baseline", ("post_mean",), ("pre_mean",)):
            base_post = _vector_payload(baseline["post_mean"], d, f"{path}.baseline.post_mean", v)
            base_pre = pre_mean
            if "pre_mean" in baseline:
                base_pre = _vector_payload(baseline["pre_mean"], d, f"{path}.baseline.pre_mean", v)
    else:
        v.fail(f"{path}.baseline", "must be an object")
    if len(v.violations) > found:
        return None
    return dict(
        classes=((m0, sigma), (m1, sigma)),
        pre_law=(pre_mean, sigma),
        baseline_pre=(base_pre, sigma),
        baseline_post=lambda rng: (base_post, sigma),
        post_law=lambda rng: (post_mean(rng), sigma),
    )


def _covariance_shift_laws(scen, d, path, v: _Validator):
    """The ScenarioConfig fields of a covariance shift, or None after
    recording a violation."""
    found = len(v.violations)
    u0 = _build_matrix_set(scen["u0"], d, f"{path}.u0", v)
    u1 = _build_matrix_set(scen["u1"], d, f"{path}.u1", v)
    u1_variant = scen["u1"].get("variant") if isinstance(scen["u1"], dict) else None
    post_cov = _cov_sampler(scen["true_post_cov"], d, f"{path}.true_post_cov", v, u1, u1_variant)
    pre_cov = u0.matrix if isinstance(u0, SingletonPSD) else None
    if "true_pre_cov" in scen:
        pre_cov = _covariance_payload(scen["true_pre_cov"], d, f"{path}.true_pre_cov", v)
    elif u0 is not None and pre_cov is None:
        v.fail(f"{path}.true_pre_cov", "required when u0 is not a singleton")
    mean0 = _vector_payload(scen.get("mean0", "zeros"), d, f"{path}.mean0", v)
    mean1 = _vector_payload(scen.get("mean1", "zeros"), d, f"{path}.mean1", v)
    baseline = scen["baseline"]
    if isinstance(baseline, dict):
        if v.require_keys(baseline, f"{path}.baseline", ("post_cov",), ("pre_cov",)):
            base_post = _cov_sampler(
                baseline["post_cov"], d, f"{path}.baseline.post_cov", v, u1, u1_variant, allow_interval_point=True
            )
            base_pre = pre_cov
            if "pre_cov" in baseline:
                base_pre = _covariance_payload(baseline["pre_cov"], d, f"{path}.baseline.pre_cov", v)
    else:
        v.fail(f"{path}.baseline", "must be an object")
    if len(v.violations) > found:
        return None
    return dict(
        classes=((mean0, u0), (mean1, u1)),
        pre_law=(mean0, pre_cov),
        baseline_pre=(mean0, base_pre),
        baseline_post=lambda rng: (mean1, base_post(rng)),
        post_law=lambda rng: (mean1, post_cov(rng)),
    )


def _finite_number(token: str) -> float:
    """json.loads hook for every float and NaN/Infinity token."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError([f"document: non-finite number {token} (numbers must be finite)"])
    return value


def _finite_int(token: str) -> int:
    """json.loads hook for every integer token: one too large for a double
    is non-finite too."""
    _finite_number(token)
    return int(token)


def parse_config(text: str) -> ExperimentConfig:
    """Parse, validate and build a configuration document.

    Raises ConfigError listing every violation found (not just the first).
    """
    try:
        doc = json.loads(text, parse_float=_finite_number, parse_int=_finite_int, parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"document: not valid JSON ({exc})"]) from exc
    v = _Validator()
    built = _validate(doc, v)
    if v.violations:
        raise ConfigError(v.violations)
    return ExperimentConfig(doc, *built)


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
