"""The benchmark's workloads: the CLI calls each one makes, and the checks
that decide whether each output row is correct.

This module reads configs as plain JSON and CSV artifacts as text; it does
not import the package, so the orchestrating process can check artifacts
without loading numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

# The d=3 scenarios that criterion 11's golden config uses, under the names
# the checks know.
_SMOKE_MEAN = {
    "name": "l1_mean",
    "kind": "mean_shift",
    "m0": {"variant": "singleton", "point": "zeros"},
    "m1": {"variant": "l1_ball", "center": "ones", "radius": 1.5},
    "sigma": "identity",
    "true_post_mean": {"kind": "uniform_entries", "low": 0.1, "high": 0.5},
    "baseline": {"post_mean": "ones"},
}
_SMOKE_COV = {
    "name": "cov_spectral",
    "kind": "covariance_shift",
    "u0": {"variant": "singleton_psd", "matrix": "identity"},
    "u1": {"variant": "spectral_ball", "radius": 0.5},
    "true_post_cov": {"kind": "random_member"},
    "baseline": {"post_cov": {"kind": "random_member"}},
}
SMOKE_CONFIG = {
    "dimension": 3,
    "gamma": 200.0,
    "arl_trials": 100,
    "delay_trials": 100,
    "seed": 5,
    "threshold_mode": "calibrated",
    "scenarios": [_SMOKE_MEAN, _SMOKE_COV],
}

# Scenarios paper_delay keeps from table1_paper.cfg: the design of the other
# one (cov_interval, ~7 s) would dominate a delay workload.
PAPER_DELAY_SCENARIOS = ("l1_mean", "l2_mean", "cov_spectral")

# Criterion 10 of the acceptance suite: robust delay below baseline delay on
# these scenarios, and a robust/baseline ratio in [0.5, 2] on cov_interval.
ORDERED_SCENARIOS = ("l1_mean", "l2_mean", "cov_spectral")
RATIO_SCENARIO = "cov_interval"


def bundled_config(root, name):
    with open(os.path.join(root, "src", "robustcusum", "configs", name), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Call:
    label: str  # artifact name, e.g. "experiment"
    argv: tuple  # CLI argv without --out


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # subcommands run in order, one artifact each
    threads: int | None  # None: os.cpu_count(), the CLI's own default

    def config(self, root, smoke):
        if smoke:
            raw = json.loads(json.dumps(SMOKE_CONFIG))
            if self.name == "paper_delay":
                raw["threshold_mode"] = "theoretical"  # as in table1_paper.cfg
            return raw
        if self.name == "desk_experiment":
            return bundled_config(root, "table1_desk.cfg")
        raw = bundled_config(root, "table1_paper.cfg")
        if self.name == "paper_delay":
            raw["scenarios"] = [s for s in raw["scenarios"] if s["name"] in PAPER_DELAY_SCENARIOS]
        return raw

    def thread_count(self):
        return self.threads or os.cpu_count() or 1

    def calls(self, config_path, seed):
        """The CLI calls of one repetition.  The seed reaches the program
        only through --seed; None keeps the config's own seed."""
        common = ["--config", config_path, "--threads", str(self.thread_count()), "--quiet"]
        if seed is not None:
            common += ["--seed", str(seed)]
        return [Call(cmd, (cmd, *common)) for cmd in self.commands]


# Why each workload exists: NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_experiment", ("experiment",), threads=1),
        Workload("paper_design", ("detector", "lfp"), threads=1),
        Workload("paper_delay", ("edd",), threads=None),
    )
}


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def expected_rows(command, raw):
    """(scenario, procedure or None) keys a command's table must contain."""
    scens = raw["scenarios"]
    if command == "lfp":
        return [(s["name"], None) for s in scens if s["kind"] == "mean_shift"]
    if command == "detector":
        return [(s["name"], None) for s in scens if s["kind"] == "covariance_shift"]
    return [(s["name"], p) for s in scens for p in ("robust", "baseline")]


def _lfp_delta_sq(scen, d):
    """Closed-form Mahalanobis gap from the origin to a ball centred at ones
    under identity covariance; None for other shapes."""
    m0, m1 = scen["m0"], scen["m1"]
    if not (m0 == {"variant": "singleton", "point": "zeros"} and scen.get("sigma") == "identity"
            and m1.get("center") == "ones"):
        return None
    r = float(m1["radius"])
    if m1["variant"] == "l2_ball":
        return (math.sqrt(d) - r) ** 2
    if m1["variant"] == "l1_ball":
        return (d - r) ** 2 / d
    return None


def _num(row, key):
    return float(row[key])


def check_artifact(command, raw, text, gate_ordering):
    """Check one CSV artifact row by row.

    Returns (attempted, failed, messages): one operation per expected row; a
    row fails when it is missing, unparsable or breaks a check.  The delay
    ordering of criterion 10 fails rows only when `gate_ordering` is set.
    """
    want = expected_rows(command, raw)
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
    except csv.Error as exc:
        return len(want), len(want), [f"{command}: unreadable CSV ({exc})"]
    by_key = {}
    for row in rows:
        by_key[(row.get("scenario"), row.get("procedure") if command not in ("lfp", "detector") else None)] = row
    failures = {}

    def fail(key, why):
        failures.setdefault(key, []).append(why)

    solver = {"lfp_tol": 1e-9, "gap_tol": 1e-4}
    solver.update(raw.get("solver", {}))
    gamma = float(raw["gamma"])
    theoretical = raw["threshold_mode"] == "theoretical"
    scen_by_name = {s["name"]: s for s in raw["scenarios"]}
    for key in want:
        row = by_key.get(key)
        if row is None:
            fail(key, "row missing")
            continue
        try:
            if command == "lfp":
                target = _lfp_delta_sq(scen_by_name[key[0]], raw["dimension"])
                if target is not None and abs(_num(row, "delta_sq") - target) > 1e-6:
                    fail(key, f"delta_sq {row['delta_sq']} != {target!r}")
                if not _num(row, "residual") <= solver["lfp_tol"]:
                    fail(key, f"residual {row['residual']} > lfp_tol")
            elif command == "detector":
                eps, sv = _num(row, "epsilon_star"), _num(row, "sv")
                if not _num(row, "gap") <= solver["gap_tol"]:
                    fail(key, f"gap {row['gap']} > gap_tol")
                if not (0.0 < eps < 1.0 and math.isclose(eps, math.exp(sv), rel_tol=1e-12)):
                    fail(key, f"epsilon_star {eps!r} is not exp(sv) in (0, 1)")
            elif command == "experiment":
                if key[1] == "robust" and not 0.0 < _num(row, "epsilon_star") < 1.0:
                    fail(key, f"robust epsilon_star {row['epsilon_star']} not in (0, 1)")
                arl, se = _num(row, "arl_mean"), _num(row, "arl_se")
                if not abs(arl - gamma) <= 0.05 * gamma + 4.0 * se:
                    fail(key, f"arl_mean {arl:g} further than 5 % + 4 se ({se:g}) from gamma")
            elif command == "edd":
                if row["censored"] != "0":
                    fail(key, f"{row['censored']} censored delay trials")
                if not math.isfinite(_num(row, "wdd_mean")):
                    fail(key, "wdd_mean not finite")
                if key[1] == "baseline" and theoretical and not math.isclose(_num(row, "b"), math.log(gamma), rel_tol=1e-12):
                    fail(key, f"baseline b {row['b']} != log(gamma)")
        except (KeyError, ValueError) as exc:
            fail(key, f"unparsable row ({exc})")
    notes = []
    if command == "experiment":
        notes = _check_delay_ordering(by_key, gate_ordering, fail)
    messages = [f"{command} {k[0]}/{k[1] or '-'}: {'; '.join(v)}" for k, v in failures.items()] + notes
    return len(want), len(failures), messages


def _check_delay_ordering(by_key, gated, fail):
    """Criterion 10's ordering.  It is a claim about the desk reproduction at
    the config's own seed: at other seeds (2 and 3, for example) the
    random-member baseline of cov_spectral detects faster than the robust
    detector, which a worst-case guarantee allows.  Ungated, the ordering is
    reported, not counted."""
    notes = []
    for name in ORDERED_SCENARIOS + (RATIO_SCENARIO,):
        rob, base = by_key.get((name, "robust")), by_key.get((name, "baseline"))
        if rob is None or base is None:
            continue
        try:
            r, b = float(rob["wdd_mean"]), float(base["wdd_mean"])
        except ValueError:
            continue  # already failed as unparsable
        if name == RATIO_SCENARIO:
            ok, what = 0.5 <= r / b <= 2.0, f"{name} delay ratio {r / b:.3g} in [0.5, 2]"
        else:
            ok, what = r < b, f"{name} robust delay {r:g} < baseline {b:g}"
        if gated and not ok:
            fail((name, "robust"), f"criterion-10 ordering broken: {what}")
            fail((name, "baseline"), f"criterion-10 ordering broken: {what}")
        elif not gated:
            notes.append(f"ordering (not gated): {what}: {'holds' if ok else 'does not hold'}")
    return notes
