"""Print the sha256 table of the CLI artifacts a behaviour-preserving change
must leave byte-identical.

    python3 tools/artifact_hashes.py

The package is imported from this checkout's src/, so running the script in
two checkouts and diffing the two tables compares them.  The artifacts are
every subcommand on criterion 11's d=3 config (csv and human, at --threads 1
and 2), `experiment --scenario cov_row` on that config, `experiment`,
`verify` and `detector` on tests/data/every_branch.cfg (the config branches
no bundled config reaches; `detector` pins the saddle solutions of its
interval u0 directly), `lfp` and `detector` on table1_paper.cfg, `edd` on
table1_paper.cfg without its cov_interval scenario (the config of the
benchmark's paper_delay workload) and `detector`, `verify` and `experiment`
on table1_desk.cfg (its `verify` is the only row that audits members above
d=3) and `detector` on a d=3 config whose u0 is a non-identity singleton
(the only row whose Theta* is neither the identity, a multiple of it nor an
interval's).  With these rows the table covers the artifacts of all
four benchmark calls.  Each digest is printed as its first 16 hex digits.
Takes about 10 s on 2 vCPUs with OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from robustcusum.cli import dispatch  # noqa: E402

# The config of acceptance criterion 11 (tests/test_acceptance.py).
D3_CONFIG = {
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

# criterion 11's cov_row with a non-identity singleton u0
D3_SINGLETON_CONFIG = {
    **D3_CONFIG,
    "scenarios": [
        {
            **D3_CONFIG["scenarios"][1],
            "u0": {"variant": "singleton_psd", "matrix": [[2, 0.5, 0], [0.5, 2, 0.5], [0, 0.5, 2]]},
        }
    ],
}

EVERY_BRANCH_CONFIG = str(ROOT / "tests" / "data" / "every_branch.cfg")
PAPER_CONFIG = ROOT / "src" / "robustcusum" / "configs" / "table1_paper.cfg"

COMMANDS = ("lfp", "detector", "calibrate", "arl", "edd", "verify", "experiment")


def paper_delay_config() -> dict:
    """table1_paper.cfg without cov_interval, whose design would dominate."""
    raw = json.loads(PAPER_CONFIG.read_text(encoding="utf-8"))
    raw["scenarios"] = [s for s in raw["scenarios"] if s["name"] != "cov_interval"]
    return raw


def artifacts(d3_path: str, paper_delay_path: str, d3_singleton_path: str):
    """(label, argv without --out) for every artifact in the table."""
    for command in COMMANDS:
        for fmt in ("csv", "human"):
            for threads in ("1", "2"):
                argv = [command, "--config", d3_path, "--format", fmt, "--threads", threads]
                yield f"d3 `{command}` {fmt} --threads {threads}", argv
    yield "d3 `experiment --scenario cov_row`", ["experiment", "--config", d3_path, "--scenario", "cov_row", "--threads", "2"]
    yield "every_branch.cfg `experiment`", ["experiment", "--config", EVERY_BRANCH_CONFIG, "--threads", "2"]
    yield "every_branch.cfg `verify`", ["verify", "--config", EVERY_BRANCH_CONFIG]
    yield "every_branch.cfg `detector`", ["detector", "--config", EVERY_BRANCH_CONFIG]
    yield "table1_paper.cfg `lfp`", ["lfp", "--config", "table1_paper.cfg", "--threads", "2"]
    yield "table1_paper.cfg `detector`", ["detector", "--config", "table1_paper.cfg", "--threads", "2"]
    yield "table1_paper.cfg without cov_interval `edd`", ["edd", "--config", paper_delay_path, "--threads", "2"]
    yield "table1_desk.cfg `detector`", ["detector", "--config", "table1_desk.cfg", "--threads", "2"]
    yield "table1_desk.cfg `verify`", ["verify", "--config", "table1_desk.cfg"]
    yield "table1_desk.cfg `experiment`", ["experiment", "--config", "table1_desk.cfg", "--threads", "2"]
    yield "d3 non-identity singleton `detector`", ["detector", "--config", d3_singleton_path]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        d3_path = Path(tmp) / "d3.cfg"
        d3_path.write_text(json.dumps(D3_CONFIG), encoding="utf-8")
        paper_delay_path = Path(tmp) / "paper_delay.cfg"
        paper_delay_path.write_text(json.dumps(paper_delay_config()), encoding="utf-8")
        d3_singleton_path = Path(tmp) / "d3_singleton.cfg"
        d3_singleton_path.write_text(json.dumps(D3_SINGLETON_CONFIG), encoding="utf-8")
        out = Path(tmp) / "artifact"
        print("| artifact | sha256 |")
        print("|---|---|")
        for label, argv in artifacts(str(d3_path), str(paper_delay_path), str(d3_singleton_path)):
            code = dispatch(argv + ["--quiet", "--out", str(out)])
            if code != 0:
                print(f"error: {label} exited {code}", file=sys.stderr)
                return 1
            print(f"| {label} | `{hashlib.sha256(out.read_bytes()).hexdigest()[:16]}` |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
