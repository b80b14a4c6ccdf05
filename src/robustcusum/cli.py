"""Command-line surface.

Subcommands wrap the library operations: solve detectors (`lfp`,
`detector`), pick thresholds (`calibrate`), evaluate procedures (`arl`,
`edd`, `verify`) and run the full experiment suite (`experiment`).

Conventions: results go to stdout (or --out), diagnostics and progress to
stderr only.  Exit codes: 0 success, 1 validation/usage error, 2 solver or
calibration non-convergence.  Identical argv + config + seed produce
byte-identical output artifacts.  Monte Carlo trials run on the calling
thread; --threads is still parsed and range-checked but changes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .config import SEED_LIMIT, load_bundled_config, load_config
from .cusum import certified_threshold
from .errors import CalibrationError, ConvergenceError, FlagError, RobustCusumError
from .simulate import (
    calibrated_threshold,
    class_members,
    estimate_arl,
    estimate_wdd,
    format_cell,
    pick_threshold,
    prepare_scenario,
    render_human,
    render_table,
    run_scenario,
    to_csv,
    verify_detector_bounds,
)

_FORMATS = ("csv", "human")


class _UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self)


def _bounded_int(low: int, below: int | None = None):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be < {below}, got {value}")
        return value

    return parse


def _add_common(sub):
    sub.add_argument("--config", required=True, help="config file path or bundled name (e.g. table1_desk.cfg)")
    sub.add_argument("--seed", type=_bounded_int(0, SEED_LIMIT), default=None, help="override the config seed (< 2**64)")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    sub.add_argument("--format", choices=_FORMATS, default="csv")
    # a string default goes through `type` too, so one check covers the
    # flag and the environment variable
    sub.add_argument(
        "--threads",
        type=_bounded_int(1),
        default=os.environ.get("ROBUSTCUSUM_THREADS", str(os.cpu_count() or 1)),
        help="accepted for compatibility, >= 1 (default: ROBUSTCUSUM_THREADS or available parallelism); "
        "Monte Carlo trials run on the calling thread and the value changes nothing",
    )
    sub.add_argument("--quiet", action="store_true", help="suppress progress messages on stderr")
    sub.add_argument("--scenario", default=None, help="restrict to one scenario by name")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robustcusum", description="Minimax-robust CUSUM change-point detection")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("lfp", "solve the least-favorable mean pair for mean-shift scenarios"),
        ("detector", "solve the quadratic-detector saddle problem for covariance scenarios"),
        ("calibrate", "Monte Carlo threshold calibration per scenario and procedure"),
        ("arl", "estimate average run length at the configured threshold"),
        ("edd", "estimate worst-case detection delay at the configured threshold"),
        ("verify", "audit the detector exponential-moment bounds, exactly, on sampled class members"),
        ("experiment", "run the full scenario suite and emit the comparison table"),
    ):
        sub = subs.add_parser(name, help=desc, description=desc)
        _add_common(sub)
        if name == "verify":
            sub.add_argument("--members", type=_bounded_int(1), default=10, help="sampled members per class (>= 1)")
    return parser


class _Progress:
    """Throttled progress printer (>= 1 s between lines), stderr only."""

    def __init__(self, quiet: bool):
        self.quiet = quiet
        self._last = 0.0

    def __call__(self, message: str):
        if self.quiet:
            return
        now = time.monotonic()
        if now - self._last >= 1.0:
            print(message, file=sys.stderr, flush=True)
            self._last = now


def _load(args):
    path = args.config
    try:
        cfg = load_config(path) if os.path.exists(path) else load_bundled_config(path)
    except (FileNotFoundError, ModuleNotFoundError):
        raise FlagError(f"--config: no such file or bundled config '{path}'") from None
    except OSError as exc:
        raise FlagError(f"--config: cannot read '{path}' ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise FlagError(f"--config: cannot read '{path}' (not UTF-8 text)") from None
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _select_scenarios(cfg, args, kind=None):
    """The scenarios --scenario names, of `kind` when the subcommand solves
    only one kind."""
    scens = cfg.scenarios
    if args.scenario is not None:
        scens = [s for s in scens if s.name == args.scenario]
        if not scens:
            raise FlagError(f"--scenario: no scenario named '{args.scenario}'")
        if kind is not None and scens[0].kind != kind:
            raise FlagError(
                f"--scenario: '{args.scenario}' is a {scens[0].kind} scenario; "
                f"{args.command} solves only {kind} scenarios"
            )
    if kind is not None:
        scens = [s for s in scens if s.kind == kind]
        if not scens:
            raise FlagError(f"{args.command}: config '{args.config}' has no {kind} scenario")
    return scens


def _check_out(out):
    """Reject an --out path that cannot be written, before any compute runs."""
    if out is not None and os.path.isdir(out):
        raise FlagError(f"--out: cannot write '{out}' (is a directory)")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise FlagError(f"--out: cannot write '{out}' (no such directory)")


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise FlagError(f"--out: cannot write '{out}' ({exc.strerror})") from None


def _vec(v) -> str:
    return ";".join(format_cell(x) for x in np.asarray(v, dtype=float).ravel())


def _cmd_lfp(cfg, args, progress):
    rows = []
    for scen in _select_scenarios(cfg, args, kind="mean_shift"):
        prep = prepare_scenario(cfg, scen, progress=progress)
        sol = prep.solution
        rows.append(
            [scen.name, format_cell(sol.delta_sq), format_cell(sol.epsilon_star), str(sol.iterations),
             format_cell(sol.residual), _vec(sol.mu0_star), _vec(sol.mu1_star)]
        )
    header = ["scenario", "delta_sq", "epsilon_star", "iterations", "residual", "mu0_star", "mu1_star"]
    return render_table(header, rows, args.format)


def _cmd_detector(cfg, args, progress):
    rows = []
    for scen in _select_scenarios(cfg, args, kind="covariance_shift"):
        prep = prepare_scenario(cfg, scen, progress=progress)
        sol = prep.solution
        if args.format == "csv":
            rows.append(
                [scen.name, format_cell(sol.sv), format_cell(sol.gap), format_cell(sol.epsilon_star),
                 str(sol.iterations), _vec(sol.h_star), _vec(sol.H_star)]
            )
        else:
            rows.append(
                [scen.name, f"{sol.sv:.8g}", f"{sol.gap:.3g}", f"{sol.epsilon_star:.8g}", str(sol.iterations),
                 f"||h*||={np.linalg.norm(sol.h_star):.4g}", f"||H*||_F={np.linalg.norm(sol.H_star):.4g}"]
            )
    header = ["scenario", "sv", "gap", "epsilon_star", "iterations", "h_star", "H_star"]
    return render_table(header, rows, args.format)


def _cmd_calibrate(cfg, args, progress):
    rows = []
    for scen in _select_scenarios(cfg, args):
        prep = prepare_scenario(cfg, scen, progress=progress)
        for procedure, det in prep.procedures:
            b_theory = certified_threshold(cfg.gamma, det)
            b_cal = calibrated_threshold(cfg, prep, det, procedure, progress=progress)
            rows.append([scen.name, procedure, format_cell(b_theory), format_cell(b_cal)])
    return render_table(["scenario", "procedure", "b_theoretical", "b_calibrated"], rows, args.format)


def _cmd_arl(cfg, args, progress):
    rows = []
    for scen in _select_scenarios(cfg, args):
        prep = prepare_scenario(cfg, scen, progress=progress)
        for procedure, det in prep.procedures:
            b = pick_threshold(cfg, prep, det, procedure, progress=progress)
            progress(f"{scen.name}/{procedure}: ARL at b={b:.5g}")
            mean, se, censored = estimate_arl(
                det, b, prep.nu0_true, cfg.arl_trials, cfg.arl_horizon, cfg.seed, scenario_index=scen.index
            )
            rows.append([scen.name, procedure] + [format_cell(x) for x in (b, mean, se, censored)])
    return render_table(["scenario", "procedure", "b", "arl_mean", "arl_se", "censored_fraction"], rows, args.format)


def _cmd_edd(cfg, args, progress):
    rows = []
    for scen in _select_scenarios(cfg, args):
        prep = prepare_scenario(cfg, scen, progress=progress)
        for procedure, det in prep.procedures:
            b = pick_threshold(cfg, prep, det, procedure, progress=progress)
            progress(f"{scen.name}/{procedure}: delays at b={b:.5g}")
            mean, sd, censored = estimate_wdd(
                det, b, prep.post_draw, scen.delay_trials, cfg.delay_horizon, cfg.seed, scenario_index=scen.index
            )
            rows.append([scen.name, procedure] + [format_cell(x) for x in (b, mean, sd, censored)])
    return render_table(["scenario", "procedure", "b", "wdd_mean", "wdd_sd", "censored"], rows, args.format)


def _cmd_verify(cfg, args, progress):
    rows = []
    for scen in _select_scenarios(cfg, args):
        prep = prepare_scenario(cfg, scen, progress=progress)
        progress(f"{scen.name}: sampling class members")
        members0, members1 = class_members(cfg, scen, prep, args.members)
        for e in verify_detector_bounds(prep.robust_detector, members0, members1).entries:
            rows.append(
                [scen.name, str(e.side), str(e.index), format_cell(e.value), format_cell(e.bound),
                 "pass" if e.passed else "FAIL"]
            )
    header = ["scenario", "side", "member", "moment", "bound", "status"]
    return render_table(header, rows, args.format)


def _cmd_experiment(cfg, args, progress):
    reports = [
        r for scen in _select_scenarios(cfg, args) for r in run_scenario(cfg, scen, progress=progress)
    ]
    return to_csv(reports) if args.format == "csv" else render_human(reports)


_COMMANDS = {
    "lfp": _cmd_lfp,
    "detector": _cmd_detector,
    "calibrate": _cmd_calibrate,
    "arl": _cmd_arl,
    "edd": _cmd_edd,
    "verify": _cmd_verify,
    "experiment": _cmd_experiment,
}


def dispatch(argv) -> int:
    """Parse argv, run the command, write artifacts; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(args.out)
        cfg = _load(args)
        progress = _Progress(args.quiet)
        text = _COMMANDS[args.command](cfg, args, progress)
        _emit(text, args.out)
        return 0
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, CalibrationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError) and exc.residual is not None:
            print(f"last residual/gap: {exc.residual:.6g}", file=sys.stderr)
        return 2
    except RobustCusumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
