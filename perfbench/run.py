#!/usr/bin/env python3
"""Benchmark of robustcusum through its public CLI entry point.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload desk_experiment --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload paper_design --trace 1     # per-layer numbers
    python3 perfbench/run.py --workload all                        # every workload in turn
    python3 perfbench/run.py --smoke                               # the benchmark's self-test

Each workload runs in fresh child processes with the thread-related
environment variables removed.  They call `robustcusum.cli.dispatch`
in-process with fixed argv, and every CSV artifact is checked row by row.
The last line of standard output is one JSON object: correct, attempted,
failed (one operation per output row) and the metrics.  NOTES.md describes
every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTS, LAYER_UNITS, ROOT_SPAN
from workloads import WORKLOADS, check_artifact, expected_rows

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Variables that change how many threads BLAS or the CLI use.  A value left
# over in the caller's shell would read as a regression or a gain, so no
# child sees any of them: every run gets the library defaults.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "ROBUSTCUSUM_THREADS",
)
SETUPS = 5  # timed set-ups per run, after one untimed warm-up
TIME_CAP_S = 170.0  # safety timeout for one workload, set-up included

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# orchestration (no numpy here)
# ---------------------------------------------------------------------------


def _child_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    removed = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
    return env, removed


def _run_children(common, modes, env, deadline):
    """Run measuring children side by side, one per mode argv; the JSON last
    line of each.  Every child is stopped and waited for before this returns."""
    procs = []
    try:
        for mode in modes:
            procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--child", *common, *mode],
                env=env, cwd=ROOT, stdout=subprocess.PIPE,
            ))
        results = []
        for proc, mode in zip(procs, modes):
            try:
                out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode[0]} child exceeded the {TIME_CAP_S:g} s cap") from None
            lines = out.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{mode[0]} child exited with code {proc.returncode}")
            results.append(json.loads(lines[-1]))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _source_manifest():
    digest = hashlib.sha256()
    pkg = ROOT / "src" / "robustcusum"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def _setup_times(env, config_path, deadline):
    """Set-up samples: process spawn to package imported and config parsed,
    each in a fresh interpreter running setup_probe.py."""
    probe = [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"), config_path]
    times = []
    for i in range(SETUPS + 1):  # the first, untimed, fills the bytecode cache
        start = time.monotonic()
        try:
            proc = subprocess.run(probe, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                  timeout=max(0.0, deadline - time.monotonic()), check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up probe exceeded the {TIME_CAP_S:g} s cap") from None
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited with code {proc.returncode}")
        if i:
            times.append(float(proc.stdout.decode().split()[-1]) - start)
    return times


class Ledger:
    """Attempted and failed operations (output rows) per artifact."""

    def __init__(self):
        self.rows = {}  # (repetition, label) -> [attempted, failed]
        self.messages = []

    def check(self, rep, call, raw, gate_ordering):
        key = (rep, call["label"])
        path = Path(call["path"])
        if call["rc"] != 0 or not path.is_file():
            n = len(expected_rows(call["label"], raw))
            self.rows[key] = [n, n]
            self.messages.append(f"{rep} {call['label']}: no artifact (exit code or error: {call['rc']})")
            return
        text = path.read_text(encoding="utf-8")
        attempted, failed, msgs = check_artifact(call["label"], raw, text, gate_ordering)
        self.rows[key] = [attempted, failed]
        self.messages += [f"{rep} {m}" for m in msgs]

    def fail_all(self, rep, why):
        for key, counts in self.rows.items():
            if key[0] == rep:
                counts[1] = counts[0]
        self.messages.append(f"{rep}: {why}")

    @property
    def attempted(self):
        return sum(a for a, _ in self.rows.values())

    @property
    def failed(self):
        return sum(f for _, f in self.rows.values())


def run_workload(name, seed, seconds, trace, *, smoke=False):
    """Run one workload in child processes; returns the report dict."""
    deadline = time.monotonic() + TIME_CAP_S
    workload = WORKLOADS[name]
    out_dir = OUT_DIR / (name + ("-smoke" if smoke else ""))
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = workload.config(str(ROOT), smoke)
    config_path = out_dir / "workload.cfg"
    config_path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    env, removed = _child_env()

    common = ["measure", name, str(config_path), str(out_dir), json.dumps(seed)]
    if trace:
        # Traced call A runs alone and gives the layer numbers.  Then the
        # untraced call and traced call B, at the same seed, run side by side:
        # the overhead compares two calls made under the same load, and three
        # desk_experiment calls one after the other would not fit in a run.
        traced_a, = _run_children(common, [["traced-a"]], env, deadline)
        untraced, traced_b = _run_children(common, [["untraced"], ["traced-b"]], env, deadline)
        children = [untraced, traced_a, traced_b]  # the untraced artifacts are the reference
    else:
        setups = _setup_times(env, str(config_path), deadline)
        children = _run_children(common, [["loop", str(seconds), repr(deadline)]], env, deadline)

    ledger = Ledger()
    reps = {tag: calls for child in children for tag, calls in child["reps"].items()}
    gate_ordering = not smoke and seed in (None, raw["seed"])
    for rep, calls in reps.items():
        for call in calls:
            ledger.check(rep, call, raw, gate_ordering)
    first = next(iter(reps))
    for rep, calls in reps.items():
        for call, ref in zip(calls, reps[first]):
            if call["rc"] == 0 and ref["rc"] == 0 and _sha256(call["path"]) != _sha256(ref["path"]):
                what = "traced artifact differs from the untraced one" if trace else "artifact differs across repetitions"
                ledger.fail_all(rep, f"{call['label']}: {what}")

    report = {
        "workload": name,
        "ledger": ledger,
        "artifacts": {c["label"]: _sha256(c["path"]) for c in reps[first] if c["rc"] == 0},
        "manifest": dict(
            children[0]["manifest"],
            nproc=os.cpu_count(),
            threads=workload.thread_count(),
            seed=raw["seed"] if seed is None else seed,
            config_sha256=_sha256(config_path),
            thread_vars_removed=removed,
            **_source_manifest(),
        ),
    }
    if not trace:
        child = children[0]
        report["metrics"] = {
            "wall_s": statistics.median(child["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        report["runs"] = len(child["walls"])
        report["setups"] = len(setups)
        return report

    a, b = traced_a["layers"], traced_b["layers"]
    metrics = dict(a)
    metrics.update({
        "trace.untraced_wall_s": untraced["walls"][0],
        "trace.traced_wall_s": traced_b["walls"][0],
        "trace.overhead_s": traced_b["walls"][0] - untraced["walls"][0],
        "trace.spans": traced_a["spans"],
    })
    report["metrics"] = metrics
    for tag, child in (("traced-a", traced_a), ("traced-b", traced_b)):
        if child["unpatched"]:
            ledger.fail_all(tag, f"package bindings still call the unwrapped function: {child['unpatched']}")
        if child["layers"]["cusum.steps"] > child["layers"]["gaussian.rows_sampled"]:
            ledger.fail_all(tag, "cusum.steps exceeds gaussian.rows_sampled")
    if traced_a["missing"]:
        ledger.messages.append(f"trace targets missing from the package (their metrics read 0): {traced_a['missing']}")
    diff = {k: (a[k], b[k]) for k in EXACT_COUNTS if a[k] != b[k]}
    if diff:
        ledger.fail_all("traced-b", f"exact counts differ between two traced runs: {diff}")
    report["repeat_check"] = "failed" if diff else "passed"
    return report


def _units(trace):
    return dict(LAYER_UNITS, **TRACE_UNITS) if trace else END_TO_END_UNITS


def print_report(report, trace):
    ledger = report["ledger"]
    frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    manifest = report["manifest"]
    print(f"workload {report['workload']}  seed {manifest['seed']}  threads {manifest['threads']}")
    units = _units(trace)
    for key, unit in units.items():
        value = report["metrics"][key]
        extra = ""
        if key == "wall_s":
            extra = f"  (median of {report['runs']} runs)"
        elif key == "setup_s":
            extra = f"  (median of {report['setups']} set-ups)"
        print(f"  {key:<34} {value:<14.6g} {unit}{extra}")
    print(f"  {'failed_fraction':<34} {frac:<14.6g} ratio  ({ledger.failed}/{ledger.attempted} rows)")
    if trace:
        print(f"  repeat check: {report['repeat_check']}")
    for label, digest in report["artifacts"].items():
        print(f"  artifact {label}.csv sha256 {digest}")
    for message in ledger.messages:
        print(f"  check: {message}")
    print(f"  manifest {json.dumps(manifest, sort_keys=True)}")


def result_line(reports, trace, prefix=False):
    attempted = sum(r["ledger"].attempted for r in reports)
    failed = sum(r["ledger"].failed for r in reports)
    metrics = {}
    for r in reports:
        for key, unit in _units(trace).items():
            name = f"{r['workload']}.{key}" if prefix else key
            metrics[name] = {"value": r["metrics"][key], "unit": unit}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


# ---------------------------------------------------------------------------
# smoke: the benchmark's own fast tests
# ---------------------------------------------------------------------------


def _corruptions(text):
    """Two broken copies of a CSV artifact: last row dropped, and every
    number in the first data row replaced by nan."""
    lines = text.splitlines(keepends=True)
    dropped = "".join(lines[:-1])
    cells = lines[1].rstrip("\n").split(",")
    for i, cell in enumerate(cells):
        try:
            float(cell)
            cells[i] = "nan"
        except ValueError:
            pass
    poisoned = "".join([lines[0], ",".join(cells) + "\n", *lines[2:]])
    return {"row dropped": dropped, "numbers poisoned": poisoned}


def smoke():
    results = []

    def expect(ok, what):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {what}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in WORKLOADS:
        for trace in (0, 1):
            report = run_workload(name, None, 0, trace, smoke=True)
            line = json.loads(result_line([report], trace))
            units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
            emitted = {k: m["unit"] for k, m in line["metrics"].items()}
            expect(emitted == units, f"{name} trace={trace}: the {len(units)} metrics of BENCHMARK.json emitted with their units")
            expect(line["correct"] and line["attempted"] > 0, f"{name} trace={trace}: {line['attempted']} rows correct")
            if trace:
                expect(report["repeat_check"] == "passed", f"{name}: exact counts repeat across two traced runs")
            else:
                raw = WORKLOADS[name].config(str(ROOT), True)
                for label in report["artifacts"]:
                    text = (OUT_DIR / f"{name}-smoke" / f"run0-{label}.csv").read_text(encoding="utf-8")
                    for kind, broken in _corruptions(text).items():
                        attempted, failed, _ = check_artifact(label, raw, broken, False)
                        expect(failed > 0, f"{name} {label}: {kind} gives failed_fraction {failed}/{attempted} > 0")
    late = _late_binding_report()
    expect(late == ["robustcusum._late.run_until_alarm"], f"a binding made after install() is reported: {late}")
    print(json.dumps({"correct": all(results), "attempted": len(results), "failed": results.count(False), "metrics": {}}))
    return 0 if all(results) else 1


def _late_binding_report():
    """What the traced runs' binding check says about a package module that
    is loaded after install() and holds an original function."""
    import types

    from tracing import Tracer

    _import_package()
    import robustcusum.cusum

    original = robustcusum.cusum.run_until_alarm
    tracer = Tracer()
    tracer.install()
    late = types.ModuleType("robustcusum._late")
    late.run_until_alarm = original
    sys.modules[late.__name__] = late
    try:
        return tracer.unpatched_bindings()
    finally:
        del sys.modules[late.__name__]
        tracer.uninstall()


# ---------------------------------------------------------------------------
# child processes (these import the package)
# ---------------------------------------------------------------------------


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import robustcusum.cli

    if not Path(robustcusum.cli.__file__).resolve().is_relative_to(src):
        raise BenchError(f"robustcusum imported from {robustcusum.cli.__file__}, not from {src}")
    return robustcusum.cli


def _runtime_manifest():
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = {}
    try:
        info = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    threads = None
    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs_dir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    blas["runtime_threads"] = threads
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars_seen": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def child_measure(name, config_path, out_dir, seed_json, mode, seconds="0", deadline="inf"):
    """One measuring child.  mode "loop" repeats the workload's calls for
    `seconds`; "untraced" makes them once; "traced-a" and "traced-b" make
    them once under a Tracer."""
    import contextlib
    import resource
    import traceback

    cli = _import_package()
    calls = WORKLOADS[name].calls(config_path, json.loads(seed_json))
    seconds, deadline = float(seconds), float(deadline)
    reps, walls = {}, []

    def repetition(tag, dispatch):
        records = []
        t0 = time.perf_counter()
        for call in calls:
            path = str(Path(out_dir) / f"{tag}-{call.label}.csv")
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            try:
                rc = dispatch([*call.argv, "--out", path])
            except Exception as exc:  # a raising command is a failed operation, not a benchmark crash
                traceback.print_exc()
                rc = f"raised {type(exc).__name__}"
            records.append({"label": call.label, "path": path, "rc": rc})
        walls.append(time.perf_counter() - t0)
        reps[tag] = records

    result = {"manifest": _runtime_manifest()}
    if mode == "loop":
        start = time.monotonic()
        while True:
            repetition(f"run{len(walls)}", cli.dispatch)
            now = time.monotonic()
            if now - start >= seconds or now + walls[-1] > deadline:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode == "untraced":
        repetition(mode, cli.dispatch)
    else:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            repetition(mode, lambda argv: tracer.span(ROOT_SPAN, cli.dispatch, argv))
            result["unpatched"] = tracer.unpatched_bindings()
        finally:
            tracer.uninstall()
        result.update(layers=layer_metrics(tracer.spans), spans=len(tracer.spans), missing=tracer.missing)
    result.update(reps=reps, walls=walls)
    print(json.dumps(result))


# ---------------------------------------------------------------------------


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:2] == ["--child", "measure"]:
        child_measure(*argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the config's own seed)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measure repetitions for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced runs")
    parser.add_argument("--smoke", action="store_true", help="self-test on a tiny d=3 config")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "robustcusum" / "cli.py").is_file():
        print(f"error: no robustcusum sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        reports = []
        for name in names:
            report = run_workload(name, args.seed, args.seconds, args.trace)
            print_report(report, args.trace)
            reports.append(report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(result_line(reports, args.trace, prefix=len(reports) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
