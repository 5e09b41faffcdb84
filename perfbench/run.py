"""Benchmark of the bsdedensity pipeline: end-to-end runs and a traced split.

    python3 perfbench/run.py --workload NAME [--seed S] [--seconds N] [--trace 0|1]

NAME is one of the workloads in ``perfbench/workloads`` (see README.md), or
``all`` to run each in turn.  Run from the root of a source checkout: the
package is imported from its ``src`` directory, never from an installed copy.

``--trace 0`` repeats untraced ``bsdedensity run`` invocations of the
workload for about N seconds and reports the end-to-end metrics declared in
BENCHMARK.json (medians over the invocations, plus the median of several
set-up probes).  ``--trace 1`` alternates untraced and traced invocations
and reports the per-layer metrics (medians over the traced invocations).
Every invocation's artifacts are checked (see checks.py); the last line of
standard output is the JSON result.  The benchmark exits 2 without a result
when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_DIR = BENCH_DIR / "workloads"

# workload -> component whose unit-derivative oracle holds on it (checks.py)
WORKLOADS = {"gest-default": "Y", "nonlinear-xt": None, "z-convex": "Z"}
DEFAULT_SEED = 20240801
# the first probe fills the bytecode cache and is not timed
SETUP_PROBES = 11
# a hung invocation is killed, so a run always ends and reports it as failed
CHILD_TIMEOUT_S = 150.0
_MB = 1024.0  # ru_maxrss is in KiB on Linux


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def load_declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- aggregation ------------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest nearest-rank percentile with at least ten samples beyond it,
    as (percentile, value); None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


# -- child processes ----------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run a child to completion: exit status, wall time, CPU time (user +
    system) and peak RSS from its own resource usage.  A child still running
    after ``timeout`` seconds is killed and reported with status -9."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGINT, or SIGTERM via main): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "status": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / _MB,
    }


def environment(cfg: Path, seed: int, work: Path) -> dict:
    """Where and with what the numbers were taken; also proves the package
    is imported from this checkout."""
    log = work / "env.log"
    res = spawn([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(cfg), "--env"], log)
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    if res["status"] != 0 or not lines:
        raise BenchmarkError("set-up probe failed:\n" + "\n".join(lines[-20:]))
    env = json.loads(lines[-1])
    if not Path(env["bsdedensity_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"bsdedensity imported from {env['bsdedensity_file']}, not {SRC}")
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(FileNotFoundError):  # no git installed
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False)
            commit = got.stdout.strip() or commit
    mem_kb = None
    meminfo = Path("/proc/meminfo")
    if meminfo.exists():
        for line in meminfo.read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    env.update({
        "commit": commit,
        "seed": seed,
        "nproc": os.cpu_count(),
        "mem_total_mb": None if mem_kb is None else mem_kb / 1024.0,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    })
    del env["bsdedensity_file"]
    return env


# -- one workload -----------------------------------------------------------------


class Batch:
    """The invocations of one workload at one seed, and what they produced."""

    def __init__(self, cfg: Path, oracle: str | None, seed: int, work: Path):
        self.cfg = cfg
        self.oracle = oracle
        self.seed = seed
        self.work = work
        self.runs: list[dict] = []
        self.reference_sha: str | None = None
        self.fingerprint: dict | None = None
        self.verdicts = (0, 0)

    def invoke(self, mode: str) -> None:
        """One checked ``bsdedensity run`` of the workload.  ``mode`` is
        "plain" (untraced), "time" (spans) or "memory" (spans and
        tracemalloc); traced runs add their per-layer metrics under "layers"."""
        i = len(self.runs)
        run_dir = self.work / f"run{i}"
        out = run_dir / "out"
        run_dir.mkdir()
        cli_args = ["run", str(self.cfg), "--seed", str(self.seed), "--out", str(out)]
        spans_path = run_dir / "spans.json"
        if mode == "plain":
            argv = [sys.executable, "-m", "bsdedensity.cli", *cli_args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), f"run{i}",
                    mode, *cli_args]
        run = spawn(argv, run_dir / "log.txt")
        run["mode"] = mode
        try:
            problems = checks.check_run(out, run["status"], self.oracle) if out.is_dir() else [
                f"no artifact directory (exit status {run['status']})"]
            if not problems:
                sha, _ = checks.artifact_digest(out)
                if self.reference_sha is None:
                    self.reference_sha = sha
                    self.fingerprint = checks.fingerprint(out, sha)
                    self.verdicts = checks.verdict_counts(out)
                elif sha != self.reference_sha:
                    problems.append("artifact set differs from the first run of this seed")
        except (KeyError, OSError, ValueError) as exc:
            problems = [f"unreadable artifacts: {exc!r}"]
        if mode != "plain" and spans_path.exists() and (out / "run_metadata.json").exists():
            try:
                spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
                run["layers"] = (tracer.layer_metrics(spans, out) if mode == "time"
                                 else tracer.memory_metrics(spans))
            except (KeyError, OSError, ValueError) as exc:
                problems.append(f"per-layer metrics: {exc!r}")
        if problems:
            log_tail = (run_dir / "log.txt").read_text(errors="replace")[-2000:]
            print(f"# run{i} failed: {'; '.join(problems)}\n# log tail: {log_tail!r}",
                  file=sys.stderr)
        run["problems"] = problems
        self.runs.append(run)
        shutil.rmtree(run_dir)

    def ok_runs(self, mode: str) -> list[dict]:
        """The runs of one mode that passed their checks (all of that mode
        when none did, so that a failing program still reports numbers)."""
        same = [r for r in self.runs if r["mode"] == mode]
        good = [r for r in same if not r["problems"]]
        return good or same


def measure_setup(cfg: Path, work: Path) -> list[float]:
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(cfg)]
    walls = []
    for i in range(SETUP_PROBES):
        res = spawn(argv, work / "setup.log")
        if res["status"] != 0:
            raise BenchmarkError("set-up probe failed: " + (work / "setup.log").read_text())
        if i:
            walls.append(res["wall_s"])
    return walls


def run_workload(cfg: Path, oracle: str | None, seed: int, seconds: float, trace: bool,
                 declared: dict) -> dict:
    """Measure one workload: the report that :func:`render` prints."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        env = environment(cfg, seed, work)
        setup = [] if trace else measure_setup(cfg, work)
        batch = Batch(cfg, oracle, seed, work)
        # rounds of one untraced invocation (plus one time-traced and one
        # memory-traced with --trace 1) until the next round would end more
        # than half a round after the measuring window
        modes = ("plain", "time", "memory") if trace else ("plain",)
        t0 = time.perf_counter()
        rounds = 0
        while True:
            for mode in modes:
                batch.invoke(mode)
            rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / rounds > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    untraced = batch.ok_runs("plain")
    samples: dict[str, list[float]] = {
        "wall_s": [r["wall_s"] for r in untraced],
        "cpu_s": [r["cpu_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    if trace:
        for mode in ("time", "memory"):
            traced = [r for r in batch.ok_runs(mode) if "layers" in r]
            for name in (traced[0]["layers"] if traced else {}):
                samples[name] = [r["layers"][name] for r in traced]
        samples["trace_overhead_s"] = [
            median([r["wall_s"] for r in batch.ok_runs("time")]) - median(samples["wall_s"])
        ]
        wanted = declared["per_layer"]
        # no traced run produced metrics (each failed; "failed" says so)
        for decl in wanted:
            samples.setdefault(decl["name"], [0.0])
    else:
        samples["setup_s"] = setup
        wanted = declared["end_to_end"]

    attempted = len(batch.runs)
    failed = sum(1 for r in batch.runs if r["problems"])
    n_fail, n_applicable = batch.verdicts
    samples["error_rate"] = [failed / attempted]
    samples["verdict_fail_frac"] = [n_fail / n_applicable if n_applicable else 0.0]
    units = {d["name"]: d["unit"] for d in declared["end_to_end"] + declared["per_layer"]}
    shown = [d["name"] for d in wanted] + [
        name for name in ("error_rate", "verdict_fail_frac")
        if name not in {d["name"] for d in wanted}]
    rows = []
    for name in shown:
        values = samples.get(name)
        if not values:
            raise BenchmarkError(f"no samples for declared metric {name}")
        rows.append((name, units[name], median(values), len(values), tail_percentile(values)))
    return {
        "header": f"perfbench workload={cfg.stem} seed={seed} trace={int(trace)} "
                  f"seconds={seconds:g} attempted={attempted} failed={failed}",
        "rows": rows,
        "record": {"environment": env, "fingerprint": batch.fingerprint,
                   "samples": {name: samples[name] for name in shown}},
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {d["name"]: {"value": median(samples[d["name"]]), "unit": d["unit"]}
                        for d in wanted},
        },
    }


def render(report: dict) -> str:
    """The human-readable table, the record line and, last, the JSON result."""
    lines = [f"# {report['header']}",
             f"# {'metric':32s} {'unit':6s} {'median':>14s} {'n':>4s}  tail"]
    for name, unit, value, n, tail in report["rows"]:
        tail_txt = "-" if tail is None else f"p{tail[0]:.0f}={tail[1]:.6g}"
        lines.append(f"# {name:32s} {unit:6s} {value:14.6g} {n:4d}  {tail_txt}")
    lines.append("# record " + json.dumps(report["record"], sort_keys=True))
    lines.append(json.dumps(report["result"]))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    declared = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bsdedensity" / "cli.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            report = run_workload(WORKLOAD_DIR / f"{name}.cfg", WORKLOADS[name],
                                  args.seed, args.seconds, bool(args.trace), declared)
            print(render(report), flush=True)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
