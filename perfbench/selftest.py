"""Fast self-test of the benchmark harness (about fifteen seconds).

    python3 perfbench/selftest.py

Checks the span self-time arithmetic, the median and tail-percentile
aggregation, that the output checks catch a corrupted artifact set, that a
name missing from the package is reported absent instead of crashing, and, on a
tiny config (4000 paths x 40 steps), that untraced and traced runs pass their
checks with identical artifacts and print only metric names declared in
BENCHMARK.json.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
import tracer

TINY_CFG = """\
mc.n_paths = 4000
grid.n_steps = 40
gest.n_outer = 1000
eval.times = 0.25, 0.5
"""


def check_self_time() -> None:
    def span(start, end, parent=None, name="x"):
        return {"name": name, "start": start, "end": end, "parent": parent, "run": "t"}

    spans = [
        span(0.0, 10.0),
        span(1.0, 3.0, 0),     # overlaps the next child: union [1, 5]
        span(2.0, 5.0, 0),
        span(2.5, 4.0, 2),     # grandchild: covered by its parent, not by span 0
        span(6.0, 7.0, 0),
        span(9.5, 11.0, 0),    # clipped to the parent's end
    ]
    got = [tracer.self_time(spans, i) for i in range(len(spans))]
    want = [10.0 - 4.0 - 1.0 - 0.5, 2.0, 3.0 - 1.5, 1.5, 1.0, 1.5]
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), (got, want)


def check_aggregation() -> None:
    assert run.median([3.0, 1.0, 2.0]) == 2.0
    assert run.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert run.tail_percentile([float(v) for v in range(10)]) is None
    # 11 samples: only the minimum has ten beyond it
    assert run.tail_percentile([float(v) for v in range(11, 0, -1)]) == (100.0 / 11, 1.0)
    # 20 samples: the 50th percentile (nearest rank) has 10 beyond it
    assert run.tail_percentile([float(v) for v in range(1, 21)]) == (50.0, 10.0)


def check_output_checks(cfg: Path, work: Path) -> None:
    out = work / "out"
    status = subprocess.run(
        [sys.executable, "-m", "bsdedensity.cli", "run", str(cfg), "--out", str(out)],
        env=run.child_env(), capture_output=True, check=False,
    ).returncode
    assert checks.check_run(out, status, "Y") == [], checks.check_run(out, status, "Y")

    def broken(edit) -> list[str]:
        copy = work / "broken"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        edit(copy)
        return checks.check_run(copy, status, "Y")

    gest = "gest_Y_t0p5.csv"

    def set_g(value: str):
        def edit(d: Path) -> None:
            lines = (d / gest).read_text().splitlines()
            x, _, se = lines[1].split(",")
            lines[1] = f"{x},{value},{se}"
            (d / gest).write_text("\n".join(lines) + "\n")
        return edit

    assert any("g deviates" in p for p in broken(set_g("0.501")))
    assert any("non-finite" in p for p in broken(set_g("nan")))
    assert any("missing" in p for p in broken(lambda d: (d / gest).unlink()))
    assert checks.check_run(out, 2, "Y") == ["exit status 2"]

    # spans of names a later package version lacks are absent: metrics read 0
    layers = tracer.layer_metrics([], out)
    assert layers["nvdensity.replays"] == 0 and layers["backward.solve_s"] == 0
    assert set(tracer.memory_metrics([]).values()) == {0.0}


def check_absent_names() -> None:
    sys.path.insert(0, str(run.SRC))
    import bsdedensity.backward as backward

    saved = backward.ensemble_from_increments
    del backward.ensemble_from_increments
    try:
        t = tracer.Tracer("absent")
        t.install()
        assert t.absent == ["backward.ensemble_from_increments"], t.absent
    finally:
        backward.ensemble_from_increments = saved


def check_reports(cfg: Path) -> None:
    declared = run.load_declaration()
    names = {d["name"] for d in declared["end_to_end"] + declared["per_layer"]}
    for trace, wanted in ((False, "end_to_end"), (True, "per_layer")):
        report = run.run_workload(cfg, "Y", 7, 0.1, trace, declared)
        result = report["result"]
        assert result["correct"] and result["failed"] == 0, report
        assert result["attempted"] == (3 if trace else 1), result
        assert set(result["metrics"]) == {d["name"] for d in declared[wanted]}, result
        printed = {row[0] for row in report["rows"]}
        assert printed <= names, printed - names
        text = run.render(report)
        assert all(f" {name} " in text for name in printed)
        if trace:
            metrics = result["metrics"]
            assert metrics["nvdensity.replays"]["value"] == 32  # 16 nodes x 2 eval times
            assert metrics["lamperti.inverse_calls"]["value"] == 40 * 33
            assert metrics["cli.stage_density.peak_mb"]["value"] > 0


def main() -> int:
    if not (run.SRC / "bsdedensity" / "cli.py").is_file():
        print(f"selftest: no package source under {run.SRC}", file=sys.stderr)
        return 2
    check_self_time()
    check_aggregation()
    check_absent_names()
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        cfg = work / "tiny.cfg"
        cfg.write_text(TINY_CFG, encoding="utf-8")
        check_output_checks(cfg, work)
        check_reports(cfg)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
