"""In-process traced run of the bsdedensity CLI, and the per-layer split.

The tracer wraps, from outside the package, the public callables the pipeline
resolves at call time: the names ``bsdedensity.cli`` imported, the replay
entry points of ``bsdedensity.backward``, the methods of ``LampertiMap``,
``MalliavinTableau`` and ``BackwardTableau`` and the ``Experiment.stage_*``
methods.  Each call becomes a span (name, start, end, parent, run id) kept in
memory and written out when the run ends.  A name a later version of the
package no longer has is listed as absent; its metrics read zero.

Run as a script it executes one CLI invocation under the tracer:

    python3 perfbench/tracer.py SPANS.json RUN_ID {time|memory} run CONFIG ...

and exits with the CLI's status.  ``memory`` also runs ``tracemalloc``, which
sees numpy buffers, to record each stage's peak and live bytes; it roughly
doubles the run time, so time spans are taken from ``time`` runs only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

import checks

_MB = float(1 << 20)

# (module, attribute) pairs wrapped as plain functions
FUNCTIONS = [
    ("cli", name) for name in (
        "check_hypotheses", "simulate_forward", "solve_bsde",
        "derivative_bound_constants", "estimate_g", "kde", "envelope_check",
        "positivity_report", "_write_csv", "_write_json",
    )
] + [("backward", "solve_bsde"), ("backward", "ensemble_from_increments")]

# (module, class) -> wrapped methods and properties; LampertiMap.beta is
# wrapped so that the forward sweep's self time excludes the drift evaluation
METHODS = {
    ("lamperti", "LampertiMap"): ("__init__", "transform", "inverse_transform", "beta"),
    ("forward", "MalliavinTableau"): (
        "__init__", "B", "sig1X", "first_u_matrix", "first_x_matrix", "first_x_all",
    ),
    ("backward", "BackwardTableau"): ("__init__", "dy_matrix", "z_clark_all", "dz_matrix"),
    ("cli", "Experiment"): (
        "stage_hypotheses", "stage_simulate", "stage_density", "stage_verify",
    ),
}

# span names: the defining module and qualified name, so a function wrapped
# under two module namespaces yields one span name
PHI_SAMPLER = "nvdensity.phi_sampler"
WRITE_ARTIFACT = ("cli._write_csv", "cli._write_json")


class Tracer:
    """Span recorder.  Spans nest by call order on one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            **attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def traced(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def traced_stage(self, name: str, fn):
        """A stage span that, while tracemalloc runs, also records the bytes
        live when the stage ends and the stage's peak."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                if not tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record["live_bytes"], record["peak_bytes"] = tracemalloc.get_traced_memory()
        return wrapper

    def traced_estimate_g(self, name: str, fn):
        """estimate_g with its Phi-sampler traced: every call on increments
        other than the unshifted base matrix is one replay."""
        def traced_sampler(phi_sampler, base):
            def phi(increments):
                with self.span(PHI_SAMPLER, shifted=increments is not base):
                    return phi_sampler(increments)
            return phi

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = kwargs.get("base_increments")
            if len(args) > 1:
                args = (args[0], traced_sampler(args[1], base), *args[2:])
            elif "phi_sampler" in kwargs:
                kwargs["phi_sampler"] = traced_sampler(kwargs["phi_sampler"], base)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every listed callable that exists; record the rest as absent."""
        def short(obj) -> str:
            return obj.__module__.rsplit(".", 1)[-1] + "." + obj.__qualname__

        for mod_name, attr in FUNCTIONS:
            mod = importlib.import_module(f"bsdedensity.{mod_name}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            name = short(fn)
            wrap = self.traced_estimate_g if attr == "estimate_g" else self.traced
            setattr(mod, attr, wrap(name, fn))

        for (mod_name, cls_name), members in METHODS.items():
            mod = importlib.import_module(f"bsdedensity.{mod_name}")
            cls = getattr(mod, cls_name, None)
            for member in members:
                raw = None if cls is None else cls.__dict__.get(member)
                if isinstance(raw, property) and raw.fget is not None:
                    traced = self.traced(short(raw.fget), raw.fget)
                    setattr(cls, member, property(traced, raw.fset, raw.fdel, raw.__doc__))
                elif callable(raw):
                    name = short(raw)
                    wrap = self.traced_stage if member.startswith("stage_") else self.traced
                    setattr(cls, member, wrap(name, raw))
                else:
                    self.absent.append(f"{mod_name}.{cls_name}.{member}")


# -- per-layer metrics -----------------------------------------------------------


def _children(spans: list[dict]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            kids[s["parent"]].append(i)
    return kids


def self_time(spans: list[dict], idx: int, kids: list[list[int]] | None = None) -> float:
    """Duration of a span minus the part of its interval its children cover."""
    kids = _children(spans) if kids is None else kids
    s = spans[idx]
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(
        (max(spans[k]["start"], s["start"]), min(spans[k]["end"], s["end"]))
        for k in kids[idx]
    ):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (s["end"] - s["start"]) - covered


def _ancestors(spans: list[dict], idx: int):
    p = spans[idx]["parent"]
    while p is not None:
        yield p
        p = spans[p]["parent"]


def layer_metrics(spans: list[dict], out_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    "main" restricts a sum to spans outside the g-estimator replays, which are
    the Phi-sampler calls on shifted increments.  A sum over a group of names
    counts only the outermost span of the group, so nested calls (a tableau
    method calling another) are not counted twice.
    """
    meta = checks.load_json(out_dir / "run_metadata.json")
    kids = _children(spans)
    in_replay = []
    for i in range(len(spans)):
        in_replay.append(any(
            spans[a]["name"] == PHI_SAMPLER and spans[a].get("shifted")
            for a in _ancestors(spans, i)
        ))

    def picks(names, main_only=False):
        names = set(names)
        for i, s in enumerate(spans):
            if s["name"] not in names or (main_only and in_replay[i]):
                continue
            if any(spans[a]["name"] in names for a in _ancestors(spans, i)):
                continue
            yield i

    def total(*names, main_only=False) -> float:
        return sum(spans[i]["end"] - spans[i]["start"] for i in picks(names, main_only))

    def total_self(*names) -> float:
        return sum(self_time(spans, i, kids) for i in picks(names))

    def count(*names) -> int:
        return sum(1 for s in spans if s["name"] in names)

    def prefixed(prefix: str) -> list[str]:
        return sorted({s["name"] for s in spans if s["name"].startswith(prefix)})

    inverse = count("lamperti.LampertiMap.inverse_transform")
    nested_transforms = sum(
        1 for s in spans
        if s["name"] == "lamperti.LampertiMap.transform" and s["parent"] is not None
        and spans[s["parent"]]["name"] == "lamperti.LampertiMap.inverse_transform"
    )
    replays = [s for s in spans if s["name"] == PHI_SAMPLER and s.get("shifted")]

    reliable = x_points = 0
    for entry in meta["per_t"].values():
        for comp in ("Y", "Z"):
            if "gest" in entry[comp]:
                reliable += entry[comp]["gest"]["n_reliable"]
                x_points += len(checks.csv_column(
                    out_dir / f"gest_{comp}_t{checks.tag(entry['t'])}.csv", "x"))
    kept = meta["n_paths"] / (meta["n_paths"] + meta["n_flagged"])

    return {
        "cli.stage_hypotheses_s": total("cli.Experiment.stage_hypotheses"),
        "cli.stage_simulate_s": total("cli.Experiment.stage_simulate"),
        "cli.stage_density_s": total("cli.Experiment.stage_density"),
        "cli.stage_verify_s": total("cli.Experiment.stage_verify"),
        "cli.artifact_io_s": total(*WRITE_ARTIFACT),
        "cli.artifact_bytes": checks.artifact_digest(out_dir)[1],
        "coeffs.check_hypotheses_s": total("coeffs.check_hypotheses"),
        "lamperti.build_s": total("lamperti.LampertiMap.__init__"),
        "lamperti.inverse_s": total("lamperti.LampertiMap.inverse_transform"),
        "lamperti.inverse_calls": inverse,
        "lamperti.transforms_per_inverse": nested_transforms / inverse if inverse else 0.0,
        "forward.simulate_s": total_self("forward.simulate_forward"),
        "forward.tableau_s": total(*prefixed("forward.MalliavinTableau."), main_only=True),
        "forward.replay_ensemble_s": total("backward.ensemble_from_increments"),
        "forward.kept_frac": kept,
        "backward.solve_s": total("backward.solve_bsde", main_only=True),
        "backward.tableau_init_s": total("backward.BackwardTableau.__init__", main_only=True),
        "backward.dy_rows_s": total("backward.BackwardTableau.dy_matrix", main_only=True),
        "backward.dz_rows_s": total("backward.BackwardTableau.dz_matrix", main_only=True),
        "backward.zclark_s": total("backward.BackwardTableau.z_clark_all", main_only=True),
        "backward.replay_s": sum(s["end"] - s["start"] for s in replays),
        "nvdensity.replays": len(replays),
        "nvdensity.gest_s": total("nvdensity.estimate_g"),
        "nvdensity.gest_self_s": total_self("nvdensity.estimate_g"),
        "nvdensity.constants_s": total("nvdensity.derivative_bound_constants"),
        "nvdensity.reliable_frac": reliable / x_points if x_points else 0.0,
        "verify.kde_s": total("verify.kde"),
        "verify.kde_calls": count("verify.kde"),
        "verify.envelope_check_s": total("verify.envelope_check"),
        "verify.positivity_s": total("verify.positivity_report"),
    }


def memory_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-stage traced memory of one ``memory`` run, in MB."""
    def stage(name: str) -> dict:
        found = [s for s in spans if s["name"] == f"cli.Experiment.{name}"]
        return found[-1] if found else {}

    return {
        "cli.stage_simulate.live_mb": stage("stage_simulate").get("live_bytes", 0) / _MB,
        "cli.stage_simulate.peak_mb": stage("stage_simulate").get("peak_bytes", 0) / _MB,
        "cli.stage_density.peak_mb": stage("stage_density").get("peak_bytes", 0) / _MB,
        "cli.stage_verify.peak_mb": stage("stage_verify").get("peak_bytes", 0) / _MB,
    }


def main(argv: list[str]) -> int:
    spans_path, run_id, mode, cli_argv = Path(argv[0]), argv[1], argv[2], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    cli = importlib.import_module("bsdedensity.cli")
    if mode == "memory":
        tracemalloc.start()
    try:
        status = cli.main(cli_argv)
    finally:
        tracemalloc.stop()
        spans_path.write_text(
            json.dumps({"run": run_id, "absent": tracer.absent, "spans": tracer.spans}),
            encoding="utf-8",
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
