"""Output checks, numeric fingerprints and the artifact digest of one CLI run.

A run fails as an operation when its exit status is neither 0 nor 1, an
artifact is missing or holds a non-finite number, or a closed-form oracle of
its workload is violated.  Exit status 1 (a failed verdict) is a scientific
result and is reported through ``verdict_fail_frac`` instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Closed-form oracles, keyed by the component whose Malliavin derivative is
# identically 1 on the workload:
#   "Y": xi = W_T, f = 0       -> Y_t = W_t, D_theta Y_t = 1
#   "Z": xi = W_T^2 / 2         -> Z_t = W_t, D_theta Z_t = 1
# In both cases the bound constants are 1, the g-function equals t and the
# component has standard deviation sqrt(t).

# exact algebra (D = 1 on every path) up to regression and summation rounding
_EXACT_TOL = 1e-9
# relative tolerance on a sample standard deviation: 6 standard errors of a
# Gaussian sample std (1 / sqrt(2 N)) plus a small allowance for the fit
_STD_SIGMAS = 6.0
_STD_BIAS = 2e-3


def tag(t: float) -> str:
    """File-name tag of an eval time, as the CLI writes it."""
    return f"{t:g}".replace(".", "p").replace("-", "m")


def artifact_files(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.iterdir() if p.is_file())


def artifact_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over the sorted (name, content) pairs of the artifact set, and
    the set's total size in bytes."""
    h = hashlib.sha256()
    total = 0
    for path in artifact_files(out_dir):
        data = path.read_bytes()
        total += len(data)
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def _non_finite_json(value, where: str) -> list[str]:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [f"{where}: non-finite {value!r}"]
    if isinstance(value, dict):
        out: list[str] = []
        for k, v in value.items():
            out += _non_finite_json(v, f"{where}.{k}")
        return out
    if isinstance(value, list):
        out = []
        for i, v in enumerate(value):
            out += _non_finite_json(v, f"{where}[{i}]")
        return out
    return [f"{where}: unexpected JSON value {value!r}"]


def _non_finite_csv(path: Path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        return [f"{path.name}: no data rows"]
    for lineno, row in enumerate(rows[1:], start=2):
        for cell in row:
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                return [f"{path.name}:{lineno}: non-finite cell {cell!r}"]
    return []


def csv_column(path: Path, name: str) -> list[float]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _expected_artifacts(meta: dict) -> set[str]:
    names = {"effective_config.txt", "hypothesis_report.json", "density_meta.json",
             "tableaux_summary.csv", "run_metadata.json"}
    for entry in meta["per_t"].values():
        suffix = tag(entry["t"])
        for comp in ("Y", "Z"):
            c = entry[comp]
            if c.get("status") == "ok":
                names.add(f"density_{comp}_t{suffix}.csv")
            if "gest" in c:
                names.add(f"gest_{comp}_t{suffix}.csv")
    if meta["verdicts"].get("positivity", "not-applicable") != "not-applicable":
        names.add("positivity_report.json")
    return names


def _check_unit_derivative(out_dir: Path, meta: dict, comp: str) -> list[str]:
    problems: list[str] = []
    n = meta["n_paths"]
    for key, entry in meta["per_t"].items():
        t = entry["t"]
        c = entry[comp]
        where = f"{comp}(t={key})"
        if c.get("status") != "ok":
            problems.append(f"{where}: status {c.get('status')!r}, expected 'ok'")
            continue
        consts = c["constants"]
        for name in ("c_hat", "C_hat"):
            if abs(consts[name] - 1.0) > _EXACT_TOL:
                problems.append(f"{where}: {name} = {consts[name]!r}, expected 1")
        rel = abs(c["std"] / math.sqrt(t) - 1.0)
        if rel > _STD_SIGMAS / math.sqrt(2.0 * n) + _STD_BIAS:
            problems.append(f"{where}: std {c['std']!r} is not sqrt(t) = {math.sqrt(t)!r}")
        if "gest" in c:
            g = csv_column(out_dir / f"gest_{comp}_t{tag(t)}.csv", "g")
            worst = max(abs(v - t) for v in g)
            if worst > _EXACT_TOL:
                problems.append(f"{where}: g deviates from t by {worst!r}")
    if comp == "Z":
        pos = load_json(out_dir / "positivity_report.json")
        if pos["nonpositive_fraction"] != 0:
            problems.append(
                f"positivity: nonpositive_fraction {pos['nonpositive_fraction']!r}, expected 0"
            )
    return problems


def check_run(out_dir: Path, exit_status: int, oracle: str | None) -> list[str]:
    """Problems that make this run an operation failure (empty when none)."""
    if exit_status not in (0, 1):
        return [f"exit status {exit_status}"]
    meta_path = out_dir / "run_metadata.json"
    if not meta_path.exists():
        return ["run_metadata.json is missing"]
    meta = load_json(meta_path)
    problems: list[str] = []
    if meta.get("exit_status") != exit_status:
        problems.append(
            f"run_metadata exit_status {meta.get('exit_status')!r} != process status {exit_status}"
        )
    present = {p.name for p in artifact_files(out_dir)}
    missing = sorted(_expected_artifacts(meta) - present)
    if missing:
        return problems + [f"missing artifacts: {', '.join(missing)}"]
    for path in artifact_files(out_dir):
        if path.suffix == ".csv":
            problems += _non_finite_csv(path)
        elif path.suffix == ".json":
            problems += _non_finite_json(load_json(path), path.name)
    if oracle is not None and not problems:
        problems += _check_unit_derivative(out_dir, meta, oracle)
    return problems


def verdict_counts(out_dir: Path) -> tuple[int, int]:
    """(failed, applicable) verdicts in run_metadata.json."""
    verdicts = load_json(out_dir / "run_metadata.json")["verdicts"].values()
    applicable = [v for v in verdicts if v != "not-applicable"]
    return sum(v == "fail" for v in applicable), len(applicable)


def fingerprint(out_dir: Path, digest: str) -> dict:
    """Numeric fingerprint recorded next to the timings (never compared)."""
    meta = load_json(out_dir / "run_metadata.json")
    verdicts = meta["verdicts"]
    per_t = {}
    for key, entry in meta["per_t"].items():
        comps = {}
        for comp in ("Y", "Z"):
            c = entry[comp]
            if c.get("status") != "ok":
                comps[comp] = {"status": c.get("status")}
                continue
            comps[comp] = {
                "mean": c["mean"],
                "std": c["std"],
                "gamma_min_sq": c["constants"]["gamma_min_sq"],
                "gamma_max_sq": c["constants"]["gamma_max_sq"],
                "density": verdicts.get(f"density_{comp}_t{key}"),
                "gband": verdicts.get(f"gband_{comp}_t{key}"),
            }
        per_t[key] = comps
    return {
        "n_paths": meta["n_paths"],
        "n_flagged": meta["n_flagged"],
        "artifact_sha256": digest,
        "per_t": per_t,
    }
