"""Line-oriented experiment configuration: ``section.key = value``.

Blank lines and lines starting with ``#`` are ignored.  Unknown keys are
rejected with the offending line number; every omitted key takes its
documented default, and the effective configuration is echoed back so runs
are self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .backward import BASIS_KINDS, RegressionBasis
from .coeffs import (
    CoefficientFamily,
    Driver,
    ProblemSpec,
    TERMINAL_KINDS,
    affine,
    constant,
    family_to_string,
    format_float,
    parse_family,
)
from .errors import CoefficientError, ConfigError
from .forward import TimeGrid

__all__ = ["ExperimentConfig", "parse_config", "config_echo"]


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError("expected a number") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise ValueError("expected an integer") from exc


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected true/false")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in text.split(",") if p.strip())


def _parse_pair(text: str) -> tuple[float, float]:
    vals = _parse_floats(text)
    if len(vals) != 2:
        raise ValueError("expected two comma-separated numbers")
    return vals[0], vals[1]


def _parse_optional_family(text: str) -> CoefficientFamily | None:
    if text.strip().lower() == "none":
        return None
    return parse_family(text)


def _parse_ridge(text: str) -> float | None:
    if text.strip().lower() == "auto":
        return None
    v = _parse_float(text)
    return v


def _parse_basis_kind(text: str) -> str:
    norm = text.strip().lower()
    if norm in ("polynomial-in-(x,w)", "polynomial-in-(x, w)"):
        return "polynomial-in-xw"
    return norm


# key -> (parser, default)
_SCHEMA: dict[str, tuple] = {
    "model.x0": (_parse_float, 0.0),
    "model.T": (_parse_float, 1.0),
    "model.b": (parse_family, constant(0.0)),
    "model.sigma": (parse_family, constant(1.0)),
    "model.f_of_x": (_parse_optional_family, None),
    "model.f_of_y": (_parse_optional_family, None),
    "model.cross_x": (_parse_optional_family, None),
    "model.cross_y": (_parse_optional_family, None),
    "model.alpha": (_parse_float, 0.0),
    "model.terminal": (str, "phi-of-wt"),
    "model.phi": (parse_family, affine(a=0.0, b=1.0)),
    "model.box": (_parse_pair, (-12.0, 12.0)),
    "grid.n_steps": (_parse_int, 200),
    "mc.n_paths": (_parse_int, 100000),
    "mc.master_seed": (_parse_int, 20240801),
    "basis.kind": (_parse_basis_kind, "polynomial-in-x"),
    "basis.degree": (_parse_int, 4),
    "basis.ridge": (_parse_ridge, None),
    "eval.times": (_parse_floats, (0.25, 0.5, 0.75)),
    "hypotheses.box": (_parse_pair, (-4.0, 4.0)),
    "hypotheses.n_grid": (_parse_int, 801),
    "gest.enabled": (_parse_bool, True),
    "gest.targets": (str, "y"),
    "gest.n_outer": (_parse_int, 10000),
    "gest.n_inner": (_parse_int, 1),
    "gest.n_u_nodes": (_parse_int, 16),
    "gest.n_x_grid": (_parse_int, 21),
    "verify.quantile_range": (_parse_float, 0.99),
    "verify.tol": (_parse_float, 0.0),
    "verify.max_violation_fraction": (_parse_float, 0.05),
    "verify.positivity_noise_floor": (_parse_float, 0.0),
    "verify.z_grid_points": (_parse_int, 321),
    "output.dir": (str, "out"),
    "run.dump_ensemble": (_parse_bool, False),
}


@dataclass
class ExperimentConfig:
    """Validated experiment configuration with defaults applied."""

    values: dict = field(default_factory=dict)
    source: str = "<defaults>"

    def __getitem__(self, key: str):
        return self.values[key]

    # -- assembled domain objects -------------------------------------------

    def problem(self) -> ProblemSpec:
        v = self.values
        driver = Driver(
            f_of_x=v["model.f_of_x"],
            f_of_y=v["model.f_of_y"],
            cross_x=v["model.cross_x"],
            cross_y=v["model.cross_y"],
            alpha=v["model.alpha"],
        )
        return ProblemSpec(
            x0=v["model.x0"],
            T=v["model.T"],
            b=v["model.b"],
            sigma=v["model.sigma"],
            driver=driver,
            terminal=v["model.terminal"],
            phi=v["model.phi"],
            box=v["model.box"],
        )

    def basis(self) -> RegressionBasis:
        return RegressionBasis(
            kind=self.values["basis.kind"],
            degree=self.values["basis.degree"],
            ridge=self.values["basis.ridge"],
        )


def _validate(cfg: ExperimentConfig) -> None:
    v = cfg.values
    for key in ("model.x0", "model.T", "model.alpha"):
        if not math.isfinite(v[key]):
            raise ConfigError(f"{key} must be finite")
    if v["model.T"] <= 0:
        raise ConfigError("model.T must be positive")
    if v["model.terminal"] not in TERMINAL_KINDS:
        raise ConfigError(f"model.terminal must be one of {TERMINAL_KINDS}")
    if v["basis.kind"] not in BASIS_KINDS:
        raise ConfigError(f"basis.kind must be one of {BASIS_KINDS}")
    if v["basis.degree"] < 0:
        raise ConfigError("basis.degree must be >= 0")
    if v["basis.ridge"] is not None and v["basis.ridge"] < 0:
        raise ConfigError("basis.ridge must be >= 0 or auto")
    if v["grid.n_steps"] < 1:
        raise ConfigError("grid.n_steps must be >= 1")
    if v["mc.n_paths"] < 1:
        raise ConfigError("mc.n_paths must be >= 1")
    if not 0 <= v["mc.master_seed"] < 2**64:
        raise ConfigError("mc.master_seed must lie in [0, 2**64)")
    if not v["eval.times"]:
        raise ConfigError("eval.times must list at least one time")
    for t in v["eval.times"]:
        if not 0 < t < v["model.T"]:
            raise ConfigError(
                f"eval.times entries must lie strictly inside (0, T); got {t:g}"
            )
    keys = [f"{t:g}" for t in v["eval.times"]]  # the key of each time's artifacts
    if len(set(keys)) < len(keys):
        raise ConfigError(f"eval.times entries share an artifact key: {', '.join(keys)}")
    grid, nodes = TimeGrid(v["model.T"], v["grid.n_steps"]), {}
    for t in v["eval.times"]:  # each time's density work is done on its grid node
        if (first := nodes.setdefault(grid.index_of(t), t)) != t:
            raise ConfigError(f"eval.times {first:g} and {t:g} both snap to grid node "
                              f"{grid.index_of(t)} of grid.n_steps = {grid.n_steps}")
    if not v["model.box"][0] < v["model.box"][1]:
        raise ConfigError("model.box must satisfy lo < hi")
    if not v["hypotheses.box"][0] < v["hypotheses.box"][1]:
        raise ConfigError("hypotheses.box must satisfy lo < hi")
    if v["hypotheses.n_grid"] < 2:
        raise ConfigError("hypotheses.n_grid must be >= 2")
    if (v["model.cross_x"] is None) != (v["model.cross_y"] is None):
        raise ConfigError("model.cross_x and model.cross_y must be given together")
    if not 0 < v["verify.quantile_range"] < 1:
        raise ConfigError("verify.quantile_range must lie in (0, 1)")
    if not v["verify.tol"] >= 0:  # NaN fails the comparison; inf accepts everything
        raise ConfigError("verify.tol must be >= 0")
    for key in ("verify.max_violation_fraction", "verify.positivity_noise_floor"):
        if not 0 <= v[key] <= 1:
            raise ConfigError(f"{key} must lie in [0, 1]")
    for key in ("gest.n_outer", "gest.n_inner", "gest.n_u_nodes", "gest.n_x_grid",
                "verify.z_grid_points"):
        if v[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    targets = {t.strip() for t in v["gest.targets"].split(",") if t.strip()}
    if not targets <= {"y", "z"}:
        raise ConfigError("gest.targets must be a comma list drawn from: y, z")


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; defaults fill the omitted keys."""
    p = Path(path)
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    seen: set[str] = set()
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {p} cannot be read: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{p}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        parser = _SCHEMA[key][0]
        try:
            values[key] = parser(val)
        except (ValueError, CoefficientError) as exc:
            raise ConfigError(f"{p}:{lineno}: {key}: {exc}") from exc
    cfg = ExperimentConfig(values=values, source=str(p))
    _validate(cfg)
    return cfg


def _format_value(key: str, v) -> str:
    if v is None:
        return "auto" if key == "basis.ridge" else "none"
    if isinstance(v, CoefficientFamily):
        return family_to_string(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ", ".join(format_float(x) for x in v)
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def config_echo(cfg: ExperimentConfig) -> str:
    """The effective configuration, one sorted ``key = value`` line each."""
    lines = [f"{key} = {_format_value(key, cfg.values[key])}" for key in sorted(_SCHEMA)]
    return "\n".join(lines) + "\n"
