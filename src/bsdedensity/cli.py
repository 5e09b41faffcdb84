"""Experiment orchestration and the command-line interface.

Pipeline: check -> simulate -> solve -> tableaux -> g/envelopes -> verify.
Artifacts are plot-ready CSVs plus JSON reports; all floating-point output
uses 17-significant-digit formatting, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__

# OpenBLAS fixes its thread count when numpy loads it.  The regression products
# are narrow, so a second thread only costs its start and hand-offs.  The variable
# is scoped to the load; a caller that loaded numpy first keeps its own settings.
if "numpy" in sys.modules or {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .backward import make_phi_row, make_replay_sweep, solve_bsde
from .config import ExperimentConfig, config_echo, parse_config
from .coeffs import check_hypotheses
from .errors import BsdeDensityError, ConfigError, SolverError, StageError
from .forward import (
    MalliavinTableau,
    TimeGrid,
    _row_blocks,
    dump_ensemble,
    load_ensemble,
    simulate_forward,
)
from .lamperti import LampertiMap
from .nvdensity import (
    GTarget,
    RowStatistics,
    derivative_bound_constants,
    estimate_g,
    gaussian_envelopes,
)
from .verify import envelope_check, kde, positivity_report

STAGES = ("hypotheses", "simulate", "density", "verify")

_DEGENERATE_STD = 1e-9


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = zip(*columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tag(t: float) -> str:
    return f"{t:g}".replace(".", "p").replace("-", "m")


def _first_differing_key(old: str, new: str) -> str:
    for a, b in zip(old.splitlines(), new.splitlines()):
        if a != b:
            return a.partition("=")[0].strip()
    return "the key list"


class Experiment:
    """Stage-by-stage pipeline over one configuration.

    Each stage persists its artifacts.  A staged run is a full run that stops
    early; the one artifact it reuses is the simulate stage's ensemble, which
    must match the config and seed.  Every other stage is deterministic and
    recomputed, the backward sweep at the start of the density stage.
    """

    def __init__(self, cfg: ExperimentConfig, out_dir: str | None = None,
                 seed: int | None = None):
        self.seed = int(seed if seed is not None else cfg["mc.master_seed"])
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"--seed must lie in [0, 2**64); got {self.seed}")
        # the echo must reproduce the run, so it carries the effective seed
        self.cfg = replace(cfg, values={**cfg.values, "mc.master_seed": self.seed})
        self.out = Path(out_dir or cfg["output.dir"])
        self.problem = cfg.problem()
        self.basis = cfg.basis()
        self.grid = TimeGrid(self.problem.T, cfg["grid.n_steps"])
        self.lmap: LampertiMap | None = None
        self.ens = None
        self.sol = None
        self.btab = None
        self.density_meta: dict | None = None
        # per eval-time key: each checked component's (KDE, envelope) and the
        # positivity counts of its D_theta Z row, kept for the verify stage
        self.density_checks: dict[str, dict] | None = None
        self.verdicts: dict[str, str] = {}
        self.pipelines: dict[str, bool] = {}

    # -- stage: hypotheses ----------------------------------------------------

    def stage_hypotheses(self) -> None:
        cfg = self.cfg
        payload = check_hypotheses(
            self.problem, cfg["hypotheses.box"], cfg["hypotheses.n_grid"]
        ).to_dict()
        self.pipelines = payload["pipelines"]
        _write_json(self.out / "hypothesis_report.json", payload)

    # -- stage: simulate ---------------------------------------------------------

    def _ensure_lamperti(self) -> LampertiMap:
        if self.lmap is None:
            self.lmap = LampertiMap(self.problem.sigma, self.problem.b, self.problem.box)
        return self.lmap

    def stage_simulate(self, persist: bool) -> None:
        """The forward sweep, dumped when ``persist`` or the config asks."""
        cfg = self.cfg
        lmap = self._ensure_lamperti()
        self.ens = simulate_forward(
            self.problem, self.grid, cfg["mc.n_paths"], self.seed, lamperti_map=lmap
        )
        if persist or cfg["run.dump_ensemble"]:
            dump_ensemble(self.ens, self.out / "ensemble.bin")

    def _load_simulate(self) -> bool:
        """Reuse the output directory's ensemble dump, if there is one; its
        header must match this run's config and seed."""
        ens_path = self.out / "ensemble.bin"
        if not ens_path.exists():
            return False
        ens = load_ensemble(ens_path)
        for key, dumped in (("grid.n_steps", ens.grid.n_steps), ("model.T", ens.grid.T),
                            ("model.x0", ens.x0), ("mc.master_seed", ens.master_seed),
                            ("mc.n_paths", ens.n_requested)):
            if dumped != self.cfg[key]:
                raise StageError(
                    f"{ens_path} was simulated with {key} = {dumped}, not "
                    f"{self.cfg[key]}; re-run --stage simulate in a fresh --out"
                )
        self.ens = ens
        return True

    # -- stage: density ----------------------------------------------------------

    def _z_grid(self, samples: np.ndarray) -> np.ndarray:
        lo, hi = float(samples.min()), float(samples.max())
        pad = 0.05 * (hi - lo + 1e-300)
        return np.linspace(lo - pad, hi + pad, self.cfg["verify.z_grid_points"])

    def _component(self, name: str, t_idx: int) -> tuple[np.ndarray, RowStatistics]:
        """(samples, statistics of the D_theta row, read in path blocks) at
        ``t_idx``: the one place that picks each component's estimator."""
        if name == "Y":
            samples, row = self.sol.y_at(t_idx), self.btab.dy_matrix
        else:
            # density, constants and g-target use the Clark-Ocone
            # representation of Z_t, the lower-noise of the two estimators;
            # the sweep's regression Z stays available for cross-checks
            samples, row = self.btab.z_clark_all(t_idx), self.btab.dz_matrix
        stats = RowStatistics(self.ens.n_paths, t_idx + 1)
        for rows in _row_blocks(self.ens.n_paths):
            stats.add(row(t_idx, rows))
        return samples, stats

    @staticmethod
    def _is_degenerate(samples: np.ndarray, norms_sq: np.ndarray, dt: float) -> bool:
        """A component with (numerically) vanishing Malliavin derivative has no
        density; its sample spread is regression noise, not a law."""
        mean = float(samples.mean())
        std = float(samples.std())
        if std <= _DEGENERATE_STD * (1.0 + abs(mean)):
            return True
        norm_sq = float(np.median(norms_sq * dt))
        scale = max(1.0, mean * mean)
        return norm_sq <= 1e-12 * scale

    def stage_density(self) -> None:
        cfg = self.cfg
        # the deterministic backward sweep: solution and tableau rows
        ftab = MalliavinTableau(None, self.ens.X, self._ensure_lamperti(), self.grid.dt)
        t_indices = [self.grid.index_of(t) for t in cfg["eval.times"]]
        # the pass consumes the ensemble, one step at a time: the rows read
        # fits and A, first_x_all the declared steps of X and A, verify
        # n_paths and n_flagged; only the g-estimator reads dW, the path-major
        # matrix of its n_outer base rows, copied first
        base_increments = None
        if cfg["gest.enabled"]:
            n_outer = self._n_outer()
            base_increments = np.stack([step[:n_outer] for step in self.ens.dW], axis=1)
        self.sol = solve_bsde(self.ens, self.problem, self.basis,
                              forward_tab=ftab, t_indices=t_indices)
        self.btab = self.sol.tableau
        meta: dict = {"per_t": {}}
        summary_rows: dict[str, list] = {
            "t": [], "theta": [],
            "dx_mean": [], "dx_min": [], "dx_max": [],
            "dy_mean": [], "dy_min": [], "dy_max": [],
            "dz_mean": [], "dz_min": [], "dz_max": [],
        }
        gest_targets = {s.strip() for s in cfg["gest.targets"].split(",") if s.strip()}
        applicable = {
            "Y": self.pipelines["y_envelope"],
            "Z": self.pipelines["z_envelope"] or self.pipelines["z_existence"],
        }
        self.density_checks = {}
        # (eval time, its index, component, the component's entry, g-target)
        gest_jobs: list[tuple[float, int, str, dict, GTarget]] = []
        for t in cfg["eval.times"]:
            key = f"{t:g}"
            checks = self.density_checks[key] = {}
            t_idx = self.grid.index_of(t)
            # samples and derivative rows live on the grid node; the
            # envelope constants must use the same time
            t_snapped = t_idx * self.grid.T / self.grid.n_steps
            entry: dict = {"t": t, "t_index": t_idx, "t_snapped": t_snapped}
            for name in ("Y", "Z"):
                if not applicable[name]:
                    entry[name] = {"status": "hypotheses-not-met"}
                    continue
                samples, stats = self._component(name, t_idx)
                comp: dict = {}
                comp["mean"] = float(samples.mean())
                comp["std"] = float(samples.std())
                if self._is_degenerate(samples, stats.norms_sq, self.grid.dt):
                    comp["status"] = "degenerate"
                    entry[name] = comp
                    continue
                comp["status"] = "ok"
                consts = derivative_bound_constants(stats, t_snapped)
                if name == "Z":
                    checks["positivity"] = stats.positivity
                comp["constants"] = asdict(consts)
                abs_moment = float(np.abs(samples - samples.mean()).mean())
                comp["abs_moment"] = abs_moment
                grid_z = self._z_grid(samples)
                env = gaussian_envelopes(
                    comp["mean"], abs_moment,
                    consts.gamma_min_sq, consts.gamma_max_sq, grid_z,
                )
                comp["envelope_prefactors"] = env.prefactors()
                est = kde(samples, grid_z)
                _write_csv(
                    self.out / f"density_{name}_t{_tag(t)}.csv",
                    ["z", "kde", "lower", "upper"],
                    [grid_z, est.density, env.lower, env.upper],
                )
                comp["kde_bandwidth"] = est.bandwidth
                entry[name] = comp
                checks[name] = (est, env)
                if cfg["gest.enabled"] and name.lower() in gest_targets:
                    target = self._g_target(name, t, t_idx, samples)
                    gest_jobs.append((t, t_idx, name, comp, target))
            self._summarize_tableaux(summary_rows, t, t_idx)
            meta["per_t"][key] = entry
        if gest_jobs:
            self._g_estimate(gest_jobs, base_increments)
        _write_csv(
            self.out / "tableaux_summary.csv",
            list(summary_rows.keys()),
            [np.asarray(v) for v in summary_rows.values()],
        )
        self.density_meta = meta
        _write_json(self.out / "density_meta.json", meta)

    def _summarize_tableaux(self, rows: dict[str, list], t: float, t_idx: int) -> None:
        """Append the tableau summary rows of eval time ``t`` over a fixed
        theta sub-grid; the (k, n_paths) D_theta X block dies on return."""
        theta_picks = sorted({0, t_idx // 4, t_idx // 2, (3 * t_idx) // 4, t_idx})
        for th, dx in zip(theta_picks, self.btab.ftab.first_x_all(theta_picks, t_idx)):
            rows["t"].append(t)
            rows["theta"].append(th * self.grid.dt)
            for label, col in (("dx", dx),
                               ("dy", self.btab.dy_matrix(t_idx, thetas=[th])[:, 0]),
                               ("dz", self.btab.dz_matrix(t_idx, thetas=[th])[:, 0])):
                rows[f"{label}_mean"].append(float(col.mean()))
                rows[f"{label}_min"].append(float(col.min()))
                rows[f"{label}_max"].append(float(col.max()))

    def _n_outer(self) -> int:
        return min(self.cfg["gest.n_outer"], self.ens.n_paths)

    def _g_target(self, name: str, t: float, t_idx: int, samples: np.ndarray) -> GTarget:
        """The g-estimator target of component ``name`` at step ``t_idx``, on
        the ``samples`` that :meth:`_component` picked for it."""
        try:
            phi = make_phi_row(self.btab, t_idx, name)
        except SolverError as exc:
            raise SolverError(f"g-estimate at eval time {t:g}: {exc}") from exc
        outer = samples[: self._n_outer()]
        spread = float(outer.std())
        x_grid = np.linspace(-2.0 * spread, 2.0 * spread, self.cfg["gest.n_x_grid"])
        theta_w = np.full(t_idx + 1, self.grid.dt)
        theta_w[0] = theta_w[-1] = 0.5 * self.grid.dt
        return GTarget(outer, phi, x_grid, theta_w, mean_f=float(samples.mean()))

    def _g_estimate(self, jobs: list[tuple[float, int, str, dict, GTarget]],
                    base_increments: np.ndarray) -> None:
        """Estimate every target's g from one set of replay sweeps, cut at
        the last eval time a target reads, over the main run's first n_outer
        rows of dW, ``base_increments``; write each gest CSV and record each
        band check in its component's entry."""
        cfg = self.cfg
        n_outer = self._n_outer()
        sweep = make_replay_sweep(self.problem, self.grid, self.lmap,
                                  max(t_idx for _, t_idx, *_ in jobs),
                                  self.basis.reads_w)
        estimates = estimate_g(
            [target for *_, target in jobs],
            sweep,
            n_outer,
            cfg["gest.n_inner"],
            base_increments=base_increments,
            increment_scale=np.sqrt(self.grid.dt),
            wprime_seed=self.seed + 0x5754,
            n_u_nodes=cfg["gest.n_u_nodes"],
        )
        for (t, _, name, comp, _), est in zip(jobs, estimates):
            _write_csv(
                self.out / f"gest_{name}_t{_tag(t)}.csv",
                ["x", "g", "se"],
                [est.x_grid, est.g_values, est.standard_errors],
            )
            reliable = est.reliable
            g, se = est.g_values[reliable], est.standard_errors[reliable]
            band_lo = comp["constants"]["gamma_min_sq"]
            band_hi = comp["constants"]["gamma_max_sq"]
            eps = 1e-9 * max(1.0, band_hi)
            # a check that looks at no point, or at a NaN, does not pass
            within = reliable.any() and np.all(
                np.isfinite(g) & (g >= band_lo - 3 * se - eps) & (g <= band_hi + 3 * se + eps)
            )
            comp["gest"] = {
                "n_outer": est.n_outer,
                "n_inner": est.n_inner,
                "bandwidth": est.bandwidth,
                "n_reliable": int(reliable.sum()),
                "n_replay_clamped": sweep.n_clamped,
                "band_check": "pass" if bool(within) else "fail",
            }

    # -- stage: verify -------------------------------------------------------------

    def stage_verify(self) -> None:
        cfg = self.cfg
        meta, checks = self.density_meta, self.density_checks
        dz_pool = []
        per_t_verdicts: dict = {}
        envelope_ok = {"Y": self.pipelines["y_envelope"], "Z": self.pipelines["z_envelope"]}
        for key, entry in meta["per_t"].items():
            tv: dict = {}
            for name in ("Y", "Z"):
                comp = entry[name]
                if "gest" in comp:
                    self.verdicts[f"gband_{name}_t{key}"] = comp["gest"]["band_check"]
                if comp["status"] != "ok" or not envelope_ok[name]:
                    tv[name] = "not-applicable"
                else:
                    est, env = checks[key][name]
                    rep = envelope_check(
                        est, env,
                        quantile_range=cfg["verify.quantile_range"],
                        tol=cfg["verify.tol"],
                        max_violation_fraction=cfg["verify.max_violation_fraction"],
                    )
                    tv[name] = rep.verdict
                    tv[f"{name}_report"] = asdict(rep)
                self.verdicts[f"density_{name}_t{key}"] = tv[name]
            if entry["Z"]["status"] == "ok":
                dz_pool.append(checks[key]["positivity"])
            per_t_verdicts[key] = tv

        if dz_pool:
            pos = positivity_report(
                sum(dz_pool[1:], dz_pool[0]), cfg["verify.positivity_noise_floor"]
            )
            _write_json(self.out / "positivity_report.json", asdict(pos))
            self.verdicts["positivity"] = pos.verdict
        else:
            self.verdicts["positivity"] = "not-applicable"

        failed = sorted(k for k, v in self.verdicts.items() if v == "fail")
        metadata = {
            "package_version": __version__,
            "numpy_version": np.__version__,
            "master_seed": self.seed,
            "ridge_used": self.sol.ridge_used,
            "n_paths": self.ens.n_paths,
            "n_flagged": self.ens.n_flagged,
            "verdicts": dict(sorted(self.verdicts.items())),
            "failed": failed,
            "per_t": meta["per_t"],
            "per_t_verdicts": per_t_verdicts,
            "exit_status": 0 if not failed else 1,
        }
        _write_json(self.out / "run_metadata.json", metadata)

    # -- driver -----------------------------------------------------------------

    def run(self, upto: str = "verify") -> int:
        """Run the pipeline prefix ending at ``upto``.

        A staged run (upto before verify) dumps the ensemble, or reuses the
        dump already in the output directory, and recomputes every other
        stage it reaches.  A full run (upto = verify) recomputes every stage
        and persists only reports/CSVs unless ``run.dump_ensemble`` asks for
        the binary dump.
        """
        if upto not in STAGES:
            raise StageError(f"unknown stage {upto!r}; choose from {STAGES}")
        last = STAGES.index(upto)
        staged = upto != "verify"
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {self.out} as the output directory: {exc}") from exc
        echo_path = self.out / "effective_config.txt"
        echo = config_echo(self.cfg)
        old = echo_path.read_text(encoding="utf-8") if echo_path.exists() else echo
        if old != echo:
            if staged:
                raise StageError(
                    f"{self.out} holds artifacts of another run: "
                    f"{_first_differing_key(old, echo)} differs from its "
                    "effective_config.txt; use a fresh --out"
                )
            # a full run recomputes every stage; drop the ensemble a later
            # staged run would otherwise reuse under the new echo
            (self.out / "ensemble.bin").unlink(missing_ok=True)
        echo_path.write_text(echo, encoding="utf-8")

        self.stage_hypotheses()
        # a run proceeds when any theorem pipeline applies
        self.verdicts["hypotheses"] = "pass" if any(self.pipelines.values()) else "fail"
        if self.verdicts["hypotheses"] == "fail":
            return 1
        if last < 1:
            return 0

        if not (staged and self._load_simulate()):
            self.stage_simulate(persist=staged)
        if last < 2:
            return 0

        self.stage_density()
        if last < 3:
            return 0

        self.stage_verify()
        failed = [k for k, v in self.verdicts.items() if v == "fail"]
        return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsdedensity",
        description="Simulate 1-d forward-backward SDEs, propagate Malliavin "
        "derivatives and verify Gaussian density envelopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check-hypotheses", help="run the hypothesis checker only")
    p_check.add_argument("config")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(seed=None, stage="hypotheses")

    p_run = sub.add_parser("run", help="run the experiment pipeline")
    p_run.add_argument("config")
    p_run.add_argument("--stage", choices=STAGES, default="verify")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        status = Experiment(cfg, out_dir=args.out, seed=args.seed).run(args.stage)
    except BsdeDensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"exit status {status}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
