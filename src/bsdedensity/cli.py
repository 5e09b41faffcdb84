"""Experiment orchestration and the command-line interface.

Pipeline: check -> simulate -> solve -> tableaux -> g/envelopes -> verify.
Artifacts are plot-ready CSVs plus JSON reports; all floating-point output
uses 17-significant-digit formatting, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backward import (
    BackwardTableau,
    girsanov_reduce,
    make_phi_sampler,
    solve_bsde,
)
from .config import ExperimentConfig, config_echo, parse_config
from .coeffs import check_hypotheses
from .errors import BsdeDensityError, SolverError, StageError
from .forward import (
    MalliavinTableau,
    TimeGrid,
    dump_ensemble,
    load_ensemble,
    simulate_forward,
)
from .lamperti import LampertiMap
from .nvdensity import derivative_bound_constants, estimate_g, gaussian_envelopes
from .verify import envelope_check, kde, positivity_report

STAGES = ("hypotheses", "simulate", "density", "verify")

_DEGENERATE_STD = 1e-9


def _pipelines_from_status(status: dict[str, str]) -> dict[str, bool]:
    """Which theorem pipelines the checked hypotheses justify.

    H1-H3 back the Y-density envelopes, H4-H6 the existence of a density for
    Z (positivity report), H7-H8 the Z-density envelopes for the univariate
    driver with a W_T terminal.  A run proceeds if any pipeline applies;
    checks whose hypotheses fail are reported not-applicable rather than
    gating the exit status.
    """
    ok = lambda k: status.get(k) == "pass"  # noqa: E731
    y_ok = ok("H1") and ok("H2") and ok("H3")
    z_exist = ok("H4") and ok("H5") and ok("H6")
    z_env = ok("H7") and ok("H8")
    return {"y_envelope": y_ok, "z_existence": z_exist, "z_envelope": z_env}


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


class Experiment:
    """Stage-by-stage pipeline over one configuration.

    Each stage persists its artifacts; in a staged run a stage whose
    artifacts already exist on disk is reloaded rather than recomputed, so
    later stages consume persisted artifacts only.
    """

    def __init__(self, cfg: ExperimentConfig, out_dir: str | None = None,
                 seed: int | None = None):
        self.cfg = cfg
        self.out = Path(out_dir or cfg["output.dir"])
        self.seed = int(seed if seed is not None else cfg["mc.master_seed"])
        self.problem = cfg.problem()
        self.basis = cfg.basis()
        self.grid = TimeGrid(self.problem.T, cfg["grid.n_steps"])
        self.lmap: LampertiMap | None = None
        self.report = None
        self.ens = None
        self.sol = None
        self.ftab = None
        self.btab = None
        self.density_meta: dict | None = None
        self.verdicts: dict[str, str] = {}
        self.pipelines: dict[str, bool] = {}

    # -- stage: hypotheses ----------------------------------------------------

    def stage_hypotheses(self) -> None:
        cfg = self.cfg
        self.report = check_hypotheses(
            self.problem, cfg["hypotheses.box"], cfg["hypotheses.n_grid"]
        )
        payload = self.report.to_dict()
        status = {k: c.status for k, c in self.report.checks.items()}
        payload["pipelines"] = _pipelines_from_status(status)
        self.pipelines = payload["pipelines"]
        self.verdicts["hypotheses"] = (
            "pass" if any(self.pipelines.values()) else "fail"
        )
        _write_json(self.out / "hypothesis_report.json", payload)

    def _load_hypotheses(self) -> bool:
        path = self.out / "hypothesis_report.json"
        if not path.exists():
            return False
        payload = json.loads(path.read_text(encoding="utf-8"))
        self.pipelines = payload["pipelines"]
        self.verdicts["hypotheses"] = (
            "pass" if any(self.pipelines.values()) else "fail"
        )
        return True

    # -- stage: simulate (simulate + solve) ------------------------------------

    def _ensure_lamperti(self) -> LampertiMap:
        if self.lmap is None:
            self.lmap = LampertiMap(self.problem.sigma, self.problem.b, self.problem.box)
        return self.lmap

    def stage_simulate(self, persist: bool) -> None:
        cfg = self.cfg
        lmap = self._ensure_lamperti()
        self.ens = simulate_forward(
            self.problem, self.grid, cfg["mc.n_paths"], self.seed, lamperti_map=lmap
        )
        self.sol = solve_bsde(self.ens, self.problem, self.basis)
        self._build_tableaux()
        if persist or cfg["run.dump_ensemble"]:
            dump_ensemble(self.ens, self.out / "ensemble.bin")
        if persist:
            np.savez(
                self.out / "solution.npz",
                Y=self.sol.Y,
                Z=self.sol.Z,
                ridge_used=self.sol.ridge_used,
            )

    def _build_tableaux(self) -> None:
        lmap = self._ensure_lamperti()
        self.ftab = MalliavinTableau(self.ens, lmap, self.sol.reduced)
        self.btab = BackwardTableau(self.ens, self.sol, self.ftab)

    def _load_simulate(self) -> bool:
        ens_path = self.out / "ensemble.bin"
        sol_path = self.out / "solution.npz"
        if not (ens_path.exists() and sol_path.exists()):
            return False
        self.ens = load_ensemble(ens_path)
        data = np.load(sol_path)
        reduced, shift = girsanov_reduce(self.problem)
        from .backward import BackwardSolution

        self.sol = BackwardSolution(
            problem=self.problem,
            reduced=reduced,
            shift=shift,
            basis=self.basis,
            ridge_used=float(data["ridge_used"]),
            Y=data["Y"],
            Z=data["Z"],
            records=[],
        )
        self._build_tableaux()
        return True

    # -- stage: density ----------------------------------------------------------

    def _z_grid(self, samples: np.ndarray) -> np.ndarray:
        lo, hi = float(samples.min()), float(samples.max())
        pad = 0.05 * (hi - lo + 1e-300)
        return np.linspace(lo - pad, hi + pad, self.cfg["verify.z_grid_points"])

    def _component(self, name: str, t: float):
        t_idx = self.grid.index_of(t)
        if name == "Y":
            samples = self.sol.Y[:, t_idx]
            deriv = self.btab.dy_matrix(t_idx)
        else:
            # density work uses the Clark-Ocone representation of Z_t, the
            # lower-noise of the two estimators; the sweep's Z stays available
            # for cross-checks
            samples = self.btab.z_clark_all(t_idx)
            deriv = self.btab.dz_matrix(t_idx)
        return t_idx, samples, deriv

    @staticmethod
    def _is_degenerate(samples: np.ndarray, deriv: np.ndarray, dt: float) -> bool:
        """A component with (numerically) vanishing Malliavin derivative has no
        density; its sample spread is regression noise, not a law."""
        mean = float(samples.mean())
        std = float(samples.std())
        if std <= _DEGENERATE_STD * (1.0 + abs(mean)):
            return True
        norm_sq = float(np.median((deriv * deriv).sum(axis=1) * dt))
        scale = max(1.0, mean * mean)
        return norm_sq <= 1e-12 * scale

    def stage_density(self) -> None:
        cfg = self.cfg
        meta: dict = {"per_t": {}}
        summary_rows: dict[str, list] = {
            "t": [], "theta": [],
            "dx_mean": [], "dx_min": [], "dx_max": [],
            "dy_mean": [], "dy_min": [], "dy_max": [],
            "dz_mean": [], "dz_min": [], "dz_max": [],
        }
        gest_targets = {s.strip() for s in cfg["gest.targets"].split(",") if s.strip()}
        applicable = {
            "Y": self.pipelines.get("y_envelope", True),
            "Z": self.pipelines.get("z_envelope", False)
            or self.pipelines.get("z_existence", False),
        }
        for t in cfg["eval.times"]:
            t_idx = self.grid.index_of(t)
            entry: dict = {"t": t, "t_index": t_idx}
            for name in ("Y", "Z"):
                if not applicable[name]:
                    entry[name] = {"status": "hypotheses-not-met"}
                    continue
                _, samples, deriv = self._component(name, t)
                comp: dict = {}
                comp["mean"] = float(samples.mean())
                comp["std"] = float(samples.std())
                if self._is_degenerate(samples, deriv, self.grid.dt):
                    comp["status"] = "degenerate"
                    entry[name] = comp
                    continue
                comp["status"] = "ok"
                consts = derivative_bound_constants(deriv, t)
                comp["constants"] = {
                    "c_hat": consts.c_hat,
                    "C_hat": consts.C_hat,
                    "gamma_min_sq": consts.gamma_min_sq,
                    "gamma_max_sq": consts.gamma_max_sq,
                    "n_nonpositive": consts.n_nonpositive,
                    "quantile": consts.quantile,
                }
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
            # tableau summary rows over a fixed theta sub-grid
            dxm = self.ftab.first_x_matrix(t_idx)
            dym = self.btab.dy_matrix(t_idx)
            dzm = self.btab.dz_matrix(t_idx)
            theta_picks = sorted({0, t_idx // 4, t_idx // 2, (3 * t_idx) // 4, t_idx})
            for th in theta_picks:
                summary_rows["t"].append(t)
                summary_rows["theta"].append(th * self.grid.dt)
                for label, mat in (("dx", dxm), ("dy", dym), ("dz", dzm)):
                    col = mat[:, th]
                    summary_rows[f"{label}_mean"].append(float(col.mean()))
                    summary_rows[f"{label}_min"].append(float(col.min()))
                    summary_rows[f"{label}_max"].append(float(col.max()))
            if cfg["gest.enabled"]:
                for name in ("Y", "Z"):
                    if name.lower() not in gest_targets:
                        continue
                    if entry[name]["status"] != "ok":
                        continue
                    gres = self._g_estimate(name, t, t_idx, entry[name])
                    entry[name]["gest"] = gres
            meta["per_t"][f"{t:g}"] = entry
        _write_csv(
            self.out / "tableaux_summary.csv",
            list(summary_rows.keys()),
            [np.asarray(v) for v in summary_rows.values()],
        )
        self.density_meta = meta
        _write_json(self.out / "density_meta.json", meta)

    def _g_estimate(self, name: str, t: float, t_idx: int, comp: dict) -> dict:
        cfg = self.cfg
        n_outer = min(cfg["gest.n_outer"], self.ens.n_paths)
        try:
            phi_sampler = make_phi_sampler(self.btab, t_idx, name)
        except SolverError as exc:
            raise SolverError(f"g-estimate at eval time {t:g}: {exc}") from exc
        values = self.sol.Y if name == "Y" else self.sol.Z
        samples = values[:n_outer, t_idx]

        def f_sampler(incs):
            return samples

        spread = float(samples.std())
        x_grid = np.linspace(-2.0 * spread, 2.0 * spread, cfg["gest.n_x_grid"])
        theta_w = np.full(t_idx + 1, self.grid.dt)
        theta_w[0] = theta_w[-1] = 0.5 * self.grid.dt
        est = estimate_g(
            f_sampler,
            phi_sampler,
            x_grid,
            n_outer,
            cfg["gest.n_inner"],
            base_increments=self.ens.dW[:n_outer],
            increment_scale=np.sqrt(self.grid.dt),
            theta_weights=theta_w,
            wprime_seed=self.seed + 0x5754,
            n_u_nodes=cfg["gest.n_u_nodes"],
            mean_f=float(values[:, t_idx].mean()),
        )
        _write_csv(
            self.out / f"gest_{name}_t{_tag(t)}.csv",
            ["x", "g", "se"],
            [est.x_grid, est.g_values, est.standard_errors],
        )
        reliable = est.reliable
        ok = reliable & np.isfinite(est.g_values)
        band_lo = comp["constants"]["gamma_min_sq"]
        band_hi = comp["constants"]["gamma_max_sq"]
        eps = 1e-9 * max(1.0, band_hi)
        within = np.all(
            (est.g_values[ok] >= band_lo - 3 * est.standard_errors[ok] - eps)
            & (est.g_values[ok] <= band_hi + 3 * est.standard_errors[ok] + eps)
        )
        return {
            "n_outer": est.n_outer,
            "n_inner": est.n_inner,
            "bandwidth": est.bandwidth,
            "n_reliable": int(reliable.sum()),
            "n_replay_clamped": phi_sampler.n_clamped,
            "band_check": "pass" if bool(within) else "fail",
        }

    def _load_density(self) -> bool:
        path = self.out / "density_meta.json"
        if not path.exists():
            return False
        self.density_meta = json.loads(path.read_text(encoding="utf-8"))
        return True

    # -- stage: verify -------------------------------------------------------------

    def stage_verify(self) -> None:
        cfg = self.cfg
        meta = self.density_meta
        if meta is None:
            raise StageError("verify stage needs the density stage artifacts")
        dz_pool = []
        per_t_verdicts: dict = {}
        envelope_ok = {
            "Y": self.pipelines.get("y_envelope", True),
            "Z": self.pipelines.get("z_envelope", False),
        }
        for key, entry in meta["per_t"].items():
            t = entry["t"]
            t_idx = entry["t_index"]
            tv: dict = {}
            for name in ("Y", "Z"):
                comp = entry[name]
                if comp["status"] != "ok" or not envelope_ok[name]:
                    tv[name] = "not-applicable"
                    continue
                _, samples, _ = self._component(name, t)
                grid_z = self._z_grid(samples)
                env = gaussian_envelopes(
                    comp["mean"], comp["abs_moment"],
                    comp["constants"]["gamma_min_sq"],
                    comp["constants"]["gamma_max_sq"],
                    grid_z,
                )
                est = kde(samples, grid_z)
                rep = envelope_check(
                    est, env,
                    quantile_range=cfg["verify.quantile_range"],
                    tol=cfg["verify.tol"],
                    max_violation_fraction=cfg["verify.max_violation_fraction"],
                )
                tv[name] = rep.verdict
                tv[f"{name}_report"] = rep.to_dict()
            if entry["Z"]["status"] == "ok":
                dz_pool.append(self.btab.dz_matrix(t_idx).ravel())
            per_t_verdicts[key] = tv

        if dz_pool:
            pos = positivity_report(
                np.concatenate(dz_pool), cfg["verify.positivity_noise_floor"]
            )
            _write_json(self.out / "positivity_report.json", pos.to_dict())
            self.verdicts["positivity"] = pos.verdict
        else:
            self.verdicts["positivity"] = "not-applicable"

        for key, tv in per_t_verdicts.items():
            for name in ("Y", "Z"):
                self.verdicts[f"density_{name}_t{key}"] = tv[name]
            gest = meta["per_t"][key].get("Y", {}).get("gest")
            if gest:
                self.verdicts[f"gband_Y_t{key}"] = gest["band_check"]
            gest_z = meta["per_t"][key].get("Z", {}).get("gest")
            if gest_z:
                self.verdicts[f"gband_Z_t{key}"] = gest_z["band_check"]

        failed = sorted(k for k, v in self.verdicts.items() if v == "fail")
        metadata = {
            "package_version": __version__,
            "numpy_version": np.__version__,
            "master_seed": self.seed,
            "ridge_used": self.sol.ridge_used if self.sol else None,
            "n_paths": self.ens.n_paths if self.ens else None,
            "n_flagged": self.ens.n_flagged if self.ens else None,
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

        In a staged run (upto before verify), stages whose artifacts are
        already in the output directory are reloaded instead of recomputed,
        so sequential ``--stage`` invocations resume from persisted state.  A
        full run (upto = verify) recomputes every stage, keeps the
        heavyweight intermediates in memory and persists only reports/CSVs
        unless ``run.dump_ensemble`` asks for the binary dump.
        """
        if upto not in STAGES:
            raise StageError(f"unknown stage {upto!r}; choose from {STAGES}")
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "effective_config.txt").write_text(
            config_echo(self.cfg), encoding="utf-8"
        )
        last = STAGES.index(upto)
        staged = upto != "verify"

        if not (staged and self._load_hypotheses()):
            self.stage_hypotheses()
        if self.verdicts.get("hypotheses") == "fail":
            return 1
        if last < 1:
            return 0

        if not (staged and self._load_simulate()):
            self.stage_simulate(persist=staged)
        if last < 2:
            return 0

        if not (staged and self._load_density()):
            self.stage_density()
        if last < 3:
            return 0

        self.stage_verify()
        failed = [k for k, v in self.verdicts.items() if v == "fail"]
        return 1 if failed else 0


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   seed: int | None = None, stage: str = "verify") -> int:
    """Run the pipeline up to ``stage``; returns the exit status (0 = all pass)."""
    return Experiment(cfg, out_dir=out_dir, seed=seed).run(stage)


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

    p_run = sub.add_parser("run", help="run the experiment pipeline")
    p_run.add_argument("config")
    p_run.add_argument("--stage", choices=STAGES, default="verify")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "check-hypotheses":
            status = run_experiment(cfg, out_dir=args.out, stage="hypotheses")
        else:
            status = run_experiment(cfg, out_dir=args.out, seed=args.seed,
                                    stage=args.stage)
    except BsdeDensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"exit status {status}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
