import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from bsdedensity import cli
from bsdedensity.cli import Experiment, main
from bsdedensity.config import config_echo, parse_config
from bsdedensity.errors import ConfigError
from bsdedensity.forward import _HEADER_FMT, _ROW_BLOCK
from bsdedensity.nvdensity import BoundConstants
from bsdedensity.verify import BouleauHirschReport, DensityReport

from oracles import sincos_counter, traced

SMALL_CFG = """\
model.b = constant(c=0)
model.sigma = constant(c=1)
model.phi = affine(a=0, b=1)
grid.n_steps = 40
mc.n_paths = 4000
mc.master_seed = 42
basis.degree = 3
eval.times = 0.5
gest.n_outer = 1500
gest.n_x_grid = 9
"""

# the S2 model (non-constant sigma, nonlinear f(x, y), X_T terminal) at a small size
S2_CFG = """\
model.terminal = phi-of-xt
model.sigma = trig-affine(a=2, b=0.5)
model.b = trig-affine(c=0.3)
model.f_of_x = affine(b=0.1)
model.f_of_y = trig-affine(c=0.2)
model.phi = trig-affine(c=0.1, d=1)
gest.enabled = false
grid.n_steps = 40
mc.n_paths = 4000
"""


def _write(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, "# empty\n"))
    assert cfg["grid.n_steps"] == 200
    assert cfg["mc.n_paths"] == 100000
    echo = config_echo(cfg)
    assert "grid.n_steps = 200" in echo
    assert "mc.n_paths = 100000" in echo
    assert "basis.ridge = auto" in echo


def test_family_resolution(tmp_path):
    cfg = parse_config(_write(tmp_path, "model.sigma = trig-affine(a=2,b=1)\n"))
    assert cfg["model.sigma"](0.0) == 3.0


def test_validation_messages(tmp_path):
    with pytest.raises(ConfigError, match="model.T must be positive"):
        parse_config(_write(tmp_path, "model.T = -1\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_write(tmp_path, "model.gamma = 3\n"))
    with pytest.raises(ConfigError, match=":2:"):
        parse_config(_write(tmp_path, "model.T = 1\nmodel.oops = 2\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(_write(tmp_path, "model.T = 1\nmodel.T = 2\n"))
    with pytest.raises(ConfigError, match="eval.times"):
        parse_config(_write(tmp_path, "eval.times = 1.5\n"))
    with pytest.raises(ConfigError, match="model.phi"):
        parse_config(_write(tmp_path, "model.phi = affine(a=zz)\n"))


@pytest.mark.parametrize("times", ["0.5, 0.5", "0.5, 0.5000001"])
def test_eval_times_sharing_a_key_refused(tmp_path, times):
    """Each eval time files its artifacts under its 6-significant-digit key,
    so two times that share a key are refused."""
    with pytest.raises(ConfigError, match="share an artifact key: 0.5, 0.5"):
        parse_config(_write(tmp_path, f"eval.times = {times}\n"))


@pytest.mark.parametrize("text, message", [
    ("eval.times = 0.5, 0.51\ngrid.n_steps = 8\n", "0.5 and 0.51 both snap to grid node 4"),
    ("grid.n_steps = 3\n", "0.5 and 0.75 both snap to grid node 2"),
])
def test_eval_times_on_one_grid_node_refused(tmp_path, text, message):
    """The density work of an eval time is done on its grid node, so two
    times that snap to one node would repeat it and write byte-identical
    artifacts: refused with exit 2, naming both times and the node."""
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def test_run_y_oracle_exit_zero(tmp_path):
    cfg = parse_config(_write(tmp_path, SMALL_CFG))
    out = tmp_path / "out"
    status = Experiment(cfg, out_dir=str(out)).run()
    assert status == 0
    for name in (
        "hypothesis_report.json",
        "density_Y_t0p5.csv",
        "gest_Y_t0p5.csv",
        "tableaux_summary.csv",
        "run_metadata.json",
        "effective_config.txt",
    ):
        assert (out / name).exists()
    header = (out / "density_Y_t0p5.csv").read_text().splitlines()[0]
    assert header == "z,kde,lower,upper"
    gh = (out / "gest_Y_t0p5.csv").read_text().splitlines()[0]
    assert gh == "x,g,se"
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["verdicts"]["density_Y_t0.5"] == "pass"
    assert meta["verdicts"]["density_Z_t0.5"] == "not-applicable"
    # unit diffusion: the replays never leave the working box
    gest = json.loads((out / "density_meta.json").read_text())["per_t"]["0.5"]["Y"]["gest"]
    assert type(gest["n_replay_clamped"]) is int
    assert gest["n_replay_clamped"] == 0
    assert meta["per_t"]["0.5"]["Y"]["gest"] == gest
    summary_header = (out / "tableaux_summary.csv").read_text().splitlines()[0]
    assert summary_header.startswith("t,theta,dx_mean")


def test_run_h3_failure_exits_nonzero(tmp_path):
    text = "model.sigma = affine(a=0, b=1)\nmc.n_paths = 100\ngrid.n_steps = 10\n"
    text += "hypotheses.box = -1, 1\n"
    cfg = parse_config(_write(tmp_path, text))
    out = tmp_path / "bad"
    status = Experiment(cfg, out_dir=str(out)).run()
    assert status == 1
    rep = json.loads((out / "hypothesis_report.json").read_text())
    assert rep["checks"]["H3"]["status"] == "fail"
    assert rep["checks"]["H3"]["witness"] == -1.0
    assert not (out / "run_metadata.json").exists()


def test_determinism_bytes(tmp_path):
    cfg_path = _write(tmp_path, SMALL_CFG)
    r1 = main(["run", str(cfg_path), "--out", str(tmp_path / "a")])
    r2 = main(["run", str(cfg_path), "--out", str(tmp_path / "b")])
    assert r1 == r2 == 0
    for name in os.listdir(tmp_path / "a"):
        if name.endswith((".csv", ".json", ".txt")):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name


def test_full_run_ignores_stale_hypothesis_report(tmp_path):
    out = str(tmp_path / "o")
    bad = _write(tmp_path, "model.sigma = affine(b=1)\n", "bad.txt")
    assert main(["run", str(bad), "--out", out]) == 1
    good = _write(tmp_path, SMALL_CFG)
    assert main(["run", str(good), "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "hypothesis_report.json").read_text())
    assert rep["checks"]["H3"]["status"] == "pass"


def test_staged_execution_matches_full(tmp_path):
    # the density stage of a staged run re-runs the backward sweep on the
    # reloaded ensemble, with A and the B marks from one walk over its X
    # where the full run has them from the Euler loop; its outputs match the
    # full run's byte for byte, also when the box flags paths that both drop
    for label, text in (("unit", SMALL_CFG), ("s2", S2_CFG),
                        ("s2-flagged", S2_CFG + "model.box = -6, 6\n")):
        cfg_path = _write(tmp_path, text, f"{label}.txt")
        full = tmp_path / f"{label}-full"
        staged = tmp_path / f"{label}-staged"
        main(["run", str(cfg_path), "--out", str(full)])
        for stage in ("hypotheses", "simulate", "density"):
            rc = main(["run", str(cfg_path), "--out", str(staged), "--stage", stage])
            assert rc == 0
        assert (staged / "ensemble.bin").exists()
        assert not (staged / "solution.npz").exists()
        flagged = json.loads((full / "run_metadata.json").read_text())["n_flagged"]
        assert (flagged > 0) == (label == "s2-flagged")
        names = [n for n in os.listdir(full)
                 if n.startswith(("density_", "gest_")) or n == "tableaux_summary.csv"]
        assert "density_meta.json" in names and "tableaux_summary.csv" in names
        for name in names:
            assert (full / name).read_bytes() == (staged / name).read_bytes(), (label, name)


@pytest.mark.parametrize("key, value", [
    ("verify.tol", "nan"),
    ("verify.tol", "-5"),
    ("verify.max_violation_fraction", "nan"),
    ("verify.max_violation_fraction", "-1"),
    ("verify.max_violation_fraction", "1.5"),
    ("verify.positivity_noise_floor", "nan"),
    ("verify.positivity_noise_floor", "-0.1"),
    ("model.x0", "inf"),
    ("model.T", "nan"),
    ("model.T", "inf"),
    ("model.alpha", "nan"),
])
def test_bad_numeric_value_exits_2(tmp_path, key, value):
    cfg_path = _write(tmp_path, SMALL_CFG + f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(key) + " must"):
        parse_config(cfg_path)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_infinite_verify_tol_accepted(tmp_path):
    # tol = inf is "accept everything", not bad input
    cfg = parse_config(_write(tmp_path, "verify.tol = inf\n"))
    assert cfg["verify.tol"] == float("inf")


def test_seed_override_changes_outputs(tmp_path):
    cfg_path = _write(tmp_path, SMALL_CFG)
    main(["run", str(cfg_path), "--out", str(tmp_path / "s1")])
    main(["run", str(cfg_path), "--out", str(tmp_path / "s2"), "--seed", "43"])
    a = (tmp_path / "s1" / "density_Y_t0p5.csv").read_bytes()
    b = (tmp_path / "s2" / "density_Y_t0p5.csv").read_bytes()
    assert a != b


def test_unbounded_hypothesis_box_refused(tmp_path):
    # a finite box whose width overflows has no grid either: no NaN witness
    for box in ("-inf, inf", "-1e308, 1e308"):
        text = SMALL_CFG + f"hypotheses.box = {box}\n"
        cfg_path = _write(tmp_path, text)
        out = tmp_path / "g"
        rc = main(["check-hypotheses", str(cfg_path), "--out", str(out)])
        assert rc == 2  # documented refusal surfaces as a CLI error
        assert not (out / "hypothesis_report.json").exists()


def test_overflowing_coefficient_exits_2(tmp_path, capsys):
    # sigma = 1 + x^2 + x^4 overflows on this box; H3 must not pass with M = NaN
    text = SMALL_CFG.replace("model.sigma = constant(c=1)",
                             "model.sigma = polynomial(c0=1, c2=1, c4=1)")
    cfg_path = _write(tmp_path, text + "hypotheses.box = -1e90, 1e90\n")
    out = tmp_path / "o"
    rc = main(["check-hypotheses", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "sigma = inf is not finite" in err
    assert "Traceback" not in err
    for path in out.glob("*.json"):
        text = path.read_text(encoding="utf-8")
        assert "NaN" not in text and "Infinity" not in text, path


def _check_block_fields(out) -> set[str]:
    """Assert that each ``*_report`` of ``per_t_verdicts``, each ``constants``
    block and ``positivity_report.json`` has exactly the fields of its
    dataclass; returns the names of the dataclasses met."""
    meta = json.loads((out / "run_metadata.json").read_text())
    blocks = [(block, DensityReport) for tv in meta["per_t_verdicts"].values()
              for key, block in tv.items() if key.endswith("_report")]
    blocks += [(entry[name]["constants"], BoundConstants) for entry in meta["per_t"].values()
               for name in ("Y", "Z") if "constants" in entry[name]]
    if (out / "positivity_report.json").exists():
        blocks.append((json.loads((out / "positivity_report.json").read_text()),
                       BouleauHirschReport))
    for block, cls in blocks:
        assert set(block) == {f.name for f in dataclasses.fields(cls)}, cls.__name__
    return {cls.__name__ for _, cls in blocks}


def test_check_hypotheses_command(tmp_path):
    cfg_path = _write(tmp_path, SMALL_CFG)
    rc = main(["check-hypotheses", str(cfg_path), "--out", str(tmp_path / "h")])
    assert rc == 0
    assert (tmp_path / "h" / "hypothesis_report.json").exists()
    assert not (tmp_path / "h" / "tableaux_summary.csv").exists()


def test_convex_terminal_z_pipeline(tmp_path):
    text = SMALL_CFG.replace("model.phi = affine(a=0, b=1)",
                             "model.phi = quadratic(c=0.5)")
    text += "gest.targets = y,z\n"
    cfg = parse_config(_write(tmp_path, text))
    out = tmp_path / "z42"
    status = Experiment(cfg, out_dir=str(out)).run()
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["verdicts"]["density_Y_t0.5"] == "not-applicable"
    assert meta["verdicts"]["positivity"] == "pass"
    assert meta["verdicts"]["density_Z_t0.5"] == "pass"
    assert status == 0
    pos = json.loads((out / "positivity_report.json").read_text())
    assert pos["nonpositive_fraction"] == 0.0
    assert (out / "density_Z_t0p5.csv").exists()
    assert (out / "gest_Z_t0p5.csv").exists()
    assert _check_block_fields(out) == {"DensityReport", "BoundConstants",
                                        "BouleauHirschReport"}


def test_y_oracle_passes_at_three_times(tmp_path):
    text = SMALL_CFG.replace("eval.times = 0.5", "eval.times = 0.25, 0.5, 0.75")
    cfg = parse_config(_write(tmp_path, text))
    out = tmp_path / "three"
    status = Experiment(cfg, out_dir=str(out)).run()
    assert status == 0
    meta = json.loads((out / "run_metadata.json").read_text())
    for t in ("0.25", "0.5", "0.75"):
        assert meta["verdicts"][f"density_Y_t{t}"] == "pass"
    assert _check_block_fields(out) == {"DensityReport", "BoundConstants"}


def test_csv_formatting_17_digits(tmp_path):
    cfg_path = _write(tmp_path, SMALL_CFG)
    out = tmp_path / "fmt"
    main(["run", str(cfg_path), "--out", str(out)])
    line = (out / "density_Y_t0p5.csv").read_text().splitlines()[5]
    z = float(line.split(",")[0])
    assert f"{z:.17g}" == line.split(",")[0]


def test_basis_kind_spellings(tmp_path):
    cfg = parse_config(_write(tmp_path, "basis.kind = polynomial-in-(x,w)\n"))
    assert cfg["basis.kind"] == "polynomial-in-xw"
    cfg2 = parse_config(_write(tmp_path, "basis.kind = polynomial-in-xw\n", "c2.txt"))
    assert cfg2["basis.kind"] == "polynomial-in-xw"


def test_config_echo_round_trip(tmp_path):
    cfg = parse_config(_write(
        tmp_path, "model.sigma = constant(c=1.00000123)\nverify.tol = 0.1234567891\n"
    ))
    echo = config_echo(cfg)
    assert "model.sigma = constant(c=1.00000123)\n" in echo
    assert "verify.tol = 0.1234567891\n" in echo
    again = parse_config(_write(tmp_path, echo, "echo.txt"))
    assert again.values == cfg.values
    assert config_echo(again) == echo


def test_workers_key_is_unknown(tmp_path):
    cfg_path = _write(tmp_path, "run.workers = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(cfg_path)
    assert main(["run", str(cfg_path)]) == 2


def test_gest_at_terminal_node_exits_2(tmp_path, capsys):
    # t = 0.9 snaps to the terminal node t = 1 of a two-step grid
    text = "mc.n_paths = 4000\ngest.n_outer = 1000\ngrid.n_steps = 2\neval.times = 0.9\n"
    cfg_path = _write(tmp_path, text)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "eval time 0.9" in err and "terminal node t = 1" in err
    assert not (tmp_path / "o" / "run_metadata.json").exists()


def test_staged_run_refuses_another_runs_artifacts(tmp_path, capsys):
    cfg_path = _write(tmp_path, SMALL_CFG)
    out = tmp_path / "o"
    args = ["run", str(cfg_path), "--out", str(out)]
    assert main(args + ["--stage", "simulate", "--seed", "1"]) == 0
    assert "mc.master_seed = 1\n" in (out / "effective_config.txt").read_text()
    assert main(args + ["--stage", "density", "--seed", "2"]) == 2
    assert "mc.master_seed differs" in capsys.readouterr().err
    # a full run recomputes every stage and drops the ensemble a staged run would reuse
    assert main(args + ["--seed", "2"]) == 0
    assert "mc.master_seed = 2\n" in (out / "effective_config.txt").read_text()
    assert not (out / "ensemble.bin").exists()
    assert json.loads((out / "run_metadata.json").read_text())["master_seed"] == 2
    assert main(args + ["--stage", "density", "--seed", "2"]) == 0


def test_envelope_constants_use_snapped_time(tmp_path):
    # t = 0.25 snaps to node 12 of a 50-step grid, t = 0.24
    text = SMALL_CFG.replace("grid.n_steps = 40", "grid.n_steps = 50")
    text = text.replace("eval.times = 0.5", "eval.times = 0.25")
    out = tmp_path / "o"
    assert main(["run", str(_write(tmp_path, text)), "--out", str(out)]) == 0
    meta = json.loads((out / "run_metadata.json").read_text())
    entry = meta["per_t"]["0.25"]
    assert entry["t_index"] == 12
    assert entry["t_snapped"] == 0.24
    assert entry["Y"]["constants"]["gamma_min_sq"] == pytest.approx(0.24, rel=1e-12)
    assert meta["verdicts"]["gband_Y_t0.25"] == "pass"


def test_overflowing_payoff_exits_2(tmp_path, capsys):
    text = SMALL_CFG.replace("model.phi = affine(a=0, b=1)", "model.phi = affine(a=0, b=1e308)")
    with np.errstate(over="ignore"):
        rc = main(["run", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "non-finite terminal value Y_T at time step 40" in capsys.readouterr().err


def test_overflowing_design_exits_2(tmp_path, capsys):
    """A basis degree whose design Gram overflows fails at its first step
    with an error that names it, without a RuntimeWarning (which this suite
    raises as an error)."""
    text = "mc.n_paths = 3000\ngrid.n_steps = 8\nbasis.degree = 400\ngest.n_outer = 300\n"
    assert main(["run", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "non-finite regression Gram at time step 7; reduce basis.degree" in err


def test_non_finite_family_parameter_exits_2(tmp_path, capsys):
    text = SMALL_CFG.replace("model.phi = affine(a=0, b=1)",
                             "model.phi = trig-affine(c=nan, d=1)")
    assert main(["run", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "model.phi" in err and "'c'" in err and "not finite" in err


def test_staged_simulate_skips_backward_sweep(tmp_path, monkeypatch, capsys):
    import bsdedensity.cli as cli

    calls = []
    solve = cli.solve_bsde

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_bsde", counted)
    out = tmp_path / "o"
    args = ["run", str(_write(tmp_path, SMALL_CFG)), "--out", str(out)]
    # the second simulate invocation reuses the ensemble; neither solves
    for stage, solves in (("hypotheses", 0), ("simulate", 0), ("simulate", 0),
                          ("density", 1)):
        assert main(args + ["--stage", stage]) == 0
        assert len(calls) == solves, stage
    # a repeated density invocation solves again and rewrites the same bytes
    csvs = {p: p.read_bytes() for p in out.glob("*.csv")}
    assert len(csvs) == 3
    for path in csvs:
        os.utime(path, (0, 0))
    assert main(args + ["--stage", "density"]) == 0
    assert len(calls) == 2
    for path, data in csvs.items():
        assert path.stat().st_mtime != 0, path.name
        assert path.read_bytes() == data, path.name
    assert main(["run", args[1], "--out", str(tmp_path / "full")]) == 0
    assert len(calls) == 3
    # a solver failure therefore surfaces in the density invocation
    text = SMALL_CFG.replace("model.phi = affine(a=0, b=1)", "model.phi = affine(a=0, b=1e308)")
    args = ["run", str(_write(tmp_path, text, "big.txt")), "--out", str(tmp_path / "big")]
    with np.errstate(over="ignore"):
        assert main(args + ["--stage", "simulate"]) == 0
        assert main(args + ["--stage", "density"]) == 2
    assert "non-finite terminal value Y_T" in capsys.readouterr().err


def test_staged_run_refuses_version_1_dump(tmp_path, capsys):
    cfg_path = _write(tmp_path, SMALL_CFG)
    out = tmp_path / "o"
    args = ["run", str(cfg_path), "--out", str(out)]
    assert main(args + ["--stage", "simulate"]) == 0
    dump = out / "ensemble.bin"
    raw = bytearray(dump.read_bytes())
    raw[8:12] = (1).to_bytes(4, "little")  # the header's version field
    dump.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(args + ["--stage", "density"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "version-1 ensemble dump" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [("n_steps", 0), ("n_paths", 0), ("T", -1.0)])
def test_staged_run_refuses_a_malformed_header(tmp_path, capsys, field, value):
    # a header with no steps, no paths or a T that is not finite and positive
    # is refused with exit 2, naming the file and the field; the dump is cut
    # to the size its header announces, so that check alone does not refuse it
    cfg_path = _write(tmp_path, SMALL_CFG)
    out = tmp_path / "o"
    args = ["run", str(cfg_path), "--out", str(out)]
    assert main(args + ["--stage", "simulate"]) == 0
    dump = out / "ensemble.bin"
    raw, head_size = dump.read_bytes(), struct.calcsize(_HEADER_FMT)
    names = ("magic", "version", "n_steps", "n_paths", "n_requested", "T", "x0", "seed",
             "n_flagged")
    head = dict(zip(names, struct.unpack_from(_HEADER_FMT, raw)))
    head[field] = value
    size = head_size + 8 * head["n_paths"] * (2 + 2 * head["n_steps"])
    dump.write_bytes(struct.pack(_HEADER_FMT, *head.values()) + raw[head_size:size])
    capsys.readouterr()
    assert main(args + ["--stage", "density"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and f"ensemble.bin has {field} = {value} in its header" in err
    assert "Traceback" not in err


def test_staged_run_overwrites_corrupted_reports(tmp_path, capsys):
    # a staged run recomputes the reports instead of reading them back
    cfg_path = _write(tmp_path, SMALL_CFG)
    full, staged = tmp_path / "full", tmp_path / "staged"
    assert main(["run", str(cfg_path), "--out", str(full)]) == 0
    args = ["run", str(cfg_path), "--out", str(staged)]
    for stage in ("simulate", "density"):
        assert main(args + ["--stage", stage]) == 0
    reports = ("hypothesis_report.json", "density_meta.json")
    for name in reports:
        (staged / name).write_text('{"pipelines": {', encoding="utf-8")
    capsys.readouterr()
    assert main(args + ["--stage", "density"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    for name in reports + ("density_Y_t0p5.csv", "gest_Y_t0p5.csv"):
        assert (staged / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("key, line", [
    ("mc.master_seed", "mc.master_seed = 1"),
    ("grid.n_steps", "grid.n_steps = 20"),
    ("model.T", "model.T = 2"),
    ("model.x0", "model.x0 = 0.5"),
    ("mc.n_paths", "mc.n_paths = 3000"),
])
def test_staged_run_refuses_copied_ensemble(tmp_path, capsys, key, line):
    # another run's dump copied into this run's directory passes the echo
    # check; its header does not match the config
    text = "".join(l for l in SMALL_CFG.splitlines(True) if not l.startswith(key + " "))
    other = _write(tmp_path, text + line + "\n", "other.txt")
    assert main(["run", str(other), "--out", str(tmp_path / "a"), "--stage", "simulate"]) == 0
    args = ["run", str(_write(tmp_path, SMALL_CFG)), "--out", str(tmp_path / "b")]
    assert main(args + ["--stage", "hypotheses"]) == 0
    shutil.copy(tmp_path / "a" / "ensemble.bin", tmp_path / "b" / "ensemble.bin")
    capsys.readouterr()
    assert main(args + ["--stage", "density"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and f"simulated with {key} = " in err
    assert "Traceback" not in err
    assert not (tmp_path / "b" / "density_meta.json").exists()


@pytest.mark.parametrize("line, flags", [
    ("mc.master_seed = -3", []),
    ("mc.master_seed = 18446744073709551616", []),
    ("mc.master_seed = 42", ["--seed", "-1"]),
    ("mc.master_seed = 42", ["--seed", "18446744073709551616"]),
])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, line, flags):
    text = SMALL_CFG.replace("mc.master_seed = 42", line)
    out = tmp_path / "o"
    assert main(["run", str(_write(tmp_path, text)), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert ("--seed" if flags else "mc.master_seed") + " must lie in [0, 2**64)" in err
    assert not (out / "hypothesis_report.json").exists()


@pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf8", "out-is-a-file",
                                  "out-under-a-file"])
def test_unreadable_config_or_unusable_out_exits_2(tmp_path, capsys, case):
    cfg_path = _write(tmp_path, SMALL_CFG)
    a_file = _write(tmp_path, "", name="a_file")
    config, out = {
        "config-is-a-directory": (tmp_path, tmp_path / "o"),
        "config-not-utf8": (tmp_path / "latin1.txt", tmp_path / "o"),
        "out-is-a-file": (cfg_path, a_file),
        "out-under-a-file": (cfg_path, a_file / "o"),
    }[case]
    (tmp_path / "latin1.txt").write_bytes("# r\xe9sum\xe9\n".encode("latin-1"))
    assert main(["run", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert str(config if case.startswith("config") else out) in err



# tiny versions of the reference configurations: the package defaults (the
# gest-default workload differs from them only in size, so at this size the
# two are one run), nonlinear-xt, z-convex and nonlinear-xt with Y and Z
# g-targets
_TINY = "mc.n_paths = 2000\ngrid.n_steps = 8\ngest.n_outer = 200\n"
_NONLINEAR_XT = """\
model.terminal = phi-of-xt
model.sigma = trig-affine(a=2, b=0.5)
model.b = trig-affine(c=0.3)
model.f_of_x = affine(b=0.1)
model.f_of_y = trig-affine(c=0.2)
model.phi = trig-affine(c=0.1, d=1)
"""
PINNED_CONFIGS = {
    "defaults": ("", "verify"),
    "nonlinear-xt": (_NONLINEAR_XT + "gest.enabled = false\n", "verify"),
    "z-convex": ("model.phi = quadratic(c=0.5)\ngest.targets = y, z\n", "verify"),
    "nonlinear-xt-gest-yz": (_NONLINEAR_XT + "gest.targets = y, z\n", "verify"),
    "nonlinear-xt-simulate": (_NONLINEAR_XT + "gest.enabled = false\n", "simulate"),
    # the Girsanov path of a driver with a linear z-term
    "nonlinear-xt-alpha": (_NONLINEAR_XT + "model.alpha = 0.3\ngest.targets = y, z\n",
                           "verify"),
    # exits 1 at this size (density_Z_t0.5 fails); its bytes are still fixed
    "z-convex-alpha": ("model.phi = quadratic(c=0.5)\nmodel.alpha = 0.3\n"
                       "gest.targets = y, z\n", "verify"),
    # the one basis that reads every W column, with the Girsanov weights over
    # [t, T] and the replay rows' W column
    "nonlinear-xt-xw-alpha": (_NONLINEAR_XT + "basis.kind = polynomial-in-xw\n"
                              "model.alpha = 0.3\ngest.targets = y, z\n", "verify"),
}
# sha256 of each artifact, generated by this test's runs
PINNED_SHA256 = {
    "defaults": {
        "density_Y_t0p25.csv":
            "a03611b19fd2e13833b9ba7a9de55799a3995757e8364b765f9ccbe9bf91b290",
        "density_Y_t0p5.csv":
            "c7f1da9a1aace3c2a7f4e6846bb462d5698175291a8c89cd71098df76113c7f0",
        "density_Y_t0p75.csv":
            "7aedaef3881d1d66312e50760abc70d91a596136128c1a24fbf04d206db7749e",
        "density_meta.json":
            "d312df1612ae9126a38e5de637d09f85b925327c06babdc1316419035b007c28",
        "effective_config.txt":
            "4aea12c2dd31fecb88a593a14e6b34aeab664d3ab909b0a0e6a8a9ec97983c20",
        "gest_Y_t0p25.csv":
            "df02a193a38948fbd0836e27e7232833dcd4b5f2443ce708d3e6442038b5a145",
        "gest_Y_t0p5.csv":
            "337cd178f7357a0648ea6d3d98f3f6a31717f8be397b6a8180273ebc733bac57",
        "gest_Y_t0p75.csv":
            "63e5aed553628d388a96b368ba6979b8e7777eeea702677c404ca784f57ec2f1",
        "hypothesis_report.json":
            "e32c65345eb69fe445f8993a7b1e41aa491cbbd56bab4149d5a38f056f78da85",
        "run_metadata.json":
            "5746aeae53a524f272659ad4e424b0bd4421ba54697e64f09e884f415a621d1c",
        "tableaux_summary.csv":
            "01c114d405d0dbbc260da3fe5b0af623384bc3cf0c0389432331ee4381060ffd",
    },
    "nonlinear-xt": {
        "density_Y_t0p25.csv":
            "8d0eecccfc3c81aea604af0057095f030e05a49b21c366196a3fc902b05cf4b0",
        "density_Y_t0p5.csv":
            "d60f2f2f547292ce27690296bd415a74d497181194b99b2d27574285375e2699",
        "density_Y_t0p75.csv":
            "31c56e6ffd4df607b241cce6865a9724ca94f126688b517efa6337980b39f2f8",
        "density_meta.json":
            "d5eea65411c61404f716c00e9d03f7e9bb4aa4c51ca1a80e449c2c1dcc583864",
        "effective_config.txt":
            "255cf9bb8264d43f6f16b75d930a86ab6cf319fc73b68fba25c46af3f38a90d9",
        "hypothesis_report.json":
            "62e38b84873c53675173d1672ae067765b68b469a378b4702d520eebc2820acb",
        "run_metadata.json":
            "1318c90171b6d1a8c429918c5ad140b67d42c5ce66591ffc596587a27c5569ad",
        "tableaux_summary.csv":
            "dcaed8bc02dedaade71789ed0cfdec39d10642e56a26f1eadb3ce217f584a214",
    },
    "z-convex": {
        "density_Z_t0p25.csv":
            "167b78bc8903ea9d18638467528fda6455880cc6befd0d41402ec40df9278d1a",
        "density_Z_t0p5.csv":
            "36e4bc672d6222f05e11ee022f9f405d4df00fe7751e2b3adaffcd22e754a065",
        "density_Z_t0p75.csv":
            "f6a309adbfbcd21cce3d42f36b5a9d6601413df4af1a30a27dfe6cb5685859bb",
        "density_meta.json":
            "73d25d80a1246cbd5ee9313dc3e6140778a86455f842cc06ad3ea99d5f210b21",
        "effective_config.txt":
            "d541b846f9cf11e68deb5964d436063d6f728ce9e89e87e1f9368e00bade622c",
        "gest_Z_t0p25.csv":
            "888ce3e150546038ac8a07770c9091c8ac82d77715f23691978d54b3d89ce0bd",
        "gest_Z_t0p5.csv":
            "4c104773cbc07b2bb09855737521a5866ec4da306eee5a99462f1418c8bf6ccf",
        "gest_Z_t0p75.csv":
            "18aae7687ed254e07dc5d5bf4fb1744e35ad5c8ed87d23cc4acb6aeb3066b9e0",
        "hypothesis_report.json":
            "041fa0f2bfbb6c424d9fd6c8fc7a7ba03d822581f5946fe0c9c7a2f889bd4718",
        "positivity_report.json":
            "f2aa9b1a770f08fbcb54f5d64bff72910c2a9fa34db5d193a4407a351f16446b",
        "run_metadata.json":
            "8dd15121936b4ddb6e62e3a09dbc70b7300480f220a042c8d7ae608ca37f105f",
        "tableaux_summary.csv":
            "94dbbefbfa14b51e943ad5065195dc511345d8878947da1e3c8e269184a9fe5f",
    },
    "nonlinear-xt-gest-yz": {
        "density_Y_t0p25.csv":
            "8d0eecccfc3c81aea604af0057095f030e05a49b21c366196a3fc902b05cf4b0",
        "density_Y_t0p5.csv":
            "d60f2f2f547292ce27690296bd415a74d497181194b99b2d27574285375e2699",
        "density_Y_t0p75.csv":
            "31c56e6ffd4df607b241cce6865a9724ca94f126688b517efa6337980b39f2f8",
        "density_meta.json":
            "d148286493248a0d9020bfb9be571fa5cd030ff33581282a8d369e843d1aa2e3",
        "effective_config.txt":
            "ad6eea7ad33ac25eac39f9d766001f3af37d8902af02c36a55b0e4562b1c199e",
        "gest_Y_t0p25.csv":
            "238f60589895053db80423c4c7bb5cc4f45f4a621434f933ad555a7fb2709b4b",
        "gest_Y_t0p5.csv":
            "798d55bd8a9010ed4ae93972d20e420e8ae2726dc69074e6e9764e80249c3e6e",
        "gest_Y_t0p75.csv":
            "35920e6c297946b1d70df4855aad6f989a5383f4a4e7cc61033f05b3ef41f812",
        "hypothesis_report.json":
            "62e38b84873c53675173d1672ae067765b68b469a378b4702d520eebc2820acb",
        "run_metadata.json":
            "b571a9073502d262a0e743e2a5171d5dc12279d1e24dfcd84505d4fd1c46d874",
        "tableaux_summary.csv":
            "dcaed8bc02dedaade71789ed0cfdec39d10642e56a26f1eadb3ce217f584a214",
    },
    "nonlinear-xt-simulate": {
        "effective_config.txt":
            "255cf9bb8264d43f6f16b75d930a86ab6cf319fc73b68fba25c46af3f38a90d9",
        "ensemble.bin":
            "b78e089a2d85d159a6166b9dc646bd1e339a10aeb2ac53b815b4dcf813ae2ea2",
        "hypothesis_report.json":
            "62e38b84873c53675173d1672ae067765b68b469a378b4702d520eebc2820acb",
    },
    "nonlinear-xt-alpha": {
        "density_Y_t0p25.csv":
            "ae8b992a1fcc2fe6943df6a59dae6f47853c44731dfc6c85e0f8ff8553833951",
        "density_Y_t0p5.csv":
            "504921b17a188f57d812511b959cd60fc80b3eb7e025b919fb9e91fd79c68908",
        "density_Y_t0p75.csv":
            "fba60026cf14ffe2644d2e13ed8a1f6be44f992f78def09e9b3af724a30b6620",
        "density_meta.json":
            "2bd1092109a53080c47cc1eca9a6d1138d73bf3606ba164af08f61a065e5d493",
        "effective_config.txt":
            "7456885884e59826199633cf399902ea45ed778f4f8eccc9c8976f456997c69c",
        "gest_Y_t0p25.csv":
            "43fea7f847393a8690e547ad4266aa1e32f277b2f31f4f23db096a3e0482aca3",
        "gest_Y_t0p5.csv":
            "605f1053e9745c282a86c51cb82523fd73d53ebf86579c59322c5ab125dcd1fe",
        "gest_Y_t0p75.csv":
            "45dd78dc7cffc67b303523f073cc854690c94c3a9e2bb336890379584e8d940a",
        "hypothesis_report.json":
            "62e38b84873c53675173d1672ae067765b68b469a378b4702d520eebc2820acb",
        "run_metadata.json":
            "582b5b815425266573ceaa08e54e31892c4a5d0c67e4c6c017b7e478de9c2d0c",
        "tableaux_summary.csv":
            "e5ba4c0a6d5f18081d3e63e202463c88d4cb3c4621df0ea944f623b548d06521",
    },
    "z-convex-alpha": {
        "density_Z_t0p25.csv":
            "e4e777f463e90f2980b54cc71230d36d75a4e62b05d29741336c64950cf59ff3",
        "density_Z_t0p5.csv":
            "f36f030e44e34db377fe930fb65211572bf6bc90ec6d52632be7b94c6d903c99",
        "density_Z_t0p75.csv":
            "fbd83d959a6a8fa22f26ae799aecc5c6b5651b2e6ad7ddeacd6d2a8feb574fd9",
        "density_meta.json":
            "f9c0280099e63932d33031fb64d00a33ae2b6aab0506cf9f7e05f19d940f45a0",
        "effective_config.txt":
            "cd5b41b07fab1fc326b14f512b8039fd4cc3b53c77b19ce4b55ff18f7da266a2",
        "gest_Z_t0p25.csv":
            "c51b924c2140df2c26f1f50b025db90815e7d663a43aced2a68c797c1ebe2c8b",
        "gest_Z_t0p5.csv":
            "c525cdadffd130a041de98bdee50db6142b12d13c0df3cd85762732d1fce42cf",
        "gest_Z_t0p75.csv":
            "74768f276206cdd4d3f4212fc2e5cbf4fdc3b6bba366f1889304f8fca5bc6c54",
        "hypothesis_report.json":
            "041fa0f2bfbb6c424d9fd6c8fc7a7ba03d822581f5946fe0c9c7a2f889bd4718",
        "positivity_report.json":
            "20cd0d1578f20d19a4a08aa039a78d14515054b0455026900c4c2ca36d9aa0a1",
        "run_metadata.json":
            "03071801024d93196f22a0610f6ef915184c380b7ec125c545c7fc2b1032ce91",
        "tableaux_summary.csv":
            "96f8309ade7c20b97a9944c867117556ba518699961a9ead485c792cb6c1769b",
    },
    "nonlinear-xt-xw-alpha": {
        "density_Y_t0p25.csv":
            "2bb4a9be037ece1ed3c18672c42f35f632a109c0ac5004d6d7cc0bb582119795",
        "density_Y_t0p5.csv":
            "65a5323fc9735e333a02bd58e9f024d88c02d8ed9764de561b4a2fabd7f986d0",
        "density_Y_t0p75.csv":
            "e5c4d6f43a628ddc754bbdf3862cdfea0378c3fc8ec1c9592ec291bfe027707f",
        "density_meta.json":
            "c151c35bf84697a9be0208dc6ca9e1570eb0981d993ec34217fb1b2476131922",
        "effective_config.txt":
            "cbbdddba61e8e2798329158abea9f234ba8d2410a9c0bab73cd42fa7e44c56ee",
        "gest_Y_t0p25.csv":
            "4d37a65b524513105b91746dff32a4dc474fe9823a67c500a5627560de1fc50f",
        "gest_Y_t0p5.csv":
            "0043bef5c3701d79d352375a02b2728ec0aed7cad3874475c838512844254aa4",
        "gest_Y_t0p75.csv":
            "9e989fe4b3ef4cd94f54b1bd6662fed7e24306bfe9fff9440b3520f2d4ccd6ef",
        "hypothesis_report.json":
            "62e38b84873c53675173d1672ae067765b68b469a378b4702d520eebc2820acb",
        "run_metadata.json":
            "b1c5fc996226fb1dabd0fd0040eed726dc58e4d32204ea737064b2a35ce19ca9",
        "tableaux_summary.csv":
            "f9874e3fb20fb76705734f9a6162e8c5685b4cc4a4c1914243bbb69e337975b2",
    },
}


def test_artifact_bytes_pinned(tmp_path):
    """Every artifact of the tiny reference runs at seed 20240801 has the
    pinned sha256, so a change that should keep the bytes is checked by the
    tier-1 suite itself; the simulate-stage run pins ``ensemble.bin``.

    A change that moves bytes on purpose regenerates ``PINNED_SHA256`` (the
    failure message prints, per run, each file whose digest differs from
    the pin, with its new digest or None for a missing file) and lists
    every changed file with its cause.
    """
    import hashlib

    changed = {}
    for label, (text, stage) in PINNED_CONFIGS.items():
        cfg = parse_config(_write(tmp_path, text + _TINY, f"{label}.txt"))
        out = tmp_path / label
        exp = Experiment(cfg, out_dir=str(out), seed=20240801)
        exp.run(stage)
        # the paths span two blocks and a short last one: the digests pin
        # the block seams of the D_theta row statistics
        assert exp.ens.n_paths > _ROW_BLOCK and exp.ens.n_paths % _ROW_BLOCK
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
        pinned = PINNED_SHA256.get(label, {})
        moved = {name: digests.get(name) for name in sorted(digests.keys() | pinned.keys())
                 if digests.get(name) != pinned.get(name)}
        if moved:
            changed[label] = moved
    assert not changed, f"artifact bytes moved; the files whose digests differ: {changed}"


def test_each_x_step_pays_one_sin_and_cos(tmp_path, monkeypatch):
    """A tiny nonlinear-xt run computes the sin and the cos of each step of
    X exactly once from the start of the forward sweep to the backward pass:
    the inverse transform's point set serves the drift, A and the B marks.
    Over the whole run the sin and cos elements of the X steps stay within
    what N, n and the marks allow: the forward sweep's 2 per step, the
    backward pass's 2 per step from the lowest mark up (sigma and sigma' of
    the tableau step, the X_T terminal at n), its B segment walks' 2 per
    step below n, and sigma at each declared step for the tableau summary."""
    cfg = parse_config(_write(tmp_path, PINNED_CONFIGS["nonlinear-xt"][0] + _TINY))
    exp = Experiment(cfg, out_dir=str(tmp_path / "o"), seed=20240801)
    window = {}
    simulate, solve = cli.simulate_forward, cli.solve_bsde

    def simulate_marked(*args, **kwargs):
        window["start"] = len(counts["misses"])
        ens = simulate(*args, **kwargs)
        window["X"] = list(ens.X)
        return ens

    def solve_marked(*args, **kwargs):
        window["stop"] = len(counts["misses"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_forward", simulate_marked)
    monkeypatch.setattr(cli, "solve_bsde", solve_marked)
    with sincos_counter(keep_points=True) as counts:
        assert exp.run() == 0
    X, N, n = window["X"], exp.ens.n_paths, exp.grid.n_steps
    assert exp.ens.n_flagged == 0  # so the ensemble's X steps are the swept arrays
    forward = counts["misses"][window["start"]:window["stop"]]
    for name in ("sin", "cos"):
        per_step = [sum(m == name and x is step for m, x in forward) for step in X]
        assert per_step == [1] * (n + 1), name
    lowest = exp._b_marks()[0]
    bound = N * (2 * (n + 1) + 2 * (n + 1 - lowest) + 2 * (n - lowest) + len(exp.t_indices))
    on_x = sum(x.size for _, x in counts["misses"] if any(x is step for step in X))
    assert on_x <= bound


def test_gband_check_of_no_reliable_point_fails(tmp_path):
    """A g-band check that looks at no point does not pass: with 20 outer
    paths no grid point of the package defaults' g-estimate is reliable, so
    every band check fails and so does the run."""
    text = _TINY.replace("gest.n_outer = 200", "gest.n_outer = 20")
    cfg = parse_config(_write(tmp_path, text))
    out = tmp_path / "o"
    assert Experiment(cfg, out_dir=str(out), seed=20240801).run() == 1
    meta = json.loads((out / "run_metadata.json").read_text())
    for key in ("0.25", "0.5", "0.75"):
        assert meta["per_t"][key]["Y"]["gest"]["n_reliable"] == 0
        assert meta["verdicts"][f"gband_Y_t{key}"] == "fail"


def test_z_g_target_is_clark_ocone(tmp_path, monkeypatch):
    """The Z g-target conditions on the Clark-Ocone Z that the density, the
    constants and the band check use: its samples are the first n_outer
    paths of ``btab.z_clark_all(t_idx)`` and its mean_f their whole mean."""
    text = PINNED_CONFIGS["z-convex"][0] + _TINY
    cfg = parse_config(_write(tmp_path, text))
    exp = Experiment(cfg, out_dir=str(tmp_path / "o"), seed=20240801)
    jobs = []
    monkeypatch.setattr(Experiment, "_g_estimate", lambda self, js, base: jobs.extend(js))
    exp.run("density")
    z_jobs = [(t_idx, target) for _, t_idx, name, _, target in jobs if name == "Z"]
    assert len(z_jobs) == len(cfg["eval.times"])
    for t_idx, target in z_jobs:
        z = exp.btab.z_clark_all(t_idx)
        assert np.array_equal(target.samples, z[: cfg["gest.n_outer"]])
        assert target.mean_f == float(z.mean())


@pytest.mark.parametrize("gest", ["true", "false"])
def test_density_stage_releases_the_increments(tmp_path, gest):
    """After the backward pass only the g-estimator reads increments, from a
    copy of its n_outer base rows: the simulated dW is freed once
    stage_density returns, with the g-estimator on and off."""
    cfg = parse_config(_write(tmp_path, _TINY + f"gest.enabled = {gest}\n"))
    exp = Experiment(cfg, out_dir=str(tmp_path / "o"), seed=20240801)
    exp.run("simulate")
    dW = [weakref.ref(step) for step in exp.ens.dW]
    exp.stage_density()
    assert all(step() is None for step in dW)
    assert (tmp_path / "o" / "gest_Y_t0p5.csv").exists() == (gest == "true")


def test_density_row_statistics_peak_below_one_row(tmp_path):
    """The density stage reads each D_theta row in blocks of paths: at
    z-convex with 8000 paths x 40 steps, one component's row statistics
    allocate less than one (n_paths, t_idx + 1) row above the live state."""
    text = ("model.phi = quadratic(c=0.5)\ngest.enabled = false\n"
            "mc.n_paths = 8000\ngrid.n_steps = 40\n")
    cfg = parse_config(_write(tmp_path, text))
    exp = Experiment(cfg, out_dir=str(tmp_path / "o"), seed=20240801)
    exp.run("density")
    for t in cfg["eval.times"]:
        t_idx = exp.grid.index_of(t)
        row_bytes = exp.ens.n_paths * (t_idx + 1) * 8
        for name in ("Y", "Z"):
            _, peak, _ = traced(exp._component, name, t_idx)
            assert peak < row_bytes, (name, t, peak / row_bytes)


# OpenBLAS fixes its thread count when numpy loads, so each probe is a fresh
# interpreter; it prints the count and the thread variables after ``imports``.
_BLAS_PROBE = """\
import ctypes, glob, json, os
{imports}
import numpy as np
libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
threads = None
for lib in glob.glob(os.path.join(libs, "*openblas*")):
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        get = getattr(handle, symbol, None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
            break
env = {{k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}}
print(json.dumps({{"threads": threads, "env": env}}))
"""


def _fresh_python(code, **env_vars):
    """stdout of ``code`` in a fresh interpreter that imports this package,
    with no BLAS thread variable set but ``env_vars``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    got = subprocess.run([sys.executable, "-c", code], env={**env, **env_vars},
                         capture_output=True, text=True, check=True, timeout=120)
    return got.stdout


def _blas_probe(imports="import bsdedensity.cli", **env_vars):
    result = json.loads(_fresh_python(_BLAS_PROBE.format(imports=imports), **env_vars))
    if result["threads"] is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    return result


def test_import_bsdedensity_loads_no_numpy():
    code = "import sys, bsdedensity; print('numpy' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_cli_loads_blas_on_one_thread():
    """The CLI module loads numpy's OpenBLAS on one thread and leaves no
    variable behind, unless the environment names a thread count or numpy
    was loaded first."""
    default = _blas_probe("import numpy")["threads"]
    assert _blas_probe() == {"threads": 1, "env": {}}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert _blas_probe(**{var: "2"}) == {"threads": min(2, default), "env": {var: "2"}}
    assert _blas_probe("import numpy\nimport bsdedensity.cli") == {"threads": default, "env": {}}
