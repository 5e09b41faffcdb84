import json
import os

import numpy as np
import pytest

from bsdedensity.cli import main, run_experiment
from bsdedensity.config import config_echo, parse_config
from bsdedensity.errors import ConfigError

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


def test_run_y_oracle_exit_zero(tmp_path):
    cfg = parse_config(_write(tmp_path, SMALL_CFG))
    out = tmp_path / "out"
    status = run_experiment(cfg, out_dir=str(out))
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
    status = run_experiment(cfg, out_dir=str(out))
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
    cfg_path = _write(tmp_path, SMALL_CFG)
    full = tmp_path / "full"
    staged = tmp_path / "staged"
    main(["run", str(cfg_path), "--out", str(full)])
    for stage in ("hypotheses", "simulate", "density", "verify"):
        rc = main(["run", str(cfg_path), "--out", str(staged), "--stage", stage])
        assert rc == 0
    assert (staged / "ensemble.bin").exists()
    assert (staged / "solution.npz").exists()
    for name in os.listdir(full):
        if name.endswith(".csv"):
            assert (full / name).read_bytes() == (staged / name).read_bytes(), name


def test_seed_override_changes_outputs(tmp_path):
    cfg_path = _write(tmp_path, SMALL_CFG)
    main(["run", str(cfg_path), "--out", str(tmp_path / "s1")])
    main(["run", str(cfg_path), "--out", str(tmp_path / "s2"), "--seed", "43"])
    a = (tmp_path / "s1" / "density_Y_t0p5.csv").read_bytes()
    b = (tmp_path / "s2" / "density_Y_t0p5.csv").read_bytes()
    assert a != b


def test_unbounded_hypothesis_box_refused(tmp_path):
    text = SMALL_CFG + "hypotheses.box = -inf, inf\n"
    cfg_path = _write(tmp_path, text)
    rc = main(["check-hypotheses", str(cfg_path), "--out", str(tmp_path / "g")])
    assert rc == 2  # documented refusal surfaces as a CLI error


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
    status = run_experiment(cfg, out_dir=str(out))
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["verdicts"]["density_Y_t0.5"] == "not-applicable"
    assert meta["verdicts"]["positivity"] == "pass"
    assert meta["verdicts"]["density_Z_t0.5"] == "pass"
    assert status == 0
    pos = json.loads((out / "positivity_report.json").read_text())
    assert pos["nonpositive_fraction"] == 0.0
    assert (out / "density_Z_t0p5.csv").exists()
    assert (out / "gest_Z_t0p5.csv").exists()


def test_y_oracle_passes_at_three_times(tmp_path):
    text = SMALL_CFG.replace("eval.times = 0.5", "eval.times = 0.25, 0.5, 0.75")
    cfg = parse_config(_write(tmp_path, text))
    out = tmp_path / "three"
    status = run_experiment(cfg, out_dir=str(out))
    assert status == 0
    meta = json.loads((out / "run_metadata.json").read_text())
    for t in ("0.25", "0.5", "0.75"):
        assert meta["verdicts"][f"density_Y_t{t}"] == "pass"


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
