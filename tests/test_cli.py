import dataclasses
import json
import os
import re
import shutil
import struct
import weakref

import numpy as np
import pytest

from bsdedensity.cli import Experiment, main
from bsdedensity.config import config_echo, parse_config
from bsdedensity.errors import ConfigError
from bsdedensity.forward import _HEADER_FMT, _ROW_BLOCK
from bsdedensity.nvdensity import BoundConstants
from bsdedensity.verify import BouleauHirschReport, DensityReport

from oracles import traced

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
    # reloaded ensemble; its outputs match the full run's byte for byte
    for label, text in (("unit", SMALL_CFG), ("s2", S2_CFG)):
        cfg_path = _write(tmp_path, text, f"{label}.txt")
        full = tmp_path / f"{label}-full"
        staged = tmp_path / f"{label}-staged"
        main(["run", str(cfg_path), "--out", str(full)])
        for stage in ("hypotheses", "simulate", "density"):
            rc = main(["run", str(cfg_path), "--out", str(staged), "--stage", stage])
            assert rc == 0
        assert (staged / "ensemble.bin").exists()
        assert not (staged / "solution.npz").exists()
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
            "63bafa104b71027eaa4c6a565d5fae912e6a48647b02e1ed6bd754fe19d0f88f",
        "density_Y_t0p5.csv":
            "97f90cccb9472db441fcb8132453c15b8cd1ad13776bf80ba04b5c202d5fbfc0",
        "density_Y_t0p75.csv":
            "454a10233023a7559e86464efcc6e41047431bfbeb1a95f866c4a2b99bff2304",
        "density_meta.json":
            "170c52ae00784180fc008ff1737a732f37a6d2acf6f477760d14a4edb629554f",
        "effective_config.txt":
            "4aea12c2dd31fecb88a593a14e6b34aeab664d3ab909b0a0e6a8a9ec97983c20",
        "gest_Y_t0p25.csv":
            "9ff7e40c472c0db9c4bf29ccc8fe8fc3b2b5ae07c7649bfc33bf26901616d11b",
        "gest_Y_t0p5.csv":
            "2e539b03ccb66eda420eeac194d4b12af963c969b9c4cb42ecfd21e4087de62d",
        "gest_Y_t0p75.csv":
            "edfb8b0bee4eb2e4588eea6270094fdcdd4b2363458ba42727015d638e44226e",
        "hypothesis_report.json":
            "e32c65345eb69fe445f8993a7b1e41aa491cbbd56bab4149d5a38f056f78da85",
        "run_metadata.json":
            "869ad90e4c9e22d4adac0594e168320d125c4a3d6b21c6ff91fd0d17b0d9a717",
        "tableaux_summary.csv":
            "1d95fa551aaa67e973b35c27ccb289f80fe4cb0bf1e72dc80f9dd33de732a89d",
    },
    "nonlinear-xt": {
        "density_Y_t0p25.csv":
            "deae53cef13079b5139209bf27b875b79b9029dfece971d080ae75da92cea4b5",
        "density_Y_t0p5.csv":
            "0b1b1806fd176f42a9463897567b3948f18deb309d198e4ad97645fbe0f9eeb5",
        "density_Y_t0p75.csv":
            "b41e7ef1c22375376dcd3ab3a8706d52a2558450e4ad8691e90d61a81e81424b",
        "density_meta.json":
            "6a49a859c253f07636f2761b40dacd4929b7ff445343f8a22643afd8bfb22d72",
        "effective_config.txt":
            "255cf9bb8264d43f6f16b75d930a86ab6cf319fc73b68fba25c46af3f38a90d9",
        "hypothesis_report.json":
            "62e38b84873c53675173d1672ae067765b68b469a378b4702d520eebc2820acb",
        "run_metadata.json":
            "3e6ce7971d2c90fe0b72bb12e4396b00ee99ca484292825acefa5b2efcb0115b",
        "tableaux_summary.csv":
            "203945697c72f08f2bb6de65dbed9e13b3f2c17e9b8134132f94ababf885e265",
    },
    "z-convex": {
        "density_Z_t0p25.csv":
            "01f49031d99300ec95fcbb59df25c8a229252e0116245b52344f2320e32fade9",
        "density_Z_t0p5.csv":
            "c8c29e85158828272d4a68d457a0dedf64f75c06a233fccf0c1b29b921855b68",
        "density_Z_t0p75.csv":
            "65813696685b1471fc1830e7ba7c1d68b624d135c96cfb1464a1b3354deee915",
        "density_meta.json":
            "91d6e33b51fb78ca8ebefa93c3cc31fa39c332206cc21925590f8ad31d6bc641",
        "effective_config.txt":
            "d541b846f9cf11e68deb5964d436063d6f728ce9e89e87e1f9368e00bade622c",
        "gest_Z_t0p25.csv":
            "860c5ab6f8ecfe73653556a96f3b304e686d0e557436a4f16b27e79f6318b3a0",
        "gest_Z_t0p5.csv":
            "e88dd9934359b5f3fd1c1f65b4d37ebdf360ac77ff83bfd30fb4240685c898f3",
        "gest_Z_t0p75.csv":
            "5f60788fd723d3c53eb2307f140c07e4d92f5551d4aed7d346c86e121bd6b678",
        "hypothesis_report.json":
            "041fa0f2bfbb6c424d9fd6c8fc7a7ba03d822581f5946fe0c9c7a2f889bd4718",
        "positivity_report.json":
            "b9c08e4c48af86699bf43f96412c122c406b53fb959fd374c574c1cc3f7d5eb4",
        "run_metadata.json":
            "e6f01b4a0b666ec7ba78741c3d83449d5475083b038a747e2ca15a123a04340e",
        "tableaux_summary.csv":
            "54070a8ab0a218b46f6da48f95e89180341d47e891c1442a0c73e1485995d774",
    },
    "nonlinear-xt-gest-yz": {
        "density_Y_t0p25.csv":
            "deae53cef13079b5139209bf27b875b79b9029dfece971d080ae75da92cea4b5",
        "density_Y_t0p5.csv":
            "0b1b1806fd176f42a9463897567b3948f18deb309d198e4ad97645fbe0f9eeb5",
        "density_Y_t0p75.csv":
            "b41e7ef1c22375376dcd3ab3a8706d52a2558450e4ad8691e90d61a81e81424b",
        "density_meta.json":
            "3a19e22007bb54f966865fff7800a35b6bfead64a3bec0ba18a311826d97d50c",
        "effective_config.txt":
            "ad6eea7ad33ac25eac39f9d766001f3af37d8902af02c36a55b0e4562b1c199e",
        "gest_Y_t0p25.csv":
            "4d3864483064548e2057b327fc26975ab4418a2252f13c160d4ce1d7ab64b412",
        "gest_Y_t0p5.csv":
            "5104a85e809c457cfab289945b4d78fec8b8b6a3920db383442981309beb8b6f",
        "gest_Y_t0p75.csv":
            "f29d0420e0b557c200054ea2fed7e2045c8c9e875a126690912b0bf9a7fd9428",
        "hypothesis_report.json":
            "62e38b84873c53675173d1672ae067765b68b469a378b4702d520eebc2820acb",
        "run_metadata.json":
            "e0bfc500ce11dc3263a9c0a912a5fc4eeed723e8e029f4357eab99e838689d34",
        "tableaux_summary.csv":
            "203945697c72f08f2bb6de65dbed9e13b3f2c17e9b8134132f94ababf885e265",
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
            "9ba56470bf5f1bc12a220ca1d9c87d5633135b3ffa942026bda370b329846cdb",
        "density_Y_t0p5.csv":
            "f0ff1c0bdb64dda525e9ac0e3455ad1a44ca03f8546109299c7088e2b871946a",
        "density_Y_t0p75.csv":
            "1b8513be7fc1e741237df2228390c353159711754b57d22871643467c89005a4",
        "density_meta.json":
            "0073e12e3dcf46d1064b369966169d276f059d011f555e34a41e65a6404e05c5",
        "effective_config.txt":
            "7456885884e59826199633cf399902ea45ed778f4f8eccc9c8976f456997c69c",
        "gest_Y_t0p25.csv":
            "fce58e536c365662ff1f4d1e1dee2634ef6e638cd0556d0c7d3e90237e990137",
        "gest_Y_t0p5.csv":
            "cd56258dbceb547ffcd85a703a3134a120574a23519ab60466ca0f7d1d2ed39e",
        "gest_Y_t0p75.csv":
            "2798af6de46851c681141d0fab283f8f624958a1684fe76f45e354fa0a8465a0",
        "hypothesis_report.json":
            "62e38b84873c53675173d1672ae067765b68b469a378b4702d520eebc2820acb",
        "run_metadata.json":
            "f11e3ec69d776718625d6bfd75a4826fe357db18759a279e281bec6587338989",
        "tableaux_summary.csv":
            "fff216cac32f9bf6fcd5eb9216b52e841dbef82e1fd0a04f66ceacde978f23f0",
    },
    "z-convex-alpha": {
        "density_Z_t0p25.csv":
            "c2df0d4caffc7a7b44fd032d041f599a11d96d2bb70ed0ee315d726243874428",
        "density_Z_t0p5.csv":
            "bb210a284f59364bee680f050c99e488d0d159e69a1aa37b761f34aa677f61d6",
        "density_Z_t0p75.csv":
            "cf18420327898cb5be5d071ca8264b09a660225e48452474b849e3a06b2fd2ca",
        "density_meta.json":
            "483a8f1f89299abf16628376565559e8387ffc59a67a88db5145fcf98663a199",
        "effective_config.txt":
            "cd5b41b07fab1fc326b14f512b8039fd4cc3b53c77b19ce4b55ff18f7da266a2",
        "gest_Z_t0p25.csv":
            "63bf860f80ee6ca25dc58906661e1a32bdf0bf651898bbab6f14360f58518a34",
        "gest_Z_t0p5.csv":
            "721a677b0c5ff26f453695c9f6c62c9409cb2206ee5e13e1221215d3715a20bd",
        "gest_Z_t0p75.csv":
            "1e6307cf7440138f984e4a721cc8b884320751e4a88f1277dbd4c7907b7a5ceb",
        "hypothesis_report.json":
            "041fa0f2bfbb6c424d9fd6c8fc7a7ba03d822581f5946fe0c9c7a2f889bd4718",
        "positivity_report.json":
            "20cd0d1578f20d19a4a08aa039a78d14515054b0455026900c4c2ca36d9aa0a1",
        "run_metadata.json":
            "90e98c55f12753b8486e958b8557e2c728d0c5f3b0fd5d994b12a652d4a5e41b",
        "tableaux_summary.csv":
            "e988b8fe36b9adc219b81bdcb818ca13a8b147befdd722ad0c48fa1e89c28ec3",
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
    failure message prints each run's new digests) and lists every changed
    file with its cause.
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
        if digests != PINNED_SHA256.get(label):
            changed[label] = digests
    assert not changed, f"artifact bytes moved; new digests: {changed}"


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
