"""Config validation and the CLI artifact pipeline, including determinism
of the emitted CSV bytes."""

import importlib
import io
import json
import math
import os
import re
import pkgutil
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import conefrac
from conefrac.cli import main, run_task
from conefrac.config import TASKS, parse_config
from conefrac.errors import ConfigurationError
from conefrac.params import ProblemParams, hardy_constant_full_space

MINIMAL_EIG = """
[params]
s = 0.5

[cone]
preset = half

[task]
name = eig
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL_EIG)
    assert cfg.task == "eig"
    assert cfg.params.s == 0.5
    assert cfg.params.lam == 0.0
    assert cfg.nt == 48 and cfg.ntheta == 96
    assert cfg.task_opts["k"] == 10
    assert cfg.cap().length == pytest.approx(math.pi)


def test_unknown_key_suggestion():
    text = MINIMAL_EIG.replace("preset = half", "presett = half")
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    joined = " ".join(err.value.violations)
    assert "presett" in joined and "preset" in joined


def test_s_out_of_range():
    with pytest.raises(ConfigurationError) as err:
        parse_config(MINIMAL_EIG.replace("s = 0.5", "s = 1.5"))
    assert any("s" in v for v in err.value.violations)


def test_too_few_radial_shells_rejected():
    with pytest.raises(ConfigurationError) as err:
        parse_config(MINIMAL_EIG + "\n[mesh]\nnr = 4\n")
    assert any("need nr >= 5" in v for v in err.value.violations)


def test_all_violations_reported():
    bad = """
[params]
s = 2.0

[mesh]
nt = 1

[task]
name = bogus
"""
    with pytest.raises(ConfigurationError) as err:
        parse_config(bad)
    assert len(err.value.violations) >= 3


def test_malformed_expression_rejected():
    text = """
[params]
s = 0.5

[task]
name = solve-ext
h = sin(
"""
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    assert any("sin(" in v for v in err.value.violations)


def test_arc_validation():
    text = """
[params]
s = 0.5

[task]
name = scan
arcs = pi, pi/2
"""
    with pytest.raises(ConfigurationError):
        parse_config(text)


def test_smooth_cone_threshold_checked():
    text = """
[cone]
g_plus = 1.0
g_minus = 1.0

[task]
name = smooth-cone
n = 3
"""
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    assert any("6M" in v or "threshold" in v for v in err.value.violations)


def test_mode_list_parsing():
    text = """
[params]
s = 0.5

[task]
name = frequency
modes = 1:1.0, 4:0.2
"""
    cfg = parse_config(text)
    assert cfg.task_opts["modes"] == [(0, 1.0), (3, 0.2)]


# the full violation list, text and order, of malformed configs
PINNED_VIOLATIONS = {
    "p_floor": (
        "[params]\ns = 0.5\np = 1.5\n[task]\nname = eig\n",
        ["[params] p = 1.5 must exceed N/(2s) = 2"]),
    "arcs": (
        "[task]\nname = scan\narcs = pi, pi/2, 7\n",
        ["[task] arcs must be strictly increasing",
         "[task] arcs must lie in (0, 2*pi]"]),
    "lid_and_lid_mode": (
        "[task]\nname = solve-ext\nlid = 1\nlid_mode = 2\n",
        ["[task] give either lid or lid_mode, not both"]),
    "star_shaped": (
        "[cone]\ng_plus = 1.0\ng_minus = -0.5\n"
        "[task]\nname = smooth-cone\nn = 3\n",
        ["[task] n = 3 is below the star-shapedness threshold ceil(6M) = 6"]),
    "unknown_keys": (
        "[cone]\npresett = half\n[mesh]\nntheat = 32\n[task]\nname = eig\n",
        ["unknown key 'presett' in [cone] (did you mean 'preset'?)",
         "unknown key 'ntheat' in [mesh] (did you mean 'ntheta'?)"]),
    "unknown_task": (
        "[task]\nname = eigs\n",
        ["[task] name = 'eigs': expected one of eig, hardy, scan, frequency, "
         "solve-ext, smooth-cone (did you mean 'eig'?)"]),
    "mesh_keys_off_task": (        # only solve-ext builds the shell grid
        "[mesh]\nnr = 5\nrmin = 0.5\n[task]\nname = frequency\n",
        ["[mesh] key 'nr' does not apply to task 'frequency'",
         "[mesh] key 'rmin' does not apply to task 'frequency'"]),
    "non_integral_counts": (
        "[mesh]\nnt = 12.9\nntheta = 24.5\n[task]\nname = eig\nk = 2.7\n",
        ["[mesh] nt = '12.9': 12.9 is not an integer",
         "[mesh] ntheta = '24.5': 24.5 is not an integer",
         "[task] k = '2.7': 2.7 is not an integer"]),
    "several": (
        "[params]\ns = 2.0\nlambda = x\n[mesh]\nnt = 1\nrmin = 0\n"
        "[solver]\ntol = 1\n[task]\nname = frequency\nk = 0\narcs = pi\n"
        "modes = 0:1\nnradii = 3\n",
        ["unknown section [solver]",
         "[params] s = 2.0: s must lie strictly inside (0, 1)",
         "[params] lambda = 'x': unknown identifier 'x' (variables: x1, x2, "
         "r, theta, t) (at position 0)",
         "[mesh] nt = 1: need nt >= 4",
         "[mesh] rmin = 0.0: rmin must lie in (0, 1)",
         "[mesh] key 'rmin' does not apply to task 'frequency'",
         "[task] key 'arcs' does not apply to task 'frequency'",
         "[task] k = 0: k must be >= 1",
         "[task] nradii = 3: need nradii >= 8",
         "[task] modes = '0:1': mode index 0 must be >= 1 "
         "(expected 'j:amplitude, ...', 1-based)"]),
}


@pytest.mark.parametrize("case", PINNED_VIOLATIONS)
def test_violation_list_pinned(case):
    text, expected = PINNED_VIOLATIONS[case]
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    assert err.value.violations == expected


def test_integral_counts_accept_expressions():
    cfg = parse_config(
        "[mesh]\nnt = 48.0\nntheta = 2*24\n[task]\nname = eig\n")
    assert (cfg.nt, cfg.ntheta) == (48, 48)
    assert isinstance(cfg.nt, int) and isinstance(cfg.ntheta, int)


# the analyzer's radii run geometrically from 0.01 to r0 (40 of them), and
# beta at R needs two of them at or below R; a case that sets r0 carries
# its line after the rlist value
@pytest.mark.parametrize("rlist, violation", [
    (",", "[task] rlist = ',': empty list"),
    ("0.3, 1.5", "[task] rlist = [0.3, 1.5]: reference radii must lie in "
                 "(0, 1)"),
    ("0.004, 0.005, 0.3",
     "[task] rlist = [0.004, 0.005, 0.3]: reference radii must lie in "
     "[0.011189152, 0.8], from the analyzer's second radius to r0"),
    ("0.6, 0.7, 0.75\nr0 = 0.5",
     "[task] rlist = [0.6, 0.7, 0.75]: reference radii must lie in "
     "[0.011055117, 0.5], from the analyzer's second radius to r0"),
    ("0.3, 0.5, 0.7\nr0 = 0.5",        # the default rlist
     "[task] rlist = [0.3, 0.5, 0.7]: reference radii must lie in "
     "[0.011055117, 0.5], from the analyzer's second radius to r0"),
], ids=["empty", "outside", "below_analyzer", "above_r0",
        "default_above_r0"])
def test_rlist_validated(tmp_path, capsys, rlist, violation):
    text = f"[task]\nname = frequency\nrlist = {rlist}\n"
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    assert err.value.violations == [violation]
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert main(["frequency", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {violation}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rmin, task_key, violation", [
    ("0.1", "h = 0.05", "[task] r0 = 0.8 must exceed the analyzer's smallest "
                        "radius 1 = 10 * [mesh] rmin"),
    ("1e-3", "lid = x1 + 1", "[task] lid = x1 + 1: lid is an expression in t "
                             "and theta only"),
], ids=["empty_analyzer_range", "lid_in_x1"])
def test_solve_ext_violations_found_at_parse_time(tmp_path, capsys, rmin,
                                                  task_key, violation):
    # each of these ran the whole solve and then exited 3
    text = ("[params]\ns = 0.5\nlambda = 0.1\n[cone]\npreset = half\n"
            f"[mesh]\nnt = 6\nntheta = 12\nnr = 6\nrmin = {rmin}\n"
            f"[task]\nname = solve-ext\n{task_key}\n")
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    assert err.value.violations == [violation]
    path = _write(tmp_path, text)
    assert main(["solve-ext", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {violation}\n"
    assert not (tmp_path / "out").exists()


def test_lid_mode_checked_against_k(tmp_path, capsys):
    text = ("[mesh]\nnt = 12\nntheta = 24\nnr = 8\n"
            "[task]\nname = solve-ext\nlid_mode = 9\nk = 6\n")
    violation = ("[task] lid_mode = 9 exceeds k = 6, the number of computed "
                 "modes")
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    assert err.value.violations == [violation]
    path = _write(tmp_path, text)
    assert main(["solve-ext", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {violation}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    ("params", "s", "1e400"), ("params", "s", "-1e400"),
    ("mesh", "nt", "1e400")])
def test_overflowing_number_is_a_config_error(tmp_path, capsys, section, key,
                                              value):
    path = _write(tmp_path,
                  f"[{section}]\n{key} = {value}\n[task]\nname = eig\n")
    assert main(["eig", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: [{section}] {key} = '{value}': non-finite value")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [
    "-" * 1500 + "0", "2^" * 1500 + "2", "(" * 300 + "0" + ")" * 300,
    "-" * 5000 + "0", "2^" * 7000 + "2",    # past Python's parser limits
], ids=["unary_minus", "power_tower", "parentheses", "parser_recursion",
        "parser_stack"])
def test_deeply_nested_expression_is_a_config_error(tmp_path, capsys, value):
    path = _write(tmp_path,
                  f"[params]\nlambda = {value}\n[task]\nname = eig\n")
    assert main(["eig", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [params] lambda = ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_readme_names_every_task_key():
    # each task's bullet in the README's "Task-specific keys" list names
    # every key the config table accepts for that task
    from conefrac.config import _KEYS
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Task-specific keys")[1].split("\n\n")[1]
    bullets = dict(re.findall(r"^- `([\w-]+)`:(.*?)(?=^- |\Z)", block,
                              re.M | re.S))
    pairs = [(task, key) for (section, key), spec in _KEYS.items()
             if section == "task" and spec.tasks is not None
             for task in spec.tasks]
    assert pairs
    for task, key in pairs:
        assert f"`{key}`" in bullets[task], (task, key)


def test_readme_api_sketch_runs(capsys):
    # the README's one python block runs as written
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

SMALL_EIG = """
[params]
s = 0.5

[cone]
preset = half

[mesh]
nt = 16
ntheta = 32

[task]
name = eig
k = 4
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cli_eig_artifacts(tmp_path):
    cfg_path = _write(tmp_path, SMALL_EIG)
    code = main(["eig", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = tmp_path / "out"
    assert (out / "eig.csv").exists()
    assert (out / "eig_ladder.svg").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["task"] == "eig"
    assert "config_sha256" in manifest
    assert sorted(manifest["outputs"]) == ["eig.csv", "eig_ladder.svg",
                                           "manifest.json"]
    assert sorted(manifest["mesh"]) == ["grading", "nt", "ntheta"]
    header, first = (out / "eig.csv").read_text().splitlines()[:2]
    assert header == "j,mu,gamma,multiplicity_group"
    assert first.startswith("1,")


def test_cli_determinism(tmp_path):
    cfg_path = _write(tmp_path, SMALL_EIG)
    main(["eig", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["eig", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    for name in ("eig.csv", "manifest.json", "eig_ladder.svg"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    # lam = 0 is checked against no Hardy constant; ARPACK ran at the
    # first shift, just below the spectrum floor -1/4
    notes = json.loads((tmp_path / "a" / "manifest.json").read_text())["notes"]
    assert notes == {"eigen_path": "lanczos",
                     "eigen_shift": pytest.approx(-0.315, rel=1e-15),
                     "lanczos_steps": 28,
                     "lanczos_reorths": 8,
                     "lanczos_residual": pytest.approx(
                         0.0, abs=np.finfo(float).eps),
                     "hardy_lambda": None, "hardy_floor": None,
                     "lambda_margin": None}


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_path = _write(tmp_path, SMALL_EIG.replace("s = 0.5", "s = 7"))
    code = main(["eig", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_negative_mesh_level_exit_code(tmp_path, capsys):
    cfg_path = _write(tmp_path, SMALL_EIG)
    code = main(["eig", "--config", str(cfg_path), "--mesh-level", "-1",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "--mesh-level must be >= 0" in capsys.readouterr().err


def test_cli_task_mismatch(tmp_path):
    cfg_path = _write(tmp_path, SMALL_EIG)
    code = main(["hardy", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_missing_config(tmp_path):
    code = main(["eig", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # two arcs that cover the same equator nodes give equal Hardy constants,
    # which the nested scan must see strictly decrease
    cfg_path = _write(tmp_path, "[params]\ns = 0.5\n[mesh]\nnt = 8\n"
                      "ntheta = 16\n[task]\nname = scan\narcs = 3.0, 3.01\n")
    code = main(["scan", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", [40, 100000])
def test_cli_k_above_free_dofs_is_config_error(tmp_path, capsys,
                                               monkeypatch, k):
    # a 4x8 half cap has 28 free dofs: k beyond them is rejected before the
    # Hardy solve, as a config error that leaves no output directory
    from conefrac import hardy

    def no_hardy(*args):
        raise AssertionError("the Hardy solve ran")

    monkeypatch.setattr(hardy, "hardy_constant", no_hardy)
    cfg_path = _write(tmp_path, _eig_config(0.1, 4, 8).replace(
        "k = 4", f"k = {k}"))
    code = main(["eig", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"need 1 <= k <= 28 on this mesh, got k = {k}" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _eig_config(lam, nt, ntheta, preset="half", s=0.5):
    return (f"[params]\ns = {s}\nlambda = {lam}\n\n[cone]\n"
            f"preset = {preset}\n\n[mesh]\nnt = {nt}\nntheta = {ntheta}\n"
            "\n[task]\nname = eig\nk = 4\n")


def test_inadmissible_lambda_rejected_with_value(tmp_path, capsys):
    # Lambda(2, 0.75) is about 0.059 on the full plane
    cfg_path = _write(tmp_path, _eig_config(0.5, 48, 96, preset="full",
                                            s=0.75))
    code = main(["eig", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Hardy" in err
    assert "0.059" in err
    assert not any((tmp_path / "out").glob("*"))


def test_full_plane_lambda_above_closed_form_rejected_at_parse(tmp_path,
                                                               capsys):
    # at s = 0.1 the run mesh's Hardy constant overestimates the full
    # plane's (0.88 at 48x96); the closed form 0.774542 decides at parse
    cfg_path = _write(tmp_path, _eig_config(0.8, 48, 96, preset="full",
                                            s=0.1))
    out = tmp_path / "out"
    assert main(["eig", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Hardy" in err and "0.774542" in err
    assert not out.exists()


@pytest.mark.parametrize("preset, nt, ntheta", [("half", 12, 24),
                                                ("full", 24, 48)])
def test_manifest_notes_the_closed_form_hardy_floor(tmp_path, preset, nt,
                                                    ntheta):
    # Lambda decreases as the cap grows, so the full circle's closed form
    # bounds every cap's constant from below; on the full circle the mesh's
    # constant converges to it (second order at s = 0.5)
    cfg_path = _write(tmp_path, _eig_config(0.1, nt, ntheta, preset=preset))
    assert main(["eig", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    notes = json.loads(
        (tmp_path / "out" / "manifest.json").read_text())["notes"]
    floor = hardy_constant_full_space(ProblemParams(s=0.5))
    assert notes["hardy_floor"] == floor
    assert notes["hardy_lambda"] >= floor
    if preset == "full":
        assert notes["hardy_lambda"] == pytest.approx(floor, rel=1e-4)


# lambda = 0.785 passes parsing and fails the Hardy check of the 12x24 run
# mesh (0.78301), after the output directory is made

def test_failed_run_removes_the_output_directory_it_created(tmp_path):
    cfg_path = _write(tmp_path, _eig_config(0.785, 12, 24))
    out = tmp_path / "runs" / "out"
    assert main(["eig", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not (tmp_path / "runs").exists()


def test_failed_run_leaves_an_existing_directory_as_it_was(tmp_path):
    cfg_path = _write(tmp_path, _eig_config(0.785, 12, 24))
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("earlier run")
    assert main(["eig", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "earlier run"


# the half cap's Hardy constant converges at first order in the mesh
# (caps with endpoints): 0.78301 at 12x24, 0.79942 at 48x96.  lam is
# checked against the run's own mesh, in both directions.

def test_cli_lambda_rejected_on_coarse_run_mesh(tmp_path, capsys):
    cfg_path = _write(tmp_path, _eig_config(0.785, 12, 24))
    code = main(["eig", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "12x24" in err and "0.783" in err
    assert not any((tmp_path / "out").glob("*"))


def test_cli_lambda_admitted_on_fine_run_mesh(tmp_path):
    cfg_path = _write(tmp_path, _eig_config(0.795, 48, 96))
    assert main(["eig", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    notes = json.loads(
        (tmp_path / "out" / "manifest.json").read_text())["notes"]
    assert notes["hardy_lambda"] == pytest.approx(0.79942, abs=1e-5)
    assert notes["lambda_margin"] < 1.0


# slopes -10 on both sides leave an arc of 0.199, under one 12x24 segment
# (0.262); scan's Richardson level of a 12x24 config is 6x12, whose
# segments (0.524) miss an arc of 0.5

NARROW_CAP = ("[params]\ns = 0.5\nlambda = {lam}\n\n[cone]\ng_plus = -10\n"
              "g_minus = -10\n\n[mesh]\nnt = 12\nntheta = 24\n\n[task]\n"
              "name = eig\nk = 3\n")
NARROW_SCAN = ("[params]\ns = 0.5\n\n[mesh]\nnt = 12\nntheta = 24\n\n"
               "[task]\nname = scan\narcs = 0.5, 1.0\n")


@pytest.mark.parametrize("task, text, mesh", [
    ("eig", NARROW_CAP.format(lam=0), "12x24"),
    ("eig", NARROW_CAP.format(lam=0.1), "12x24"),
    ("scan", NARROW_SCAN, "6x12"),
], ids=["eig_lam0", "eig_lam01", "scan"])
def test_cli_unresolved_cap_exit_code(tmp_path, capsys, task, text, mesh):
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main([task, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "not resolved" in err and mesh in err
    assert not out.exists()


def test_cli_unresolved_cap_resolved_on_finer_level(tmp_path):
    cfg_path = _write(tmp_path, NARROW_SCAN)
    assert main(["scan", "--config", str(cfg_path), "--mesh-level", "1",
                 "--out", str(tmp_path / "out")]) == 0


def test_run_computes_hardy_and_assembles_once(tmp_path, monkeypatch):
    import conefrac.cli as cli
    import conefrac.hardy as hardy
    import conefrac.sphercap as sphercap
    calls = {"hardy": 0, "build_mesh": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hardy, "hardy_constant",
                        counted("hardy", hardy.hardy_constant))
    # the mesh assembles its forms when it is built
    build = counted("build_mesh", sphercap.build_mesh)
    monkeypatch.setattr(sphercap, "build_mesh", build)
    monkeypatch.setattr(cli, "build_mesh", build)
    cfg = parse_config(_eig_config(0.1, 16, 32))
    run_task(cfg, tmp_path / "out")
    assert calls == {"hardy": 1, "build_mesh": 1}


def test_parse_config_loads_no_solver():
    script = (
        "import sys\n"
        "from conefrac.config import parse_config\n"
        f"cfg = parse_config({_eig_config(0.1, 16, 32)!r})\n"
        "assert cfg.params.lam == 0.1\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in ('conefrac.hardy', 'conefrac.sphercap')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(conefrac.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# one small config for each of the five tasks that solve
_MESH = "[mesh]\nnt = 12\nntheta = 24\n"
SMALL_CONFIGS = {
    "eig": "[params]\ns = 0.5\nlambda = 0.1\n" + _MESH
           + "[task]\nname = eig\nk = 4\n",
    "hardy": "[params]\ns = 0.5\n" + _MESH + "[task]\nname = hardy\n",
    "scan": "[params]\ns = 0.5\n" + _MESH
            + "[task]\nname = scan\narcs = pi, 2*pi\n",
    "frequency": "[params]\ns = 0.5\nlambda = 0.1\n[mesh]\nnt = 16\n"
                 "ntheta = 32\n[task]\nname = frequency\nk = 6\n"
                 "modes = 1:1.0, 4:0.2\n",
    "solve-ext": "[params]\ns = 0.5\nlambda = 0.1\n[mesh]\nnt = 12\n"
                 "ntheta = 24\nnr = 8\nrmin = 1e-2\n[task]\n"
                 "name = solve-ext\nh = 0.05\nlid_mode = 1\nk = 6\n",
    "smooth-cone": "[cone]\ng_plus = 1.0\ng_minus = 1.0\n[task]\n"
                   "name = smooth-cone\nn = 12\nsamples = 20\n",
}


@pytest.mark.parametrize("task", ["hardy", "scan", "frequency", "solve-ext"])
def test_cli_rerun_is_byte_identical(tmp_path, task):
    path = _write(tmp_path, SMALL_CONFIGS[task])
    for out in ("a", "b"):
        assert main([task, "--config", str(path),
                     "--out", str(tmp_path / out)]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "manifest.json" in names
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name


def test_runs_load_no_optimize_special_or_integrate(tmp_path):
    # the runtime needs numpy only: the import and a run of each of the
    # six tasks load no scipy module at all, and no numpy.ma either; no
    # numpy.polynomial (the Gauss rules are conefrac's own) and no difflib
    # (only a config error's suggestion imports it)
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy')\n"
        "def ma_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[:2] == ['numpy', 'ma'])\n"
        "def polynomial_difflib_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[:2] == ['numpy', 'polynomial']\n"
        "                  or m.split('.')[0] == 'difflib')\n"
        "from conefrac.cli import run_task\n"
        "from conefrac.config import parse_config\n"
        "print('import', scipy_modules(), ma_modules(),\n"
        "      polynomial_difflib_modules())\n"
        f"for name, text in {SMALL_CONFIGS!r}.items():\n"
        f"    run_task(parse_config(text), {str(tmp_path)!r} + '/' + name)\n"
        "    print(name, scipy_modules(), ma_modules(),\n"
        "          polynomial_difflib_modules())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(conefrac.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [f"{name} [] [] []" for name in
                                        ["import", *SMALL_CONFIGS]]
    assert sorted(SMALL_CONFIGS) == sorted(TASKS)
    for name in SMALL_CONFIGS:
        assert (tmp_path / name / "manifest.json").exists()


@pytest.mark.parametrize("module", ["conefrac"] + [
    f"conefrac.{m.name}" for m in pkgutil.iter_modules(conefrac.__path__)])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ())
            if not hasattr(mod, name)] == []


# exported names no other module uses, each documented read-back API
READ_BACK_API = {
    "load_field": "reads a solve-ext run's field.bin back for analysis",
    "mu_from_gamma": "inverse of gamma_from_mu, for eigenvalues from orders",
}


def test_exported_names_are_reached():
    # every name in a module's __all__ is used somewhere in the package
    # beyond its own def or class line: code tokens only, so __all__
    # strings, docstrings, comments and the package's re-exports do not count
    src = Path(conefrac.__file__).parent
    used = []
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tokens = list(tokenize.generate_tokens(
            io.StringIO(path.read_text(encoding="utf-8")).readline))
        used += [tok.string for prev, tok in zip(tokens, tokens[1:])
                 if tok.type == tokenize.NAME
                 and prev.string not in ("def", "class")]
    exported = {name for m in pkgutil.iter_modules(conefrac.__path__)
                for name in importlib.import_module(f"conefrac.{m.name}")
                .__dict__.get("__all__", ())}
    exported |= set(conefrac.__all__)
    assert sorted(exported - set(used) - set(READ_BACK_API)) == []


def test_sphercap_loads_no_scipy():
    # no conefrac module imports scipy, at the top or inside a function
    script = ("import sys\n"
              "import conefrac.sphercap\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(conefrac.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    imports = re.compile(r"\s*(?:import|from)\s+scipy\b")
    for path in Path(conefrac.__file__).parent.glob("*.py"):
        for line in path.read_text().splitlines():
            assert not imports.match(line), (path.name, line)


def test_cli_smooth_cone(tmp_path):
    text = """
[cone]
g_plus = 1.0
g_minus = 1.0

[task]
name = smooth-cone
n = 12
samples = 200
"""
    cfg_path = _write(tmp_path, text)
    code = main(["smooth-cone", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "smooth_cone.json").read_text())
    assert report["margin_ok"]
    assert report["min_starshape_margin"] >= 3.0 / (4.0 * 12) - 1e-12
    assert report["fn_defect_range_ok"] and report["fn_distance_ok"]
    # Omega_n's graph piece: grad G . z >= 1/(4n) once n >= ceil(6M)
    assert report["gamma_margin_bound"] == 1.0 / (4.0 * 12)
    assert report["gamma_margin_ok"]
    assert report["min_gamma_margin"] >= 1.0 / (4.0 * 12) - 1e-12


def test_cli_frequency_artifacts(tmp_path):
    text = """
[params]
s = 0.5
lambda = 0.1

[cone]
preset = half

[mesh]
nt = 16
ntheta = 32

[task]
name = frequency
modes = 1:1.0, 4:0.2
k = 6
"""
    cfg_path = _write(tmp_path, text)
    code = main(["frequency", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = tmp_path / "out"
    # every figure's numbers are also present as CSV
    assert (out / "frequency_ncal.svg").exists()
    assert (out / "frequency.csv").exists()
    assert (out / "fourier.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["j0"] == 1
    assert summary["gamma_hat"] == pytest.approx(summary["gamma_eigen"],
                                                 abs=1e-2)
    assert all(p["satisfied"] for p in summary["pohozaev"])
    # the Hardy constant the eigen solve checked lam against, and the
    # margin, byte-identical on a rerun
    notes = json.loads((out / "manifest.json").read_text())["notes"]
    assert notes["lambda_margin"] == pytest.approx(
        0.1 / notes["hardy_lambda"], rel=1e-15)
    assert 0.0 < notes["lambda_margin"] < 1.0
    assert notes["hardy_floor"] == hardy_constant_full_space(
        ProblemParams(s=0.5))
    assert notes["eigen_path"] == "lanczos"
    assert notes["eigen_shift"] < -0.25
    assert 0.0 <= notes["lanczos_residual"] <= np.finfo(float).eps
    assert main(["frequency", "--config", str(cfg_path),
                 "--out", str(tmp_path / "again")]) == 0
    for name in ("manifest.json", "summary.json", "frequency.csv"):
        assert (out / name).read_bytes() \
            == (tmp_path / "again" / name).read_bytes()


@pytest.mark.parametrize("task, text", [
    # acceptance criterion 07's two-mode field
    ("frequency", "[mesh]\nnt = 24\nntheta = 48\ngrading = 2.0\n"
                  "[task]\nname = frequency\nk = 8\nmodes = 1:1.0, 4:0.2\n"),
    ("solve-ext", "[mesh]\nnt = 12\nntheta = 24\nnr = 8\n"
                  "[task]\nname = solve-ext\nh = 0.05\nk = 6\n"),
], ids=["frequency", "solve-ext"])
def test_summary_blowup_off_group_matches_the_csvs(tmp_path, task, text):
    # the blow-up U(tau z) / sqrt(H(tau)) at the smallest analyzer radius,
    # projected off j0's group: sqrt(sum phi_j^2 / H) over the other modes
    path = _write(tmp_path, "[params]\ns = 0.5\nlambda = 0.1\n"
                  "[cone]\npreset = half\n" + text)
    out = tmp_path / "out"
    assert main([task, "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    tau, H = np.loadtxt(out / "frequency.csv", delimiter=",",
                        skiprows=1)[0, :2]
    fourier = np.loadtxt(out / "fourier.csv", delimiter=",", skiprows=1)
    off = fourier[(fourier[:, 0] == tau) & ~np.isin(
        fourier[:, 1], summary["multiplicity_group"]), 2]
    assert summary["blowup_off_group"] == pytest.approx(
        math.sqrt(np.sum(off ** 2) / H), rel=1e-12)
    # its log-slope between the two smallest analyzer radii
    tau2, H2 = np.loadtxt(out / "frequency.csv", delimiter=",",
                          skiprows=1)[1, :2]
    off2 = fourier[(fourier[:, 0] == tau2) & ~np.isin(
        fourier[:, 1], summary["multiplicity_group"]), 2]
    assert summary["blowup_rate"] == pytest.approx(math.log(
        math.sqrt(np.sum(off2 ** 2) / H2) / summary["blowup_off_group"])
        / math.log(tau2 / tau), rel=1e-9)
    if task == "frequency":
        assert tau == 1e-2
        assert summary["blowup_off_group"] <= 0.05


def test_two_mode_run_fits_its_order_gap_and_reports_the_blowup_rate(
        tmp_path):
    # modes 1 and 4: N - gamma_1 decays as r^(2 (gamma_4 - gamma_1)) and the
    # blow-up's off-group projection as r^(gamma_4 - gamma_1)
    from conefrac.cli import _eigen_system
    path = _write(tmp_path, "[params]\ns = 0.5\nlambda = 0.1\n"
                  "[cone]\npreset = half\n"
                  "[mesh]\nnt = 24\nntheta = 48\ngrading = 2.0\n"
                  "[task]\nname = frequency\nk = 8\nmodes = 1:1.0, 4:0.2\n")
    out = tmp_path / "out"
    assert main(["frequency", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    gamma = _eigen_system(parse_config(path.read_text()), 8).gamma
    delta = 2.0 * (gamma[3] - gamma[0])
    assert summary["fit"]["exponent"] == pytest.approx(delta, rel=1e-14)
    assert not summary["fit"]["fallback"]
    assert abs(summary["gamma_hat"] - gamma[0]) <= 1e-10
    assert abs(summary["blowup_rate"] - delta / 2.0) <= 1e-6
    # one stored mode: no group above j0's to take the exponent from, and no
    # off-group projection to take a rate of
    path = _write(tmp_path, path.read_text().replace(
        "k = 8\nmodes = 1:1.0, 4:0.2", "k = 1\nmodes = 1:1.0"), name="one.ini")
    assert main(["frequency", "--config", str(path), "--out",
                 str(tmp_path / "one")]) == 0
    summary = json.loads((tmp_path / "one" / "summary.json").read_text())
    assert summary["fit"] == {"exponent": None, "coefficient": None,
                              "fallback": True}
    assert summary["gamma_hat"] == np.loadtxt(
        tmp_path / "one" / "frequency.csv", delimiter=",", skiprows=1)[0, 3]
    assert (summary["blowup_off_group"], summary["blowup_rate"]) == (0.0, None)


def test_solve_ext_without_h_fits_the_order_gap_of_its_modes(tmp_path):
    # without h the remainder N - gamma_j0 decays as r^(2 (gamma_g -
    # gamma_j0)), g the group above j0's with the largest leading term
    # (gamma_g - gamma_j0) sum_g phi_j^2 at the smallest radius, read off the
    # run's own eigen system and fourier.csv; a free-exponent scan over
    # [0.05, 8] ended at 0.05 on this config, 2.44e-3 off gamma_eigen
    from conefrac.cli import _eigen_system
    path = _write(tmp_path, "[params]\ns = 0.5\nlambda = 0.1\n"
                  "[cone]\npreset = half\n"
                  "[mesh]\nnt = 24\nntheta = 48\ngrading = 2.0\nnr = 16\n"
                  "rmin = 1e-3\n"
                  "[task]\nname = solve-ext\nlid_mode = 1\nk = 8\n")
    out = tmp_path / "out"
    assert main(["solve-ext", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    es = _eigen_system(parse_config(path.read_text()), 8)
    fourier = np.loadtxt(out / "fourier.csv", delimiter=",", skiprows=1)
    phi = fourier[fourier[:, 0] == fourier[0, 0], 2]
    j0 = summary["j0"] - 1
    gaps = {g: es.gamma[es.group == g][0] - es.gamma[j0]
            for g in range(es.group[j0] + 1, es.group[-1] + 1)}
    g = max(gaps, key=lambda g: gaps[g] * np.sum(phi[es.group == g] ** 2))
    fit = summary["fit"]
    assert fit["exponent"] == pytest.approx(2.0 * gaps[g], rel=1e-14)
    assert 0.05 < fit["exponent"] < 8.0 and not fit["fallback"]
    assert abs(summary["gamma_hat"] - summary["gamma_eigen"]) <= 2e-4


def test_cli_scan_csv_matches_svg_data(tmp_path):
    text = """
[params]
s = 0.5

[mesh]
nt = 16
ntheta = 32

[task]
name = scan
arcs = pi, 2*pi
"""
    cfg_path = _write(tmp_path, text)
    code = main(["scan", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "scan.csv").read_text().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert vals[0] > vals[1]
    assert (tmp_path / "out" / "scan_lambda.svg").exists()


def test_cli_solve_ext_pipeline(tmp_path):
    text = """
[params]
s = 0.5
lambda = 0.1

[cone]
preset = half

[mesh]
nt = 12
ntheta = 24
nr = 10
rmin = 1e-2

[task]
name = solve-ext
h = 0.05
lid_mode = 1
k = 6
"""
    cfg_path = _write(tmp_path, text)
    code = main(["solve-ext", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = tmp_path / "out"
    assert (out / "field.bin").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "field.bin" in manifest["outputs"]
    assert (manifest["mesh"]["nr"], manifest["mesh"]["rmin"]) == (10, 1e-2)
    assert "lid_choice" in manifest["notes"]
    # solver statistics, byte-identical on a rerun
    assert 0 < manifest["notes"]["cg_iters"] < 50
    assert 0.0 < manifest["notes"]["cg_residual"] <= 1e-10
    assert 0.0 < manifest["notes"]["lambda_margin"] < 1.0
    assert manifest["notes"]["hardy_floor"] \
        < manifest["notes"]["hardy_lambda"]
    assert manifest["notes"]["eigen_path"] == "lanczos"
    assert manifest["notes"]["eigen_shift"] < -0.25
    assert 0.0 <= manifest["notes"]["lanczos_residual"] \
        <= np.finfo(float).eps
    assert main(["solve-ext", "--config", str(cfg_path),
                 "--out", str(tmp_path / "again")]) == 0
    for name in ("manifest.json", "field.bin", "summary.json"):
        assert (out / name).read_bytes() \
            == (tmp_path / "again" / name).read_bytes()


def test_solve_ext_beta_only_for_the_dominant_group(tmp_path):
    # modes 3 and 6 lie outside the dominant group and their Upsilon tails
    # decay too slowly for the amplitude integrals; the summary reports the
    # group's beta only, so the run must not fail on the other modes
    path = _write(tmp_path, "[params]\ns = 0.5\nlambda = 0.1\n"
                  "[cone]\npreset = half\n"
                  "[mesh]\nnt = 12\nntheta = 24\nnr = 8\n"
                  "[task]\nname = solve-ext\nh = 0.05\nlid_mode = 2\n"
                  "k = 6\n")
    out = tmp_path / "out"
    assert main(["solve-ext", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["j0"] == 2
    assert sorted(map(int, summary["beta"])) == summary["multiplicity_group"]
    assert all(math.isfinite(b) for b in summary["beta"].values())


def test_solve_ext_divergent_beta_tail_names_mode_and_radius(tmp_path,
                                                             capsys):
    # at s = 0.02 the dominant mode's own Upsilon tail makes the amplitude
    # integrals diverge: a stated numerical failure that names mode and R
    path = _write(tmp_path, "[params]\ns = 0.02\nlambda = 0\n"
                  "[cone]\npreset = full\n"
                  "[mesh]\nnt = 6\nntheta = 12\nnr = 8\n"
                  "[task]\nname = solve-ext\nh = 0.5\nk = 4\n")
    code = main(["solve-ext", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "beta of mode 1 at R = 0.3: Upsilon tail decays too slowly" in err


@pytest.mark.parametrize("polar, cartesian", [
    ("0.1*r", "0.1*(x1^2+x2^2)^0.5"),
    ("0.1*cos(theta)", "0.1*x1/(x1^2+x2^2)^0.5"),
    ("0.1*r*abs(sin(theta))", "0.1*abs(x2)"),
], ids=["r", "theta", "abs"])
def test_solve_ext_h_in_polar_variables(tmp_path, polar, cartesian):
    # h may use r and theta on the equator plane; each spelling solves the
    # same problem as its twin in x1, x2.  A bounded h need not be smooth:
    # the Pohozaev check reads h and never its gradient
    from conefrac.extension import load_field
    results = []
    for name, h in (("polar", polar), ("cartesian", cartesian)):
        path = _write(tmp_path, "[params]\ns = 0.5\nlambda = 0.1\n"
                      "[mesh]\nnt = 12\nntheta = 24\nnr = 8\n"
                      f"[task]\nname = solve-ext\nh = {h}\nk = 6\n",
                      name=f"{name}.ini")
        out = tmp_path / name
        assert main(["solve-ext", "--config", str(path),
                     "--out", str(out)]) == 0
        poho = json.loads((out / "summary.json").read_text())["pohozaev"]
        assert all(rep["satisfied"] for rep in poho)
        results.append((
            load_field(out / "field.bin").values,
            *np.loadtxt(out / "frequency.csv", delimiter=",", skiprows=1).T,
            np.array([[rep["lhs"], rep["rhs"]] for rep in poho])))
    # each array, and each frequency.csv column, to 1e-13 of its largest
    # entry: entries beside the Dirichlet half of the equator are small
    for got, twin in zip(*results):
        np.testing.assert_allclose(got, twin, rtol=0,
                                   atol=1e-13 * np.abs(twin).max())


def test_run_task_mesh_level_scaling(tmp_path):
    cfg = parse_config(SMALL_EIG)
    from conefrac.cli import _scaled
    cfg = _scaled(cfg, 1)
    assert cfg.nt == 32 and cfg.ntheta == 64


def test_cli_eig_half_preset_anchor(tmp_path):
    # half preset at s = 0.5, lam = 0: first two eigenvalues land within 1%
    # of 0.75 and 3.75 on a resolved mesh
    text = """
[params]
s = 0.5

[cone]
preset = half

[mesh]
nt = 128
ntheta = 256

[task]
name = eig
k = 2
"""
    cfg_path = _write(tmp_path, text)
    code = main(["eig", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "eig.csv").read_text().splitlines()[1:3]
    mu = [float(r.split(",")[1]) for r in rows]
    assert mu[0] == pytest.approx(0.75, rel=0.01)
    assert mu[1] == pytest.approx(3.75, rel=0.01)


@pytest.mark.parametrize("task", ["solve-ext", "frequency"])
def test_runs_apply_each_form_to_each_block_once(tmp_path, monkeypatch,
                                                 task):
    """The producers keep their images: M and K - lam kappa B reach the
    solved field's shell block once (the residual's pass), its Grams come
    from that pass and not from ``table_grams``, and no block of the
    eigenvectors goes through a form (their mass images are the solve's)."""
    import conefrac.cli as cli
    import conefrac.extension as ext
    from conefrac.sphercap import _KronForm
    blocks, tables, systems = [], [], []
    images, table_grams, solve_eigs = (_KronForm.images, ext.table_grams,
                                       cli.solve_eigs)

    def spy_images(form, X, *others):
        blocks.extend((f.coef, np.array(X)) for f in (form, *others))
        return images(form, X, *others)

    def spy_grams(mesh, table):
        tables.append(table.shape)
        return table_grams(mesh, table)

    def spy_eigs(*args, **kwargs):
        systems.append(solve_eigs(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(_KronForm, "images", spy_images)
    monkeypatch.setattr(ext, "table_grams", spy_grams)
    monkeypatch.setattr(cli, "solve_eigs", spy_eigs)
    cfg = parse_config(SMALL_CONFIGS[task])
    run_task(cfg, tmp_path / "out")
    (es,) = systems
    for _, X in blocks:
        assert len(X) != es.k and not np.array_equal(X, es.vectors)
    if task == "solve-ext":
        shell_block = (cfg.nr + 1, es.mesh.n_nodes)
        lk = cfg.params.lam * cfg.params.kappa
        coefs = [c for c, X in blocks if X.shape == shell_block]
        assert sorted(coefs) == [(0.0, 1.0, -lk), (1.0, 0.0, 0.0)]
        assert tables == []
    else:
        assert tables == [(2, es.mesh.n_nodes)]   # the manufactured field
