"""The benchmark's own tests, on small meshes:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import EXACT_COUNTS, Tracer, layer_metrics, unit_of  # noqa: E402,E501


def _traced_sample(workload: str, tmp: Path) -> dict:
    tmp.mkdir()
    config = tmp / f"{workload}.ini"
    config.write_text(workloads.config_text(workload, 3, small=True),
                      encoding="utf-8")
    out, result = tmp / "out", tmp / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(config),
                    str(out), str(result), "--trace"],
                   env=env, check=True, timeout=300)
    rec = json.loads(result.read_text(encoding="utf-8"))
    rec["values"] = checks.headline(workload, out)
    rec["digest"] = checks.digest(out)
    return rec


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced_sample(workload, tmp_path / "a")
    second = _traced_sample(workload, tmp_path / "b")
    counts = {k: first["layers"][k] for k in EXACT_COUNTS}
    assert counts == {k: second["layers"][k] for k in EXACT_COUNTS}
    assert first["digest"] == second["digest"]
    assert first["values"] == second["values"]
    assert 0.0 < first["wrapper_cost_s"] < 1e-4

    if workload == "ext-solve":
        # guard, task, solve_extension's re-assembly, the analyzer's forms
        assert counts["sphercap.assemble_calls"] == 4
        assert counts["extension.splu_calls"] == 8   # one per free shell
        assert counts["extension.cg_iters"] > 0
        assert counts["almgren.sphere_values_calls"] > 0
        assert counts["expressions.eval_calls"] > 0
    else:
        assert counts["spectral.hardy_recompute_calls"] == 1
        assert counts["hardy.calls"] == 2               # guard + recompute
        assert counts["extension.cg_iters"] == 0
        assert counts["almgren.sphere_values_calls"] > 0


def test_seed_jitters_inputs_not_work():
    for workload in workloads.WORKLOADS:
        texts = {workloads.config_text(workload, v)
                 for v in range(workloads.VARIANTS)}
        assert len(texts) == workloads.VARIANTS
        mesh = {t.split("[task]")[0].split("[mesh]")[1] for t in texts}
        assert len(mesh) == 1
        assert workloads.config_text(workload, workloads.variant_of(37)) \
            == workloads.config_text(workload, 37 % workloads.VARIANTS)


def test_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = list(layer_metrics(Tracer(), 0.0))
    assert [m["name"] for m in bench["per_layer"]] == traced
    assert all(m["unit"] == unit_of(m["name"]) for m in bench["per_layer"])
    assert set(EXACT_COUNTS) <= set(traced)
    assert [m["name"] for m in bench["workloads"]] == list(
        workloads.WORKLOADS)


def test_every_variant_has_a_reference():
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        assert sorted(map(int, ref[workload])) == list(
            range(workloads.VARIANTS))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "eig-freq", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
