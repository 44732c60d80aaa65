"""The benchmark's own tests: tiny-size smoke runs, golden sensitivity,
probe liveness, the compare view and the refusal to run without lgse.

    python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = (metrics.TRAIN, metrics.ENHANCE, metrics.LENGEN)


def run(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def tiny(workload, trace=0, *extra):
    return run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny", *extra)


def test_benchmark_json_names_every_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_units()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_emits_end_to_end_and_detail(workload, tmp_path):
    out = tmp_path / "result.json"
    proc, result = tiny(workload, 0, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, *_ in metrics.END_TO_END]
    for name, value in result["metrics"].items():
        assert math.isfinite(value["value"]) and value["value"] > 0, name
    for name, _ in metrics.DETAIL[workload] + (("ops_failed_frac", ""),):
        assert f"  {name} " in proc.stdout
    saved = json.loads(out.read_text())["workloads"][workload]
    assert set(saved["end_to_end"]) == set(result["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_emits_live_per_layer_metrics(workload):
    proc, result = tiny(workload, 1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == set(metrics.per_layer_units())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for layer, needed in metrics.LAYER_SELF:
        if workload in needed:
            assert values[f"{layer}.self_ms"] > 0, layer


def _perturb_train(doc):
    key = next(iter(doc["losses"]))
    doc["losses"][key][0] *= 1.0 + 1e-6


def _perturb_enhance(doc):
    doc["cases"]["ref.full.long"]["samples"][100] += 1e-6


def _perturb_lengen(doc):
    row = next(r for r in doc["rows"] if r["kind"] != "noisy")
    row["seg_snr_out"] = repr(float(row["seg_snr_out"]) + 1e-3)


@pytest.mark.parametrize("workload,perturb", [
    (metrics.TRAIN, _perturb_train), (metrics.ENHANCE, _perturb_enhance),
    (metrics.LENGEN, _perturb_lengen)])
def test_perturbed_golden_counts_as_failed(workload, perturb, tmp_path):
    goldens = tmp_path / "goldens"
    shutil.copytree(BENCH / "goldens", goldens)
    path = goldens / f"{workload}.tiny.json"
    doc = json.loads(path.read_text())
    perturb(doc)
    path.write_text(json.dumps(doc))
    proc, result = tiny(workload, 0, "--goldens", str(goldens))
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0
    line = next(ln for ln in proc.stdout.splitlines() if ln.strip().startswith("ops_failed_frac"))
    assert float(line.split()[1]) > 0


def test_tracer_patches_every_lookup_and_restores():
    import lgse
    from lgse import model, numerics
    from tracer import LAYERS, Tracer

    original = numerics.matmul
    tracer = Tracer()
    tracer.install({layer: getattr(lgse, layer) for layer in LAYERS})
    try:
        assert model.matmul is numerics.matmul is not original
        m = model.EnhancementModel(model.ModelConfig(
            n_layers=1, n_heads=2, d_model=8, d_ff=16, k_bins=9, pe_kind="learnlin"))
        m.predict(__import__("numpy").ones((5, 9)))
    finally:
        tracer.uninstall()
    assert model.matmul is original and numerics.matmul is original
    summary = tracer.summary()
    assert summary.calls_of(["model.EnhancementModel.mhsa"]) == 1
    assert summary.calls_of(["numerics.matmul"]) > 0
    values, dead = metrics.per_layer(summary, 1, 1.0, metrics.TRAIN, tracer.wrapped, {})
    assert "numerics.backward_ms: numerics.backward never called" in dead
    assert values["model.forward_calls"] == 1


def test_compare_prints_ratio_with_base(tmp_path, capsys):
    base, new = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps({"workloads": {"train-desk": {"end_to_end": {"round_s": 2.0}}}}))
    new.write_text(json.dumps({"workloads": {"train-desk": {"end_to_end": {"round_s": 1.0}},
                                             "lengen-mini": {"detail": {"x": 1.0}}}}))
    assert compare.main([str(base), str(new)]) == 0
    text = capsys.readouterr().out
    assert "0.500x of 2" in text and "== lengen-mini" in text and "missing" in text


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run("--workload", metrics.TRAIN, "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0 and result is None
