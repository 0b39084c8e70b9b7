"""Tests of the benchmark itself (kept out of the library's test run).

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import densecap  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, busy_seconds, self_times  # noqa: E402

TINY = {"propose": {"videos": 8}, "evaluate": {"videos": 8},
        "concepts": {"videos": 8, "bags": 40, "epochs": 2}}


def tiny_run(name, tmp_path, traced=False):
    return run.run_workload(name, seed=7, seconds=0.01, traced=traced,
                            sizes=TINY[name], workroot=tmp_path)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_is_correct_and_accounted(name, tmp_path):
    plain = tiny_run(name, tmp_path)
    assert plain["attempted"] > 0 and plain["failed"] == 0, plain["failures"]
    assert set(plain["end_to_end"]) == {key for key, _ in run.END_TO_END}
    assert all(v > 0 for v in plain["end_to_end"].values())

    traced = tiny_run(name, tmp_path, traced=True)
    assert traced["failed"] == 0, traced["failures"]
    layer = traced["per_layer"]
    assert set(layer) == {key for key, _ in run.PER_LAYER}
    accounted = (sum(layer[f"{x}.busy_s"] for x in run.PASS_LAYERS)
                 + layer["bench.unattributed_s"])
    assert accounted == pytest.approx(layer["bench.traced_run_s"], rel=0.02)
    for spans in (r.tracer.spans for r in traced["traced_passes"]):
        assert {s.name.split(".")[0] for s in spans} <= {"bench", *run.PASS_LAYERS}
        assert spans[0].name == "bench.pass" and spans[0].parent is None


def perturbed(fn, change):
    def wrapper(*args, **kwargs):
        return change(fn(*args, **kwargs))
    return wrapper


@pytest.mark.parametrize("name, module, function, change, layer", [
    ("propose", densecap.intervals, "precision_recall",
     lambda t: replace(t, precision={k: v * 0.99 for k, v in t.precision.items()}),
     "intervals"),
    ("propose", densecap.rerank, "augment", lambda pairs: pairs[:-1], "rerank"),
    ("evaluate", densecap.metrics, "dense_eval",
     lambda r: replace(r, matched={k: v - 1 for k, v in r.matched.items()}), "metrics"),
    ("evaluate", densecap.metrics, "bleu4", lambda v: v * 0.999, "metrics"),
    ("concepts", densecap.concepts, "predict_proposal", lambda p: p * 0.999,
     "concepts"),
    ("concepts", densecap.contexts, "pool_features", lambda v: v + 1e-6, "contexts"),
])
def test_planted_wrong_output_counts_as_failed(name, module, function, change, layer,
                                               tmp_path, monkeypatch):
    monkeypatch.setattr(module, function, perturbed(getattr(module, function), change))
    result = tiny_run(name, tmp_path)
    assert result["failed"] > 0
    assert any(layer in layers for _, _, layers in result["failures"])


def test_reference_mismatch_fails_the_producing_operation():
    res = workloads.PassResult()
    reference = json.loads(workloads.REFERENCE_FILE.read_text())["propose"]
    res.summary = {key: ("op", "fusion", value) for key, value in reference.items()}
    workloads.check_reference(res, "propose", 7, workloads.SIZES["propose"])
    assert res.failures == {}
    res.summary["windows"] = ("v_0007_00000", "fusion", reference["windows"] + 1)
    workloads.check_reference(res, "propose", 7, workloads.SIZES["propose"])
    assert list(res.failures) == ["v_0007_00000"]


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        Span(0, "bench.pass", 0.0, 10.0, None, None),
        Span(1, "bench.video", 1.0, 6.0, 0, "v"),
        Span(2, "fusion.fuse_select", 1.5, 3.0, 1, "v"),
        Span(3, "rerank.augment", 2.5, 4.0, 1, "v"),   # overlaps its sibling
        Span(4, "core.save_predictions", 7.0, 8.0, 0, None),
        Span(5, "core.save_predictions", 9.5, 11.0, 0, None),  # ends after its parent
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10 - 5 - 1 - 0.5, 1: 5 - 2.5, 2: 1.5, 3: 1.5,
                                 4: 1.0, 5: 1.5})
    busy = busy_seconds(spans)
    assert busy["bench.unattributed"] == pytest.approx(3.5 + 2.5)
    assert busy["core"] == busy["core.save_predictions"] == pytest.approx(2.5)
    assert busy["fusion"] == pytest.approx(1.5)


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "propose", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
