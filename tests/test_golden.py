"""Golden outputs: one fixed script of `dispatch` calls over a
`gen-synthetic --videos 40 --seed 7` corpus, replayed against
`tests/golden/manifest.json`.

For each call the manifest holds the exit code and the SHA-256 of its
stdout, its stderr and each file it writes, with the run's directory
replaced by "{tmp}" in stdout and stderr. A change that alters any output
byte of any subcommand fails here. After checking that every changed digest
is intended, regenerate the manifest with

    PYTHONPATH=src python tests/test_golden.py

which first prints the argv of each call whose entry differs from the
manifest's.

`concepts train`, `concepts predict` and `rerank-captions --concept-model`
go through BLAS products, so their digests are compared only under the BLAS
the manifest records.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from densecap.cli import dispatch
from densecap.core import SegmentGrid, VideoMeta, save_features

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

GT1, GT2, META = "{tmp}/corpus/gt_set1.json", "{tmp}/corpus/gt_set2.json", "{tmp}/corpus/meta.json"
SCRIPT = [
    ["gen-synthetic", "--videos", "40", "--seed", "7", "--out-dir", "{tmp}/corpus"],
    ["eval-proposals", "--pred", "{tmp}/pred.json", "--gt", GT1, "--gt", GT2,
     "--out", "{tmp}/pr.json"],
    ["eval-captions", "--pred", "{tmp}/pred.json", "--gt", GT1, "--gt", GT2,
     "--tiou", "0.1,0.5,0.9", "--out", "{tmp}/captions.json"],
    ["eval-diversity", "--pred", "{tmp}/pred.json", "--pred2", "{tmp}/pred2.json",
     "--out", "{tmp}/diversity.json"],
    ["fuse", "--meta", META, "--scores", "{tmp}/scores_heuristic.json", "--k", "2",
     "--cap", "40", "--out", "{tmp}/fused_heuristic.json"],
    ["fuse", "--meta", META, "--scores", "{tmp}/scores_tables.json",
     "--out", "{tmp}/fused_tables.json"],
    ["eval-proposals", "--pred", "{tmp}/fused_heuristic.json", "--gt", GT1,
     "--tiou", "0.3,0.7", "--out", "{tmp}/pr_fused.json"],
    ["rerank-proposals", "--pred", "{tmp}/pred.json", "--meta", META,
     "--weights", "1,0.5,0.25,2", "--top", "3", "--out", "{tmp}/reranked.json"],
    ["augment", "--pred", "{tmp}/fused_heuristic.json", "--gt", GT2,
     "--out", "{tmp}/augmented.json"],
    ["concepts", "train", "--features-dir", "{tmp}/features", "--labels", "{tmp}/labels.json",
     "--epochs", "3", "--batch", "16", "--k", "4", "--seed", "3", "--out", "{tmp}/model.bin"],
    ["concepts", "predict", "--model", "{tmp}/model.bin",
     "--features", "{tmp}/features/v_0007_00000.seg", "--timestamps", "0,10;12.5,30",
     "--top", "3", "--out", "{tmp}/concepts.json"],
    ["rerank-captions", "--pred-multi", "{tmp}/pred.json,{tmp}/pred2.json",
     "--concept-model", "{tmp}/model.bin", "--features-dir", "{tmp}/features",
     "--top-concepts", "3", "--out", "{tmp}/captions_model.json"],
    ["rerank-captions", "--pred-multi", "{tmp}/pred.json,{tmp}/pred2.json",
     "--alpha", "1", "--beta", "0", "--out", "{tmp}/captions_plain.json"],
    ["contexts", "--events", GT1, "--meta", META, "--features-dir", "{tmp}/features",
     "--out", "{tmp}/contexts.json"],
    ["contexts", "--events", GT2, "--direction", "uni", "--pool", "max",
     "--window-ratio", "0.25", "--out", "{tmp}/contexts_uni.json"],
    ["eval-proposals", "--pred", "{tmp}/missing.json", "--gt", GT1],  # exit 2
    ["rerank-proposals", "--pred", "{tmp}/pred.json", "--meta", META,
     "--weights", "1,1", "--out", "{tmp}/never.json"],  # exit 1
]
VOCABULARY = ["man", "woman", "dog", "ball", "cake", "runs", "jumps", "sings", "moon"]


def blas() -> str:
    """The BLAS numpy was built with, as `perfbench` reports it."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def uses_blas(argv) -> bool:
    return argv[0] == "concepts" or "--concept-model" in argv


def write_inputs(root: Path) -> None:
    """Predictions, scores, labels and features for the script, from the
    generated groundtruth.

    `pred.json` mixes set-2 events with and without caption log-probabilities,
    one decoy per video, an empty list, absent videos and one unknown video;
    `pred2.json` holds the same proposals with set-1 captions. Features are
    8-d, binary for even-numbered videos and JSON for odd ones.
    """
    gt1, gt2 = (json.loads((root / "corpus" / name).read_text())
                for name in ("gt_set1.json", "gt_set2.json"))
    pred, pred2, labels = {}, {}, {}
    rng = np.random.default_rng(11)
    (root / "features").mkdir()
    for n, vid in enumerate(sorted(gt1)):
        first, second, duration = gt1[vid], gt2[vid], gt1[vid]["duration"]
        labels[vid] = [{"timestamp": ts, "concepts": sent.split()}
                       for ts, sent in zip(first["timestamps"], first["sentences"])]
        meta = VideoMeta(vid, duration)
        save_features(SegmentGrid(meta, rng.standard_normal((meta.segment_count, 8))),
                      root / "features" / f"{vid}.{'json' if n % 2 else 'seg'}",
                      binary=not n % 2)
        if n % 11 == 5:
            continue
        rows = []
        if n % 7 != 3:
            for i, (ts, sent) in enumerate(zip(second["timestamps"], second["sentences"])):
                row = {"timestamp": ts, "sentence": sent, "proposal_score": 0.9 - 0.1 * i}
                if i % 3 != 2:
                    row["caption_logprob"] = -1.5 - i
                rows.append(row)
            rows.append({"timestamp": [0.0, duration / 10], "sentence": "a blur",
                         "proposal_score": 0.05, "caption_logprob": -9.0})
        pred[vid] = rows
        pred2[vid] = [{**row, "sentence": sent}
                      for row, sent in zip(rows, first["sentences"] + ["the man runs"])]
    pred["v_unknown"] = [{"timestamp": [0, 1], "sentence": "nobody is here"}]
    vids = sorted(gt1)
    files = {
        "pred.json": {"version": "VERSION 1.0", "results": pred},
        "pred2.json": {"version": "VERSION 1.0", "results": pred2},
        "labels.json": {"vocabulary": VOCABULARY, "examples": labels},
        "scores_heuristic.json": {"mode": "heuristic",
                                  "attractors": {v: gt1[v]["timestamps"] for v in vids}},
        "scores_tables.json": {"mode": "tables", "videos": {v: {
            "candidates": gt2[v]["timestamps"] + [[0, gt2[v]["duration"]]],
            "f_s": [0.5 + 0.1 * i for i in range(len(gt2[v]["timestamps"]))] + [0.2],
            "f_e_steps": [{"probs": {"0": 0.4, "1": 0.3}, "eos": 0.1},
                          {"probs": {"1": 0.2, "2": 0.5}, "eos": 0.3}],
        } for v in vids[:5]}},
    }
    for name, doc in files.items():
        (root / name).write_text(json.dumps(doc))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(root: Path) -> list:
    """Run the script in `root`; one manifest entry per call."""
    entries = []
    for k, template in enumerate(SCRIPT):
        if k == 1:
            write_inputs(root)
        argv = [a.replace("{tmp}", str(root)) for a in template]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
        files = {}
        for flag, path in zip(argv, argv[1:]):
            path = Path(path)
            if flag == "--out" and path.exists():
                files[path.relative_to(root).as_posix()] = _sha256(path.read_bytes())
            if flag == "--out-dir":
                files.update((p.relative_to(root).as_posix(), _sha256(p.read_bytes()))
                             for p in sorted(path.iterdir()))
        entries.append({
            "argv": template, "exit": code, "files": files,
            "stdout": _sha256(out.getvalue().replace(str(root), "{tmp}").encode()),
            "stderr": _sha256(err.getvalue().replace(str(root), "{tmp}").encode()),
        })
    return entries


def test_outputs_match_manifest(tmp_path):
    want = json.loads(MANIFEST.read_text())
    got = replay(tmp_path)
    assert [e["argv"] for e in got] == [e["argv"] for e in want["calls"]]
    same_blas = want["blas"] == blas()
    for g, w in zip(got, want["calls"]):
        if same_blas or not uses_blas(w["argv"]):
            assert g == w, f"outputs of {' '.join(w['argv'])} changed"


def test_script_covers_every_subcommand():
    subcommands = {tuple(argv[:2]) if argv[0] == "concepts" else argv[0] for argv in SCRIPT}
    assert len(subcommands) == 11
    assert {e["exit"] for e in json.loads(MANIFEST.read_text())["calls"]} == {0, 1, 2}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        calls = replay(Path(tmp))
    old = json.loads(MANIFEST.read_text())["calls"] if MANIFEST.exists() else []
    for call in calls:
        if call not in old:
            print(f"changed: {' '.join(call['argv'])}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"blas": blas(), "calls": calls}, indent=1) + "\n")
    print(f"wrote {len(calls)} calls to {MANIFEST}")
