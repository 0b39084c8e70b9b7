import argparse
import ast
import inspect
import json
import math
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from densecap import (FusionConfig, PredictionEntry, RerankWeights, SegmentGrid, TrainConfig,
                      VideoMeta, dense_eval, gen_synthetic, load_features,
                      load_ground_truth, load_predictions, save_features, save_predictions)
from densecap import cli
from densecap.cli import dispatch
from densecap.concepts import (ConceptVocabulary, LinearConceptModel, load_model,
                               predict_report, save_model)
from densecap.contexts import corpus_bundles
from densecap.metrics import DENSE_EVAL_THRESHOLDS
from densecap.rerank import CaptionRerankParams, merge_captions
from densecap.synthetic import synthetic_grid


@pytest.fixture
def synthetic_dir(tmp_path):
    out = tmp_path / "corpus"
    assert dispatch(["gen-synthetic", "--videos", "6", "--seed", "7",
                     "--out-dir", str(out)]) == 0
    return out


def identity_pred_file(synthetic_dir, tmp_path, with_scores=True):
    corpus = load_ground_truth(synthetic_dir / "gt_set1.json")
    preds = {}
    for vid, rec in corpus.videos.items():
        ann = rec.annotation_sets[0]
        rows = []
        for iv, sent in zip(ann.intervals, ann.sentences):
            rows.append(PredictionEntry(
                iv, sentence=sent,
                proposal_score=0.9 if with_scores else None,
                caption_logprob=-2.5 if with_scores else None))
        preds[vid] = rows
    path = tmp_path / "pred.json"
    save_predictions(preds, path)
    return path


FUSE = ["fuse", "--meta", "{meta.json}", "--scores", "{scores.json}", "--out", "{out.json}"]
CONTEXTS = ["contexts", "--events", "{gt.json}", "--meta", "{meta.json}",
            "--out", "{out.json}"]
DEFAULT_FILES = {
    "meta.json": {"v1": {"duration": 30}},
    "scores.json": {"mode": "heuristic", "attractors": {"v1": [[0, 10]]}},
    "gt.json": {"v1": {"duration": 30, "timestamps": [[0, 10]], "sentences": ["a man runs"]}},
}


def with_files(tmp_path, argv, files):
    """`argv` with each "{name}" replaced by the path of a file holding
    files[name] (a string as it is, anything else as JSON)."""
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]


class TestDispatchBasics:
    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_k_exits_1(self, tmp_path, capsys):
        assert dispatch(["fuse", "--meta", "m", "--scores", "s", "--out", "o",
                         "--k", "0"]) == 1
        assert "k must be >= 1" in capsys.readouterr().err

    # each former range-checking flag set to 0, with the library field that
    # rejects it, and each bad --tiou and --window-ratio with the library's
    # message; every input path does not exist, so each check runs before any I/O
    @pytest.mark.parametrize("argv, field", [
        (["gen-synthetic", "--videos", "0"], "n_videos"),
        (["gen-synthetic", "--videos", "1", "--events-min", "0"], "events_range[0]"),
        (["gen-synthetic", "--videos", "1", "--events-max", "0"], "events_range[1]"),
        (["fuse", "--meta", "{nope}", "--scores", "{nope}", "--k", "0"], "k"),
        (["fuse", "--meta", "{nope}", "--scores", "{nope}", "--cap", "0"], "candidate_cap"),
        (["fuse", "--meta", "{nope}", "--scores", "{nope}", "--max-steps", "0"], "max_steps"),
        (["rerank-proposals", "--pred", "{nope}", "--meta", "{nope}", "--top", "0"], "top_n"),
        (["rerank-captions", "--pred-multi", "{nope}", "--top-concepts", "0"], "top_concepts"),
        (["concepts", "train", "--features-dir", "{nope}", "--labels", "{nope}",
          "--epochs", "0"], "epochs"),
        (["concepts", "train", "--features-dir", "{nope}", "--labels", "{nope}",
          "--batch", "0"], "batch_size"),
        (["concepts", "train", "--features-dir", "{nope}", "--labels", "{nope}",
          "--k", "0"], "k_segments"),
        (["concepts", "predict", "--model", "{nope}", "--features", "{nope}",
          "--timestamps", "0,8", "--top", "0"], "top"),
        *[([command, "--pred", "{nope}", "--gt", "{nope}", "--tiou", tiou], message)
          for command in ("eval-proposals", "eval-captions")
          for tiou, message in [("2", "tIoU threshold 2.0 is not in [0, 1]"),
                                ("nan", "tIoU threshold nan is not in [0, 1]"),
                                ("0.5,0.5", "repeated tIoU threshold in [0.5, 0.5]")]],
        *[(["contexts", "--events", "{nope}", "--window-ratio", ratio],
           f"window_ratio must be finite and > 0, not {float(ratio)}")
          for ratio in ("0", "-1", "nan", "inf")],
        (["gen-synthetic", "--videos", "1", "--events-min", "5", "--events-max", "2"],
         "events_range must satisfy lo <= hi"),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
    def test_count_below_one_exits_1(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out"
        argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
        argv += ["--out-dir" if argv[0] == "gen-synthetic" else "--out", str(out)]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        message = field if " " in field else f"{field} must be >= 1 and an int, got 0"
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("spans", ["1,2,3", "1", "0,8;4"])
    def test_span_without_an_end_exits_1(self, tmp_path, capsys, spans):
        with pytest.raises(SystemExit) as exc:
            dispatch(["concepts", "predict", "--model", str(tmp_path / "nope"),
                      "--features", str(tmp_path / "nope"), "--timestamps", spans])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --timestamps: each span needs a start and an end\n")

    # argparse refuses each span that is not an interval, with TimeInterval's
    # message, before any file is opened (the paths do not exist)
    @pytest.mark.parametrize("spans, message", [
        ("8,0", "inverted interval [8.0, 0.0]"), ("-1,2", "negative start -1.0"),
        ("2,2", "inverted interval [2.0, 2.0]"), ("0,nan", "inverted interval [0.0, nan]"),
        ("0,inf", "non-finite end inf"), ("0,8;0,1e400", "non-finite end inf"),
        ("0,a", "not a list of numbers: '0,a'"),
    ])
    def test_bad_span_exits_1_before_any_file_opens(self, tmp_path, capsys, spans, message):
        with pytest.raises(SystemExit) as exc:
            dispatch(["concepts", "predict", "--model", str(tmp_path / "nope"),
                      "--features", str(tmp_path / "nope"), f"--timestamps={spans}"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(f"error: argument --timestamps: {message}\n")

    @pytest.mark.parametrize("command", ["eval-proposals", "eval-captions"])
    def test_tiou_that_is_not_numbers_exits_1(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            dispatch([command, "--pred", str(tmp_path / "nope"), "--gt", str(tmp_path / "nope"),
                      "--tiou", "a,b"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --tiou: not a list of numbers: 'a,b'\n")

    def test_missing_file_exits_2(self, tmp_path):
        assert dispatch(["eval-proposals", "--pred", str(tmp_path / "nope.json"),
                         "--gt", str(tmp_path / "nope2.json")]) == 2


    @pytest.mark.parametrize("payload", [
        [{"results": {}}],
        {"results": {"v1": [[0, 5]]}},
        {"results": {"v1": [{"timestamp": [0, 5], "proposal_score": "high"}]}},
        {"results": {"v1": [{"timestamp": [0, 5], "caption_logprob": "low"}]}},
        {"results": {"v1": [{"timestamp": [0, 5], "caption_logprob": math.nan}]}},
        {"results": {"v1": [{"timestamp": [0, math.inf]}]}},
    ])
    def test_malformed_predictions_exit_2(self, tmp_path, payload):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps(payload))
        assert dispatch(["eval-diversity", "--pred", str(path)]) == 2

    def test_truncated_feature_file_exits_2(self, tmp_path):
        model, feat = one_concept_files(tmp_path)
        feat.write_bytes(feat.read_bytes()[:-6])
        assert dispatch(predict_args(model, feat)) == 2

    @pytest.mark.parametrize("entry", [
        {"duration": 30, "timestamps": 5, "sentences": ["s"]},
        {"duration": 30, "timestamps": [[0, 10]], "sentences": 5},
    ])
    def test_non_list_groundtruth_fields_exit_2(self, tmp_path, entry):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"v1": entry}))
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"results": {}}))
        assert dispatch(["eval-captions", "--pred", str(pred), "--gt", str(gt)]) == 2

    @pytest.mark.parametrize("files, argv", [
        pytest.param({"meta.json": [{"v1": {"duration": 30}}]}, FUSE, id="fuse-meta-list"),
        pytest.param({"meta.json": {"v1": {"fps": 25}}}, FUSE, id="meta-without-duration"),
        pytest.param({"meta.json": "not json"}, FUSE, id="meta-not-json"),
        pytest.param({"meta.json": {"v1": {"duration": math.nan}}}, FUSE,
                     id="meta-nan-duration"),
        pytest.param({"scores.json": {"mode": "heuristic"}}, FUSE,
                     id="heuristic-without-attractors"),
        pytest.param({"scores.json": {"mode": "tables", "videos": {"v1": {
            "candidates": [[0, 10]], "f_e_steps": []}}}}, FUSE, id="tables-without-f_s"),
        pytest.param({"scores.json": {"mode": "tables", "videos": {"v1": {
            "candidates": [[0, 10], [10, 20]], "f_s": [0.5], "f_e_steps": []}}}}, FUSE,
            id="tables-f_s-per-candidate"),
        pytest.param({"scores.json": {"mode": "oracle"}}, FUSE, id="unknown-mode"),
        pytest.param({"meta.json": [{"v1": {"duration": 30}}]}, CONTEXTS,
                     id="contexts-meta-list"),
        pytest.param({"meta.json": {"v1": {"duration": 12}}}, CONTEXTS,
                     id="contexts-meta-duration-mismatch"),
        pytest.param({"pred.json": {"results": {}}, "gt2.json": {"v1": {
            "duration": 31, "timestamps": [[0, 10]], "sentences": ["a man runs"]}}},
            ["eval-proposals", "--pred", "{pred.json}", "--gt", "{gt.json}",
             "--gt", "{gt2.json}"], id="groundtruth-files-duration-mismatch"),
    ])
    def test_malformed_input_exits_2(self, tmp_path, capsys, files, argv):
        code = dispatch(with_files(tmp_path, argv, {**DEFAULT_FILES, **files}))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_table_candidate_past_the_video_exits_2(self, tmp_path, capsys):
        scores = {"mode": "tables", "videos": {"v1": {
            "candidates": [[40, 5000]], "f_s": [0.5], "f_e_steps": []}}}
        files = {**DEFAULT_FILES, "meta.json": {"v1": {"duration": 100}}, "scores.json": scores}
        assert dispatch(with_files(tmp_path, FUSE, files)) == 2
        assert capsys.readouterr().err == (
            "error: interval end 5000.0 exceeds duration 100.0 at v1[0]\n")
        assert not (tmp_path / "out.json").exists()

    def test_order_flag_is_gone(self, tmp_path, capsys):
        """RE is the repeated 4-gram ratio; `--n` is no longer an option."""
        with pytest.raises(SystemExit) as exc:
            dispatch(["eval-diversity", "--pred", str(tmp_path / "nope"), "--n", "4"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --n 4" in capsys.readouterr().err

    def test_nan_caption_logprob_exits_2(self, tmp_path, capsys):
        argv = ["rerank-proposals", "--pred", "{pred.json}", "--meta", "{meta.json}",
                "--out", "{out.json}"]
        pred = {"results": {"v1": [{"timestamp": [0, 5], "proposal_score": 0.5,
                                    "caption_logprob": math.nan}]}}
        assert dispatch(with_files(tmp_path, argv, {**DEFAULT_FILES, "pred.json": pred})) == 2
        assert "non-finite caption_logprob" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


def top_level_imports(tree):
    """The absolute modules a parsed module imports, by their first name."""
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    return imported | {node.module.split(".")[0] for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level == 0}


def test_every_top_level_import_is_used():
    """Each name a library module imports at top level is read somewhere in
    that module; `__init__.py` only re-exports, so it is left out."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0] for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} does not use {sorted(imported - used)}"


def test_cli_imports_neither_json_nor_numpy():
    """File formats live in the library modules and arrays stay behind
    library calls, so the CLI needs neither."""
    tree = ast.parse(Path(cli.__file__).read_text())
    assert not top_level_imports(tree) & {"json", "numpy"}


def test_cli_converters_only_parse():
    """Every argparse `type=` only parses; range rules live in the library."""
    def actions(parser):
        for action in parser._actions:
            yield action
            if isinstance(action, argparse._SubParsersAction):
                for subparser in action.choices.values():
                    yield from actions(subparser)

    types = {action.type for action in actions(cli.build_parser())} - {None}
    assert types == {int, float, cli._float_list, cli._spans}


def test_only_core_opens_files_or_imports_json_or_struct():
    """File formats stay behind `densecap.core`: no other module calls
    `open` or imports `json` or `struct`."""
    modules = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert {"cli.py", "concepts.py", "core.py"} <= {path.name for path in modules}
    for path in modules:
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text())
        opens = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "open"]
        assert not top_level_imports(tree) & {"json", "struct"}, path.name
        assert not opens, f"{path.name} calls open at lines {opens}"


def test_every_private_helper_is_used():
    """Each module-level private name (a leading underscore, not a dunder)
    that a library module defines is read somewhere in the library, so a
    deletion cannot strand a helper."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))}
    defined = set()
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {(name, t.id) for t in targets if isinstance(t, ast.Name)}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    private = {(module, name) for module, name in defined if name.startswith("_")
               and not (name.startswith("__") and name.endswith("__"))}
    assert len(private) > 20
    assert not {(module, name) for module, name in private if name not in read}


def default_of(function, name):
    return inspect.signature(function).parameters[name].default


FUSION, TRAIN = FusionConfig(), TrainConfig()
WEIGHTS, CAPTION_PARAMS = RerankWeights(), CaptionRerankParams()
# each subcommand with only its required arguments, and the library default
# of every flag it leaves out
CLI_DEFAULTS = [
    (["gen-synthetic", "--videos", "1", "--out-dir", "o"],
     {"seed": default_of(gen_synthetic, "seed"),
      "events_min": default_of(gen_synthetic, "events_range")[0],
      "events_max": default_of(gen_synthetic, "events_range")[1],
      "single_set": not default_of(gen_synthetic, "two_sets")}),
    (["eval-proposals", "--pred", "p", "--gt", "g"], {"tiou": DENSE_EVAL_THRESHOLDS}),
    (["eval-captions", "--pred", "p", "--gt", "g"],
     {"tiou": default_of(dense_eval, "thresholds")}),
    (["eval-diversity", "--pred", "p"], {}),
    (["fuse", "--meta", "m", "--scores", "s", "--out", "o"],
     {"k": FUSION.k, "cap": FUSION.candidate_cap, "max_steps": FUSION.max_steps}),
    (["rerank-proposals", "--pred", "p", "--meta", "m", "--out", "o"],
     {"weights": [WEIGHTS.quality, WEIGHTS.describability, WEIGHTS.position, WEIGHTS.length],
      "top": WEIGHTS.top_n}),
    (["rerank-captions", "--pred-multi", "p", "--out", "o"],
     {"alpha": CAPTION_PARAMS.alpha, "beta": CAPTION_PARAMS.beta,
      "top_concepts": CAPTION_PARAMS.top_concepts}),
    (["concepts", "train", "--features-dir", "f", "--labels", "l", "--out", "o"],
     {"lr": TRAIN.learning_rate, "epochs": TRAIN.epochs, "batch": TRAIN.batch_size,
      "k": TRAIN.k_segments, "seed": TRAIN.seed}),
    (["concepts", "predict", "--model", "m", "--features", "f", "--timestamps", "0,8"],
     {"top": default_of(predict_report, "top")}),
    (["augment", "--pred", "p", "--gt", "g", "--out", "o"], {}),
    (["contexts", "--events", "e", "--out", "o"],
     {"window_ratio": default_of(corpus_bundles, "window_ratio"),
      "direction": default_of(corpus_bundles, "direction"),
      "pool": default_of(corpus_bundles, "mode")}),
]


def test_cli_defaults_are_the_library_defaults():
    """Every flag a subcommand defaults takes the library's default, and the
    table above names every defaulted flag of every subcommand."""
    parser = cli.build_parser()
    handlers = set()
    for argv, defaults in CLI_DEFAULTS:
        args = parser.parse_args(argv)
        handlers.add(args.func.__name__)
        given = {arg[2:].replace("-", "_") for arg in argv if arg.startswith("--")}
        defaulted = {dest: value for dest, value in vars(args).items()
                     if value is not None and dest not in given
                     and dest not in ("command", "concepts_command", "func")}
        assert defaulted == defaults, argv
    assert handlers == {name for name in vars(cli) if name.startswith("_cmd_")}
    assert sum(map(len, (defaults for _, defaults in CLI_DEFAULTS))) == 23


def readme_command_lines():
    """The `densecap ...` lines of README's Command line block."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("densecap ")]


def test_readme_command_lines_parse():
    """Every README command line parses, and together they run every
    subcommand, so a renamed or removed flag shows here."""
    parser = cli.build_parser()
    handlers = set()
    for line in readme_command_lines():
        try:
            handlers.add(parser.parse_args(shlex.split(line)[1:]).func.__name__)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
    assert handlers == {name for name in vars(cli) if name.startswith("_cmd_")}


class TestGenSynthetic:
    def test_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert dispatch(["gen-synthetic", "--videos", "50", "--seed", "7",
                             "--out-dir", str(out)]) == 0
        for name in ("gt_set1.json", "gt_set2.json", "meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestEvalProposals:
    def test_identity_corpus(self, synthetic_dir, tmp_path, capsys):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "pr.json"
        code = dispatch(["eval-proposals", "--pred", str(pred),
                         "--gt", str(synthetic_dir / "gt_set1.json"),
                         "--tiou", "0.5", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["precision"]["0.5"] == pytest.approx(1.0)
        assert report["recall"]["0.5"] == pytest.approx(1.0)

    def test_two_gt_sets(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "pr.json"
        code = dispatch(["eval-proposals", "--pred", str(pred),
                         "--gt", str(synthetic_dir / "gt_set1.json"),
                         "--gt", str(synthetic_dir / "gt_set2.json"),
                         "--tiou", "0.3,0.9", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["precision"]["0.3"] == pytest.approx(1.0)


@pytest.mark.parametrize("command", ["eval-proposals", "eval-captions"])
@pytest.mark.parametrize("tiou", ["0.5,0.5", "nan", ",", "1.5", "inf,0.5"])
def test_bad_tiou_exits_1_before_any_table(synthetic_dir, tmp_path, capsys, command, tiou):
    pred = identity_pred_file(synthetic_dir, tmp_path)
    out = tmp_path / "out.json"
    code = dispatch([command, "--pred", str(pred), "--gt", str(synthetic_dir / "gt_set1.json"),
                     "--tiou", tiou, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "threshold" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["eval-proposals", "eval-captions"])
def test_skipped_unknown_video_is_reported(synthetic_dir, tmp_path, capsys, command):
    pred = identity_pred_file(synthetic_dir, tmp_path)
    preds = json.loads(pred.read_text())
    preds["results"]["ghost"] = [{"timestamp": [0, 1], "sentence": "a man runs"}]
    pred.write_text(json.dumps(preds))
    code = dispatch([command, "--pred", str(pred), "--gt", str(synthetic_dir / "gt_set1.json"),
                     "--tiou", "0.5", "--out", str(tmp_path / "out.json")])
    assert code == 0
    assert "skipped predictions for 1 unknown videos" in capsys.readouterr().out.splitlines()


def test_eval_captions_reports_videos_without_predictions(synthetic_dir, tmp_path, capsys):
    pred = identity_pred_file(synthetic_dir, tmp_path)
    preds = json.loads(pred.read_text())
    preds["results"][min(preds["results"])] = []
    pred.write_text(json.dumps(preds))
    out = tmp_path / "cap.json"
    code = dispatch(["eval-captions", "--pred", str(pred), "--gt",
                     str(synthetic_dir / "gt_set1.json"), "--tiou", "0.5", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "videos without predictions (left out of the averages): 1" in lines
    report = json.loads(out.read_text())
    assert report["zero_prediction_videos"] == 1
    assert report["bleu4_smoothed"]["0.5"] == pytest.approx(1.0)  # averages unchanged


class TestEvalCaptions:
    def test_identity(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "cap.json"
        code = dispatch(["eval-captions", "--pred", str(pred),
                         "--gt", str(synthetic_dir / "gt_set1.json"),
                         "--tiou", "0.9", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["bleu4_smoothed"]["0.9"] == pytest.approx(1.0)


class TestEvalDiversity:
    def test_report_fields(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "div.json"
        code = dispatch(["eval-diversity", "--pred", str(pred), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        for key in ("SelfB", "RE", "SelfB2", "RE2"):
            assert key in report
            assert 0.0 <= report[key] <= 100.0

    def test_excluded_count_is_of_caption_sets(self, tmp_path, capsys):
        """One video with one caption in each of two files: two sets are
        left out of SelfB, not two videos."""
        argv = ["eval-diversity", "--pred", "{a.json}", "--pred2", "{b.json}"]
        files = {name: {"results": {"v1": [{"timestamp": [0, 5], "sentence": sentence}]}}
                 for name, sentence in (("a.json", "a man runs"), ("b.json", "a dog jumps"))}
        assert dispatch(with_files(tmp_path, argv, files)) == 0
        out = capsys.readouterr().out
        assert "caption sets excluded from SelfB (<2 captions): 2\n" in out
        assert "videos excluded" not in out


class TestFuse:
    def test_heuristic_mode(self, synthetic_dir, tmp_path):
        gt = json.loads((synthetic_dir / "gt_set1.json").read_text())
        scores = {"mode": "heuristic",
                  "attractors": {vid: entry["timestamps"]
                                 for vid, entry in gt.items()}}
        scores_path = tmp_path / "scores.json"
        scores_path.write_text(json.dumps(scores))
        out = tmp_path / "fused.json"
        code = dispatch(["fuse", "--meta", str(synthetic_dir / "meta.json"),
                         "--scores", str(scores_path), "--k", "1",
                         "--cap", "80", "--out", str(out)])
        assert code == 0
        preds, _ = load_predictions(out)
        assert set(preds) == set(gt)
        for vid, rows in preds.items():
            assert 1 <= len(rows) <= 20

    def test_tables_mode(self, tmp_path):
        meta = {"v1": {"duration": 30.0}}
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        scores = {"mode": "tables", "videos": {"v1": {
            "candidates": [[0, 10], [10, 20], [20, 30]],
            "f_s": [0.9, 0.5, 0.4],
            "f_e_steps": [
                {"probs": {"0": 0.2, "1": 0.5, "2": 0.2}, "eos": 0.1},
                {"probs": {"0": 0.3, "2": 0.1}, "eos": 0.6},
            ]}}}
        (tmp_path / "scores.json").write_text(json.dumps(scores))
        out = tmp_path / "fused.json"
        code = dispatch(["fuse", "--meta", str(tmp_path / "meta.json"),
                         "--scores", str(tmp_path / "scores.json"),
                         "--out", str(out)])
        assert code == 0
        preds, _ = load_predictions(out)
        assert [(p.interval.start_s, p.interval.end_s) for p in preds["v1"]] == \
            [(10.0, 20.0)]


class TestRerankCli:
    def test_rerank_proposals(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "top.json"
        code = dispatch(["rerank-proposals", "--pred", str(pred),
                         "--meta", str(synthetic_dir / "meta.json"),
                         "--top", "2", "--out", str(out)])
        assert code == 0
        preds, _ = load_predictions(out)
        for rows in preds.values():
            assert len(rows) <= 2

    def test_rerank_proposals_after_fuse_stops_at_once(self, tmp_path, capsys):
        (tmp_path / "meta.json").write_text(json.dumps({"v1": {"duration": 30.0}}))
        scores = {"mode": "tables", "videos": {"v1": {
            "candidates": [[0, 10], [10, 20]], "f_s": [0.9, 0.5],
            "f_e_steps": [{"probs": {"0": 0.2, "1": 0.1}, "eos": 0.7}]}}}
        (tmp_path / "scores.json").write_text(json.dumps(scores))
        fused, top = tmp_path / "fused.json", tmp_path / "top.json"
        assert dispatch(["fuse", "--meta", str(tmp_path / "meta.json"),
                         "--scores", str(tmp_path / "scores.json"), "--out", str(fused)]) == 0
        assert load_predictions(fused)[0] == {"v1": []}
        assert dispatch(["rerank-proposals", "--pred", str(fused),
                         "--meta", str(tmp_path / "meta.json"), "--out", str(top)]) == 0
        assert load_predictions(top)[0] == {"v1": []}
        assert "error:" not in capsys.readouterr().err

    def test_rerank_captions_diversity_only(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "best.json"
        code = dispatch(["rerank-captions", "--pred-multi", f"{pred},{pred}",
                         "--out", str(out)])
        assert code == 0
        preds, _ = load_predictions(out)
        assert preds

    def test_rerank_captions_rejects_different_proposal_counts(self, synthetic_dir, tmp_path,
                                                              capsys):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        preds, _ = load_predictions(pred)
        vid = sorted(preds)[0]
        fewer = tmp_path / "fewer.json"
        save_predictions({**preds, vid: preds[vid][:-1]}, fewer)
        for files in (f"{pred},{fewer}", f"{fewer},{pred}"):
            assert dispatch(["rerank-captions", "--pred-multi", files,
                             "--out", str(tmp_path / "best.json")]) == 2
            assert "hypothesis files list" in capsys.readouterr().err
        assert not (tmp_path / "best.json").exists()

    def test_rerank_captions_rejects_disagreeing_files(self, synthetic_dir, tmp_path, capsys):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        preds, _ = load_predictions(pred)
        shuffled = tmp_path / "shuffled.json"
        save_predictions({vid: rows[::-1] for vid, rows in preds.items()}, shuffled)
        code = dispatch(["rerank-captions", "--pred-multi", f"{pred},{shuffled}",
                         "--out", str(tmp_path / "best.json")])
        assert code == 2
        assert "disagree on the interval" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["nan,1,1,1", "1,inf,1,1", "1,1,-inf,1"])
    def test_non_finite_proposal_weights_exit_1(self, synthetic_dir, tmp_path, capsys,
                                                weights):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "top.json"
        code = dispatch(["rerank-proposals", "--pred", str(pred),
                         "--meta", str(synthetic_dir / "meta.json"),
                         "--weights", weights, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("setting", [["--alpha", "nan"], ["--alpha", "inf"],
                                         ["--beta", "nan"]])
    def test_non_finite_caption_weights_exit_1(self, synthetic_dir, tmp_path, capsys,
                                               setting):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "best.json"
        code = dispatch(["rerank-captions", "--pred-multi", f"{pred},{pred}",
                         *setting, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_augment(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "pairs.json"
        code = dispatch(["augment", "--pred", str(pred),
                         "--gt", str(synthetic_dir / "gt_set1.json"),
                         "--out", str(out)])
        assert code == 0
        pairs = json.loads(out.read_text())
        for rows in pairs.values():
            for row in rows:
                assert row["tiou"] > 0.3


def concept_training_args(tmp_path, features):
    """`concepts train` arguments for one 16-segment video, "run" in its
    first half and "jump" in its second."""
    feat_dir = tmp_path / "feats"
    feat_dir.mkdir()
    meta = VideoMeta("v1", 64.0, fps=16.0)  # 16 segments
    save_features(SegmentGrid(meta, features), feat_dir / "v1.feat")
    labels = {
        "vocabulary": ["run", "jump"],
        "examples": {"v1": [
            {"timestamp": [0, 32], "concepts": ["run"]},
            {"timestamp": [32, 64], "concepts": ["jump"]},
        ]},
    }
    (tmp_path / "labels.json").write_text(json.dumps(labels))
    return ["concepts", "train", "--features-dir", str(feat_dir),
            "--labels", str(tmp_path / "labels.json"), "--k", "8"]


def one_concept_files(tmp_path):
    """A one-concept binary model and a matching 3-d binary feature file."""
    meta = VideoMeta("v1", 16.0, fps=16.0)
    feat = tmp_path / "v1.feat"
    save_features(SegmentGrid(meta, np.ones((meta.segment_count, 3))), feat)
    model = tmp_path / "model.bin"
    save_model(LinearConceptModel(np.zeros((1, 3)), np.zeros(1),
                                  ConceptVocabulary(["run"]), 4), model)
    return model, feat


def predict_args(model, feat):
    return ["concepts", "predict", "--model", str(model), "--features", str(feat),
            "--timestamps", "0,8"]


class TestConceptsCli:
    def test_train_and_predict(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((16, 8))
        features[:8, 0] += 3.0  # first half correlates with concept "run"
        feat_dir = tmp_path / "feats"
        model_path = tmp_path / "model.bin"
        code = dispatch(concept_training_args(tmp_path, features)
                        + ["--epochs", "20", "--out", str(model_path)])
        assert code == 0
        out = tmp_path / "probs.json"
        code = dispatch(["concepts", "predict", "--model", str(model_path),
                         "--features", str(feat_dir / "v1.feat"),
                         "--timestamps", "0,32;32,64", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        assert payload[0]["top_concepts"][0]["concept"] in ("run", "jump")

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.5"])
    def test_bad_learning_rate_exits_1(self, tmp_path, capsys, lr):
        code = dispatch(concept_training_args(tmp_path, np.ones((16, 8)))
                        + ["--lr", lr, "--out", str(tmp_path / "model.bin")])
        assert code == 1
        assert "error: learning_rate must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_exits_1(self, tmp_path, capsys):
        # one step at lr 1e308 makes a weight infinite; times the zero
        # feature of the second half's segments, that is a NaN logit
        features = np.zeros((16, 8))
        features[:8, 0] = 20.0
        code = dispatch(concept_training_args(tmp_path, features)
                        + ["--lr", "1e308", "--epochs", "3",
                           "--out", str(tmp_path / "model.bin")])
        assert code == 1
        assert "error: loss became non-finite at epoch 0" in capsys.readouterr().err
        assert not (tmp_path / "model.bin").exists()

    def test_truncated_model_exits_2(self, tmp_path):
        model, feat = one_concept_files(tmp_path)
        model.write_bytes(model.read_bytes()[:-6])
        assert dispatch(predict_args(model, feat)) == 2

    @pytest.mark.parametrize("index", [0, 3], ids=["weight", "bias"])
    def test_nan_model_value_exits_2(self, tmp_path, capsys, index):
        model, feat = one_concept_files(tmp_path)
        raw = bytearray(model.read_bytes())  # the payload is W (1 x 3), then b (1)
        start = len(raw) - 8 * (4 - index)
        raw[start:start + 8] = np.array([math.nan], "<f8").tobytes()
        model.write_bytes(bytes(raw))
        assert dispatch(predict_args(model, feat)) == 2
        assert "model parameters must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_concepts", "dim", "vocabulary", "k_segments"])
    def test_model_header_field_missing_exits_2(self, tmp_path, rewrite_header, key):
        model, feat = one_concept_files(tmp_path)
        rewrite_header(model, lambda header: header.pop(key))
        assert dispatch(predict_args(model, feat)) == 2

    @pytest.mark.parametrize("value", [None, False, "4", 0, -1])
    def test_bad_k_segments_exits_2(self, tmp_path, capsys, rewrite_header, value):
        model, feat = one_concept_files(tmp_path)
        rewrite_header(model, lambda header: header.update(k_segments=value))
        assert dispatch(predict_args(model, feat)) == 2
        assert "k_segments" in capsys.readouterr().err

    def test_predict_takes_k_from_the_model(self, tmp_path, capsys):
        model, feat = one_concept_files(tmp_path)
        with pytest.raises(SystemExit) as exc:
            dispatch(predict_args(model, feat) + ["--k", "4"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --k 4" in capsys.readouterr().err

    def test_label_past_the_features_end_exits_2(self, tmp_path, capsys):
        argv = concept_training_args(tmp_path, np.ones((16, 8)))  # a 64 s video
        labels = tmp_path / "labels.json"
        doc = json.loads(labels.read_text())
        doc["examples"]["v1"][0]["timestamp"] = [500, 600]
        labels.write_text(json.dumps(doc))
        assert dispatch(argv + ["--out", str(tmp_path / "model.bin")]) == 2
        assert capsys.readouterr().err == (
            "error: interval end 600.0 exceeds duration 64.0 at v1[0]\n")
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize("span, code", [("0,99999", 1), ("8,16.0000005", 0)])
    def test_span_past_the_features_end_exits_1(self, tmp_path, capsys, span, code):
        model, feat = one_concept_files(tmp_path)  # a 16 s video
        out = tmp_path / "probs.json"
        argv = predict_args(model, feat)[:-1] + [span, "--out", str(out)]
        assert dispatch(argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == "error: span [0.0, 99999.0] ends past duration 16.0\n"
            assert captured.out == "" and not out.exists()
        else:
            assert captured.err == "" and out.exists()

    def test_rerank_captions_pools_over_the_trained_k(self, synthetic_dir, tmp_path):
        """A model trained at --k 4 picks each caption from probabilities
        max-pooled over 4 segments, not over the training default."""
        corpus = load_ground_truth(synthetic_dir / "gt_set1.json")
        feat_dir = tmp_path / "feats"
        feat_dir.mkdir()
        examples, first, second = {}, {}, {}
        for n, (vid, record) in enumerate(sorted(corpus.videos.items())):
            save_features(synthetic_grid(record.meta, 8, seed=n), feat_dir / f"{vid}.seg")
            ann = record.annotation_sets[0]
            examples[vid] = [{"timestamp": [iv.start_s, iv.end_s], "concepts": sent.split()}
                             for iv, sent in zip(ann.intervals, ann.sentences)]
            # the second captioner offers the next event's sentence
            others = ann.sentences[1:] + ann.sentences[:1]
            first[vid] = [PredictionEntry(iv, sentence=s) for iv, s in
                          zip(ann.intervals, ann.sentences)]
            second[vid] = [replace(e, sentence=s) for e, s in zip(first[vid], others)]
        vocabulary = sorted({w for rows in examples.values() for row in rows
                             for w in row["concepts"]} - {"the", "with"})
        (tmp_path / "labels.json").write_text(json.dumps(
            {"vocabulary": vocabulary, "examples": examples}))
        save_predictions(first, tmp_path / "a.json")
        save_predictions(second, tmp_path / "b.json")
        model_path, out = tmp_path / "model.bin", tmp_path / "best.json"
        assert dispatch(["concepts", "train", "--features-dir", str(feat_dir),
                         "--labels", str(tmp_path / "labels.json"), "--epochs", "5",
                         "--k", "4", "--out", str(model_path)]) == 0
        assert dispatch(["rerank-captions", "--pred-multi", f"{tmp_path / 'a.json'},"
                         f"{tmp_path / 'b.json'}", "--concept-model", str(model_path),
                         "--features-dir", str(feat_dir), "--top-concepts", "3",
                         "--out", str(out)]) == 0
        model = load_model(model_path)
        grids = {vid: load_features(feat_dir / f"{vid}.seg") for vid in first}
        params = CaptionRerankParams(top_concepts=3)
        want, other = (merge_captions([first, second], params, replace(model, k_segments=k),
                                      grids) for k in (4, 20))
        assert want != other  # the K the probabilities are pooled over picks other captions
        assert load_predictions(out)[0] == want

    @pytest.mark.parametrize("given, missing", [("--concept-model", "--features-dir"),
                                                ("--features-dir", "--concept-model")])
    def test_rerank_captions_lone_concept_flag_exits_1(self, synthetic_dir, tmp_path, capsys,
                                                       given, missing):
        """Either flag alone is a usage error, not a run without concepts."""
        model, feat = one_concept_files(tmp_path)
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "best.json"
        path = model if given == "--concept-model" else feat.parent
        assert dispatch(["rerank-captions", "--pred-multi", f"{pred},{pred}", given, str(path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --concept-model and --features-dir go together: {missing} is missing\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["video_id", "duration", "segment_count", "dim"])
    def test_feature_header_field_missing_exits_2(self, tmp_path, rewrite_header, key):
        model, feat = one_concept_files(tmp_path)
        rewrite_header(feat, lambda header: header.pop(key))
        assert dispatch(predict_args(model, feat)) == 2

    def test_labels_without_vocabulary_exits_2(self, tmp_path, capsys):
        argv = concept_training_args(tmp_path, np.ones((16, 8)))
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"examples": json.loads(labels.read_text())["examples"]}))
        assert dispatch(argv + ["--out", str(tmp_path / "model.bin")]) == 2
        assert "missing vocabulary" in capsys.readouterr().err


def concepts_error_case(tmp_path, case):
    """`concepts` arguments for one malformed input: a model two values wider
    than its features, an inverted or non-finite span, labels of a video
    without a features file, or features of two widths."""
    model, feat = one_concept_files(tmp_path)
    spans = {"inverted-span": "8,0", "infinite-span": "0,inf", "overflowing-span": "0,1e400"}
    if case in spans:
        return predict_args(model, feat)[:-1] + [spans[case]]
    if case == "model-width":
        save_model(LinearConceptModel(np.zeros((1, 5)), np.zeros(1),
                                      ConceptVocabulary(["run"]), 4), model)
        return predict_args(model, feat)
    argv = concept_training_args(tmp_path, np.ones((16, 8)))
    if case == "no-features-file":
        (tmp_path / "feats" / "v1.feat").unlink()
    else:
        save_features(SegmentGrid(VideoMeta("v2", 64.0, fps=16.0), np.ones((16, 3))),
                      tmp_path / "feats" / "v2.feat")
        labels = json.loads((tmp_path / "labels.json").read_text())
        labels["examples"]["v2"] = [{"timestamp": [0, 8], "concepts": ["run"]}]
        (tmp_path / "labels.json").write_text(json.dumps(labels))
    return argv + ["--epochs", "2", "--out", str(tmp_path / "out.bin")]


class TestConceptsErrorSweep:
    """Malformed `concepts` inputs end in an exit code and an error line."""

    @pytest.mark.parametrize("case, code, message", [
        ("model-width", 1, "v1: feature dim 3, expected 5"),
        ("inverted-span", 1, "argument --timestamps: inverted interval [8.0, 0.0]"),
        ("infinite-span", 1, "argument --timestamps: non-finite end inf"),
        ("overflowing-span", 1, "argument --timestamps: non-finite end inf"),
        ("no-features-file", 1, "no training examples"),
        ("two-widths", 1, "v2: feature dim 3, expected 8"),
    ])
    def test_exits_with_error_line(self, tmp_path, capsys, case, code, message):
        try:
            exit_code = dispatch(concepts_error_case(tmp_path, case))
        except SystemExit as exc:
            exit_code = exc.code
        err = capsys.readouterr().err
        assert exit_code == code
        if case.endswith("-span"):  # argparse refuses a bad span, after its usage lines
            assert err.startswith("usage: ")
            err = err[err.index("error: "):]
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out.bin").exists()


class TestContextsCli:
    def test_bundles(self, synthetic_dir, tmp_path):
        out = tmp_path / "bundles.json"
        code = dispatch(["contexts", "--events",
                         str(synthetic_dir / "gt_set1.json"),
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        for vid, bundles in payload.items():
            for k, row in enumerate(bundles):
                i, j = row["event_range"]
                assert 0 <= i < j <= len(row["global_mask"])
                assert len(row["sentence_history"]) == k

    def test_feature_grid_must_match_meta(self, synthetic_dir, tmp_path, capsys):
        gt = load_ground_truth(synthetic_dir / "gt_set1.json")
        vid, record = next(iter(gt.videos.items()))
        feat_dir = tmp_path / "feats"
        feat_dir.mkdir()
        meta = VideoMeta(vid, record.meta.duration_s, fps=50.0)  # twice the segments
        save_features(SegmentGrid(meta, np.ones((meta.segment_count, 2))),
                      feat_dir / "one.feat")
        code = dispatch(["contexts", "--events", str(synthetic_dir / "gt_set1.json"),
                         "--meta", str(synthetic_dir / "meta.json"),
                         "--features-dir", str(feat_dir), "--out", str(tmp_path / "b.json")])
        assert code == 2
        assert "feature segments" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["nan", "inf", "0"])
    def test_bad_window_ratio_exits_1(self, synthetic_dir, tmp_path, capsys, ratio):
        code = dispatch(["contexts", "--events", str(synthetic_dir / "gt_set1.json"),
                         "--window-ratio", ratio, "--out", str(tmp_path / "b.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: window_ratio must be finite")
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("binary, edit", [
        (True, lambda values: values.__setitem__(0, math.nan)),
        (True, lambda values: values.__setitem__(3, -math.inf)),
        (False, lambda rows: rows[0].__setitem__(0, math.nan)),
        (False, lambda rows: rows[1].__setitem__(1, math.inf)),
        (False, lambda rows: rows[0].__setitem__(0, "high")),
        (False, lambda rows: rows[1].pop()),
    ], ids=["binary-nan", "binary-inf", "json-nan", "json-inf", "json-non-numeric",
            "json-ragged"])
    def test_bad_feature_values_exit_2(self, synthetic_dir, tmp_path, capsys, binary, edit):
        gt = load_ground_truth(synthetic_dir / "gt_set1.json")
        record = next(iter(gt.videos.values()))
        grid = SegmentGrid(record.meta, np.ones((record.meta.segment_count, 2)))
        path = tmp_path / "feats" / "one.feat"
        path.parent.mkdir()
        save_features(grid, path, binary=binary)
        if binary:  # the writer refuses such values, so patch the payload bytes
            raw = path.read_bytes()
            start = len(raw) - grid.features.size * 4
            values = np.frombuffer(raw, "<f4", offset=start).copy()
            edit(values)
            path.write_bytes(raw[:start] + values.tobytes())
        else:
            doc = json.loads(path.read_text())
            edit(doc["features"])
            path.write_text(json.dumps(doc))
        code = dispatch(["contexts", "--events", str(synthetic_dir / "gt_set1.json"),
                         "--features-dir", str(path.parent),
                         "--out", str(tmp_path / "b.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "b.json").exists()
