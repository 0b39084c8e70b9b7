import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densecap import (ConceptVocabulary, CorpusFormatError, LinearConceptModel,
                      SegmentGrid, TimeInterval, TrainConfig, VideoMeta, bce_loss,
                      load_model, predict_proposal, save_model, select_even_segments,
                      train)
from densecap.concepts import (LOGIT_CLAMP, WEIGHT_INIT_SCALE, MimlExample,
                               TrainingDiverged, load_labels, objective_and_gradient,
                               predict_report, proposal_accuracy, top_concepts)
from densecap.core import write_json
from densecap.synthetic import make_separable_miml
from oracles import oracle_objective_and_gradient, oracle_train


class TestVocabulary:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            ConceptVocabulary(["a", "a"])


def toy_model(W, b, names=None, k=4):
    W = np.atleast_2d(np.asarray(W, float))
    names = names or [f"c{i}" for i in range(W.shape[0])]
    return LinearConceptModel(W, np.asarray(b, float), ConceptVocabulary(names), k)


def predict_row(model, row):
    """`predict_proposal` over a one-segment grid holding `row`: that segment's
    per-concept probabilities."""
    grid = SegmentGrid(VideoMeta("v", 4.0, fps=16.0), np.atleast_2d(np.asarray(row, float)))
    return predict_proposal(model, grid, TimeInterval(0, 4))


class TestPredict:
    def test_zero_model_gives_half(self):
        model = toy_model(np.zeros((3, 4)), np.zeros(3))
        np.testing.assert_allclose(predict_row(model, np.ones(4)), 0.5)

    def test_logit_clamp(self):
        model = toy_model([[1000.0]], [0.0])
        out = predict_row(model, [1.0])
        assert out[0] == pytest.approx(1.0 / (1.0 + math.exp(-30.0)))

    def test_orthogonal_feature(self):
        model = toy_model([[1.0, 0.0]], [0.0])
        assert predict_row(model, [0.0, 5.0])[0] == 0.5


@st.composite
def segment_spans(draw):
    """(count, i, j): a video of `count` segments and a range 0 <= i < j <= count."""
    count = draw(st.integers(1, 1000))
    i = draw(st.integers(0, count - 1))
    return count, i, draw(st.integers(i + 1, count))


class TestSelectEvenSegments:
    def test_full_range(self):
        meta = VideoMeta("v", 80.0, fps=16.0)  # 20 segments
        idx = select_even_segments(TimeInterval(0, 80), meta, 20)
        assert idx == list(range(20))

    def test_repetition_when_short(self):
        meta = VideoMeta("v", 4.0, fps=16.0)  # 1 segment
        idx = select_even_segments(TimeInterval(0, 4), meta, 20)
        assert idx == [0] * 20

    def test_linspace_rounding(self):
        meta = VideoMeta("v", 20.0, fps=16.0)  # 5 segments
        idx = select_even_segments(TimeInterval(0, 20), meta, 3)
        assert idx == [0, 2, 4]

    def test_deterministic(self):
        meta = VideoMeta("v", 100.0)
        a = select_even_segments(TimeInterval(3, 77), meta, 20)
        b = select_even_segments(TimeInterval(3, 77), meta, 20)
        assert a == b

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(segment_spans(), st.integers(1, 40))
    @example((1, 0, 1), 20)    # a one-segment video
    @example((9, 4, 5), 7)     # a one-segment range inside a longer video
    @example((9, 2, 8), 1)     # k == 1
    @example((1000, 3, 998), 40)
    def test_linspace_rule(self, span, k):
        count, i, j = span
        meta = VideoMeta("v", 4.0 * count, fps=16.0)  # 4 s segments
        assert meta.segment_count == count
        want = [int(math.floor(p + 0.5)) for p in np.linspace(i, j - 1, num=k)]
        assert select_even_segments(TimeInterval(4.0 * i, 4.0 * j), meta, k) == want


class TestProposalPrediction:
    def grid(self, rows):
        meta = VideoMeta("v", 16.0, fps=16.0)
        return SegmentGrid(meta, np.asarray(rows, float))

    def test_identical_segments(self):
        model = toy_model([[0.5, -0.2], [0.1, 0.3]], [0.0, 0.1])
        grid = self.grid([[1.0, 2.0]] * 4)
        pooled = predict_proposal(model, grid, TimeInterval(0, 16))
        np.testing.assert_allclose(pooled, predict_row(model, grid.features[0]))

    def test_max_rule(self):
        # craft logits so segment probabilities are (0.2, 0.9) and (0.7, 0.1)
        def logit(p):
            return math.log(p / (1 - p))
        model = toy_model([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        grid = self.grid([[logit(0.2), logit(0.9)], [logit(0.7), logit(0.1)],
                          [logit(0.2), logit(0.9)], [logit(0.7), logit(0.1)]])
        pooled = predict_proposal(model, grid, TimeInterval(0, 16))
        np.testing.assert_allclose(pooled, [0.7, 0.9], atol=1e-12)

    @pytest.mark.parametrize("k, picks", [(1, [0]), (2, [0, 3]), (4, [0, 1, 2, 3])])
    def test_pools_over_the_model_k(self, k, picks):
        # concept 0 peaks at segment 1, which K = 1 and K = 2 do not pick
        model = toy_model([[1.0], [-1.0]], [0.0, 0.0], k=k)
        grid = self.grid([[0.0], [3.0], [1.0], [2.0]])
        want = np.maximum.reduce([predict_row(model, grid.features[s]) for s in picks])
        np.testing.assert_array_equal(predict_proposal(model, grid, TimeInterval(0, 16)),
                                      want)
        assert select_even_segments(TimeInterval(0, 16), grid.meta, k) == picks

    def test_feature_width_must_match_the_model(self):
        model = toy_model(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="v: feature dim 2, expected 3"):
            predict_proposal(model, self.grid(np.ones((4, 2))), TimeInterval(0, 16))

    def test_dominates_segment_predictions(self):
        rng = np.random.default_rng(8)
        model = toy_model(rng.standard_normal((3, 5)), rng.standard_normal(3))
        grid = self.grid(rng.standard_normal((4, 5)))
        proposal = TimeInterval(0, 16)
        pooled = predict_proposal(model, grid, proposal)
        for row in grid.features:
            assert (pooled >= predict_row(model, row) - 1e-12).all()


class TestBceLoss:
    def test_half_probs(self):
        assert bce_loss(np.full(7, 0.5), np.array([0, 1, 0, 1, 1, 0, 1])) == \
            pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction_tiny_loss(self):
        assert bce_loss(np.array([1.0]), np.array([1.0])) < 2e-7

    def test_single_concept(self):
        assert bce_loss(np.array([0.9]), np.array([1.0])) == \
            pytest.approx(-math.log(0.9), abs=1e-9)


class TestGradient:
    def test_matches_central_finite_differences(self):
        step = 1e-3
        for seed in range(25):
            rng = np.random.default_rng(seed)
            c = int(rng.integers(1, 6))
            d = int(rng.integers(2, 9))
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            bags = [rng.standard_normal((k, d)) for _ in range(n)]
            labels = rng.integers(0, 2, size=(n, c)).astype(float)
            W = rng.standard_normal((c, d)) * 0.5
            b = rng.standard_normal(c) * 0.1
            _, dW, db = objective_and_gradient(W, b, bags, labels)

            def loss_at(Wx, bx):
                value, _, _ = objective_and_gradient(Wx, bx, bags, labels)
                return value

            num_dW = np.zeros_like(W)
            for i in range(c):
                for j in range(d):
                    up, down = W.copy(), W.copy()
                    up[i, j] += step
                    down[i, j] -= step
                    num_dW[i, j] = (loss_at(up, b) - loss_at(down, b)) / (2 * step)
            num_db = np.zeros_like(b)
            for i in range(c):
                up, down = b.copy(), b.copy()
                up[i] += step
                down[i] -= step
                num_db[i] = (loss_at(W, up) - loss_at(W, down)) / (2 * step)

            scale = max(np.abs(num_dW).max(), np.abs(num_db).max(), 1e-8)
            assert np.abs(dW - num_dW).max() / scale < 1e-4
            assert np.abs(db - num_db).max() / scale < 1e-4


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBatchedObjective:
    """The vectorized objective against the per-bag loop, bit for bit."""

    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_per_bag_oracle(self, stacked):
        rng = np.random.default_rng(2024)
        for case in range(150):
            n, k, d, c = (int(rng.integers(1, hi)) for hi in (41, 7, 10, 10))
            # 0.1: no clamp; 3: some probabilities past the BCE clip;
            # 60: most logits beyond +-LOGIT_CLAMP
            scale = (0.1, 3.0, 60.0)[case % 3]
            bags = scale * rng.standard_normal((n, k, d))
            for i in range(0, n, 3):  # repeated segments tie the argmax
                bags[i] = bags[i][rng.integers(0, k, size=k)]
            W = rng.standard_normal((c, d))
            b = scale * rng.standard_normal(c)
            labels = rng.integers(0, 2, size=(n, c)).astype(float)
            want = oracle_objective_and_gradient(W, b, list(bags), labels)
            got = objective_and_gradient(W, b, bags if stacked else list(bags), labels)
            assert got[0] == want[0]
            assert same_bits(got[1], want[1])
            assert same_bits(got[2], want[2])

    def test_saturated_and_clamped_logits_have_no_gradient(self):
        # bag 0 pools logits 20 (probability past the BCE clip) and 40 (past
        # the logit clamp); bag 1 pools 2 and 4
        bags = np.array([[[1.0], [0.5]], [[-1.0], [0.1]]])  # (2, 2, 1)
        W = np.array([[20.0], [40.0]])
        b = np.zeros(2)
        labels = np.array([[0.0, 0.0], [1.0, 1.0]])
        loss, dW, db = objective_and_gradient(W, b, bags, labels)
        want = oracle_objective_and_gradient(W, b, list(bags), labels)
        assert loss == want[0]
        assert same_bits(dW, want[1]) and same_bits(db, want[2])
        # only bag 1 contributes, at half the weight it has on its own
        _, dW1, db1 = objective_and_gradient(W, b, bags[1:], labels[1:])
        assert np.all(dW1 != 0.0)
        assert same_bits(dW, dW1 / 2) and same_bits(db, db1 / 2)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("learning_rate", 0.0), ("learning_rate", -0.5),
        ("epochs", 0), ("batch_size", 0), ("k_segments", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_default_config_is_not_shared(self):
        assert inspect.signature(train).parameters["cfg"].default is None
        _, trace = train(make_separable_miml(10, seed=4))
        assert len(trace) == TrainConfig().epochs

    def test_divergence_is_a_value_error(self):
        assert issubclass(TrainingDiverged, ValueError)


def train_like_oracle(examples, cfg):
    """`train`'s model, after checking that its weights, bias and loss trace have
    the bits of `oracle_train`'s; also the (K, D) bags the oracle trained on."""
    model, trace = train(examples, cfg)
    bags = [ex.grid.features[select_even_segments(ex.proposal, ex.grid.meta,
                                                  cfg.k_segments)]
            for ex in examples]
    labels = np.stack([ex.labels for ex in examples])
    W, b, want = oracle_train(bags, labels, cfg.learning_rate, cfg.epochs,
                              cfg.batch_size, cfg.seed, WEIGHT_INIT_SCALE)
    assert same_bits(model.W, W)
    assert same_bits(model.b, b)
    assert trace == want
    return model, bags


class TestTraining:
    def test_zero_learning_rate_keeps_init(self):
        examples = make_separable_miml(20, seed=1)
        cfg_a = TrainConfig(learning_rate=1e-12, epochs=2, seed=3)
        model, _ = train(examples, cfg_a)
        rng = np.random.default_rng(3)
        init_W = rng.normal(scale=WEIGHT_INIT_SCALE, size=(4, 16))
        np.testing.assert_allclose(model.W, init_W, atol=1e-9)

    def test_accuracy_of_no_examples(self):
        model = toy_model(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="no examples"):
            proposal_accuracy(model, [])

    def test_labels_of_another_length_name_the_example(self):
        examples = make_separable_miml(10, seed=1)
        short = examples[3]
        short.labels = short.labels[:-1]
        with pytest.raises(ValueError, match=rf"^{short.grid.meta.video_id}: example 3 has "
                                             r"3 labels, expected 4$"):
            train(examples, TrainConfig(epochs=1))

    def test_accuracy_with_a_model_of_another_concept_count(self):
        examples = make_separable_miml(10, seed=1)
        model = toy_model(np.zeros((3, examples[0].grid.dim)), np.zeros(3))
        first = examples[0].grid.meta.video_id
        with pytest.raises(ValueError, match=rf"^{first}: example 0 has 4 labels, expected 3$"):
            proposal_accuracy(model, examples)

    def test_learns_separable_set(self):
        examples = make_separable_miml(200, seed=5)
        model, trace = train(examples, TrainConfig(epochs=60, seed=0))
        assert proposal_accuracy(model, examples) >= 0.95
        violations = sum(1 for a, b in zip(trace[:10], trace[1:10]) if b > a)
        assert violations <= 1

    def test_deterministic_given_seed(self):
        examples = make_separable_miml(40, seed=2)
        m1, t1 = train(examples, TrainConfig(epochs=5, seed=11))
        m2, t2 = train(examples, TrainConfig(epochs=5, seed=11))
        np.testing.assert_array_equal(m1.W, m2.W)
        np.testing.assert_array_equal(m1.b, m2.b)
        assert t1 == t2

    @pytest.mark.parametrize("seed", [3, 19])
    def test_matches_per_bag_oracle_trainer(self, seed):
        examples = make_separable_miml(45, n_concepts=5, dim=12, seed=seed)
        # 45 bags in batches of 11: the last mini-batch and loss chunk are
        # short, the others long enough (8 or more) for numpy to sum in pairs
        cfg = TrainConfig(learning_rate=0.5, epochs=4, batch_size=11, k_segments=6,
                          seed=seed)
        model, _ = train_like_oracle(examples, cfg)
        assert model.k_segments == cfg.k_segments

    @pytest.mark.parametrize("seed", [3, 19, 23])
    def test_matches_per_bag_oracle_trainer_past_the_clamp(self, seed):
        # features scaled by 300 put nearly every logit past +-LOGIT_CLAMP, so the
        # loss pass's max over clamped logits meets ties on most bags
        examples = [MimlExample(ex.proposal, SegmentGrid(ex.grid.meta, 300 * ex.grid.features),
                                ex.labels)
                    for ex in make_separable_miml(45, n_concepts=5, dim=12, seed=seed)]
        cfg = TrainConfig(learning_rate=0.5, epochs=4, batch_size=11, k_segments=6,
                          seed=seed)
        model, bags = train_like_oracle(examples, cfg)
        assert np.mean(np.abs(np.stack(bags) @ model.W.T + model.b) >= LOGIT_CLAMP) > 0.99

    def test_nan_feature_diverges_at_epoch_0(self):
        examples = make_separable_miml(20, seed=4)
        examples[7].grid.features[2, 5] = np.nan
        with pytest.raises(TrainingDiverged) as caught:
            train(examples, TrainConfig(epochs=3, k_segments=4))
        assert caught.value.epoch == 0


class TestFeatureTable:
    """The training set's feature table is its grids: each bag's picked rows are
    gathered from its own grid, and no copy of them outlives one mini-batch or
    loss chunk."""

    def test_peak_memory(self):
        examples = make_separable_miml(2000, 20, 128)
        tracemalloc.start()
        try:
            train(examples, TrainConfig(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bags are gathered from the grids into one (32, 20, 128) float64
        # buffer of 0.66 MB; a table of the picked rows, 2000 grids x 4 segments
        # x 128 float64, would add 8.2 MB, and a (K, D) copy per bag 41 MB
        assert peak < 4e6

    def shared_grid_examples(self, tmp_path):
        """Examples as `load_labels` reads them: every proposal of a video
        holds that video's one grid."""
        rng = np.random.default_rng(31)
        grids = {vid: SegmentGrid(VideoMeta(vid, 4.0 * count, fps=16.0),
                                  rng.standard_normal((count, 6)))
                 for vid, count in (("v1", 30), ("v2", 7))}
        vocab = ["run", "jump", "swim", "sing"]
        rows = {}
        for vid, grid in grids.items():
            rows[vid] = []
            for _ in range(24 if vid == "v1" else 10):
                s, e = sorted(rng.choice(int(grid.meta.duration_s) + 1, 2, replace=False))
                rows[vid].append({"timestamp": [int(s), int(e)],
                                  "concepts": [w for w in vocab if rng.random() < 0.5]})
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"vocabulary": vocab, "examples": rows}))
        return load_labels(path, grids)[1]

    def test_shared_grid_matches_per_bag_oracle_trainer(self, tmp_path):
        examples = self.shared_grid_examples(tmp_path)
        train_like_oracle(examples, TrainConfig(learning_rate=0.5, epochs=3, batch_size=9,
                                                k_segments=9, seed=5))

    @pytest.mark.parametrize("features, message", [
        (np.ones((4, 5)), "v2: feature dim 5, expected 3"),
    ])
    def test_grids_must_share_one_feature_width(self, features, message):
        grids = [SegmentGrid(VideoMeta(vid, 16.0, fps=16.0), f)
                 for vid, f in (("v1", np.ones((4, 3))), ("v2", features))]
        examples = [MimlExample(TimeInterval(0, 16), grid, [1.0]) for grid in grids]
        with pytest.raises(ValueError, match=message):
            train(examples, TrainConfig(epochs=1))


class TestModelIO:
    @pytest.mark.parametrize("binary", [True, False])
    def test_round_trip(self, tmp_path, binary):
        rng = np.random.default_rng(6)
        model = toy_model(rng.standard_normal((3, 5)), rng.standard_normal(3),
                          names=["run", "jump", "swim"], k=7)
        path = tmp_path / "model.bin"
        save_model(model, path, binary=binary)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.W, model.W)
        np.testing.assert_array_equal(loaded.b, model.b)
        assert loaded.vocabulary.concepts == model.vocabulary.concepts
        assert loaded.k_segments == 7

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("value, message", [
        (None, "missing k_segments"), (True, "bad k_segments True"),
        ("4", "bad k_segments '4'"), (4.0, "bad k_segments 4.0"),
        (0, "k_segments must be >= 1"), (-3, "k_segments must be >= 1"),
    ])
    def test_bad_k_segments_rejected(self, tmp_path, rewrite_header, binary, value, message):
        path = tmp_path / "model.bin"
        save_model(toy_model(np.ones((2, 3)), np.zeros(2)), path, binary=binary)
        if binary:
            rewrite_header(path, lambda header: header.update(k_segments=value))
        else:
            path.write_text(json.dumps({**json.loads(path.read_text()), "k_segments": value}))
        with pytest.raises(CorpusFormatError, match=message):
            load_model(path)

    def test_json_layout_is_the_write_json_layout(self, tmp_path):
        model = toy_model([[1.5, -2.0], [0.25, 3.0]], [0.5, -0.5], names=["run", "jump"])
        path, plain = tmp_path / "model.json", tmp_path / "plain.json"
        save_model(model, path, binary=False)
        doc = json.loads(path.read_text())
        assert doc == {"n_concepts": 2, "dim": 2, "k_segments": 4, "vocabulary": ["run", "jump"],
                       "W": [[1.5, -2.0], [0.25, 3.0]], "b": [0.5, -0.5]}
        write_json(doc, plain)
        assert path.read_bytes() == plain.read_bytes()
        loaded = load_model(path)
        assert loaded.W.tolist() == doc["W"] and loaded.b.tolist() == doc["b"]

    @pytest.mark.parametrize("cut", range(1, 17))
    def test_truncated_binary_model_rejected(self, tmp_path, cut):
        path = tmp_path / "model.bin"
        save_model(toy_model(np.ones((2, 3)), np.zeros(2)), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(CorpusFormatError):
            load_model(path)

    @pytest.mark.parametrize("key", ["n_concepts", "dim", "vocabulary", "k_segments"])
    def test_header_field_required(self, tmp_path, rewrite_header, key):
        path = tmp_path / "model.bin"
        save_model(toy_model(np.ones((2, 3)), np.zeros(2)), path)
        rewrite_header(path, lambda header: header.pop(key))
        with pytest.raises(CorpusFormatError, match=key):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        {"W": [[1.0, 2.0], [3.0]]},        # ragged
        {"W": [[1.0, "2"], [3.0, 4.0]]},   # a string
        {"W": [[1.0, None], [3.0, 4.0]]},  # a null
        {"W": [1.0, 2.0]},                 # not rows
        {"b": [0.0]},                      # one bias for two concepts
        {"vocabulary": ["run"]},           # one word for two rows
        {"vocabulary": ["run", "run"]},
        {"vocabulary": []},
    ])
    def test_malformed_json_model_rejected(self, tmp_path, edit):
        doc = {"n_concepts": 2, "dim": 2, "k_segments": 4, "vocabulary": ["run", "jump"],
               "W": [[1.0, 2.0], [3.0, 4.0]], "b": [0.0, 0.0], **edit}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusFormatError):
            load_model(path)

    @pytest.mark.parametrize("keep", [4, 6, 10])
    def test_cut_header_rejected(self, tmp_path, keep):
        path = tmp_path / "model.bin"
        save_model(toy_model(np.ones((2, 3)), np.zeros(2)), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(CorpusFormatError):
            load_model(path)


class TestTopConcepts:
    def test_ties_go_to_the_earlier_concept(self):
        vocab = ConceptVocabulary(["run", "jump", "swim", "sing"])
        assert top_concepts(np.array([0.2, 0.7, 0.2, 0.7]), vocab, 3) == [
            ("jump", 0.7), ("sing", 0.7), ("run", 0.2)]
        assert len(top_concepts(np.zeros(4), vocab, 10)) == 4

    def test_report_rows(self):
        meta = VideoMeta("v", 16.0, fps=16.0)
        grid = SegmentGrid(meta, np.ones((meta.segment_count, 2)))
        model = toy_model(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2),
                          names=["run", "jump"], k=2)
        (row,) = predict_report(model, grid, [TimeInterval(0, 8)], top=1)
        probs = predict_proposal(model, grid, TimeInterval(0, 8))
        assert row == {"timestamp": [0, 8],
                       "top_concepts": [{"concept": "run", "probability": probs[0]}]}


class TestLabelsFile:
    GRID = SegmentGrid(VideoMeta("v1", 16.0, fps=16.0), np.ones((4, 2)))

    def write(self, tmp_path, payload):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(payload))
        return path

    def test_examples_of_known_videos(self, tmp_path):
        path = self.write(tmp_path, {"vocabulary": ["run", "jump"], "examples": {
            "v1": [{"timestamp": [0, 8], "concepts": ["jump", "fly"]},
                   {"timestamp": [8, 16], "concepts": []}],
            "ghost": [{"timestamp": [0, 1], "concepts": ["run"]}]}})
        vocab, examples = load_labels(path, {"v1": self.GRID})
        assert vocab.concepts == ["run", "jump"]
        assert [(ex.proposal, ex.labels.tolist(), ex.grid) for ex in examples] == [
            (TimeInterval(0, 8), [0.0, 1.0], self.GRID),
            (TimeInterval(8, 16), [0.0, 0.0], self.GRID)]

    def test_end_within_slop_clamped_to_the_features(self, tmp_path):
        path = self.write(tmp_path, {"vocabulary": ["run"], "examples": {
            "v1": [{"timestamp": [8, 16 + 5e-7], "concepts": ["run"]}]}})
        (example,) = load_labels(path, {"v1": self.GRID})[1]
        assert example.proposal == TimeInterval(8, 16)

    @pytest.mark.parametrize("end", [16.01, 600])
    def test_end_past_the_features_refused(self, tmp_path, end):
        path = self.write(tmp_path, {"vocabulary": ["run"], "examples": {
            "v1": [{"timestamp": [8, end], "concepts": ["run"]}]}})
        with pytest.raises(CorpusFormatError,
                           match=rf"^interval end {float(end)} exceeds duration 16.0 at v1\[0\]$"):
            load_labels(path, {"v1": self.GRID})

    @pytest.mark.parametrize("payload", [
        [],
        {"examples": {}},
        {"vocabulary": "run", "examples": {}},
        {"vocabulary": ["run", 5], "examples": {}},
        {"vocabulary": ["run"]},
        {"vocabulary": ["run"], "examples": {"v1": {"timestamp": [0, 8]}}},
        {"vocabulary": ["run"], "examples": {"v1": [[0, 8]]}},
        {"vocabulary": ["run"], "examples": {"v1": [{"timestamp": [0, 8]}]}},
        {"vocabulary": ["run"], "examples": {"v1": [{"timestamp": [0, 8],
                                                     "concepts": "run"}]}},
        {"vocabulary": ["run"], "examples": {"v1": [{"timestamp": [8, 0],
                                                     "concepts": ["run"]}]}},
        {"vocabulary": ["run"], "examples": {"v1": [{"concepts": ["run"]}]}},
        {"vocabulary": [], "examples": {}},
        {"vocabulary": ["run", "run"], "examples": {}},
    ])
    def test_malformed_raises_format_error(self, tmp_path, payload):
        with pytest.raises(CorpusFormatError):
            load_labels(self.write(tmp_path, payload), {"v1": self.GRID})
