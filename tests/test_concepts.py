import inspect
import math

import numpy as np
import pytest

from densecap import (ConceptVocabulary, CorpusFormatError, LinearConceptModel,
                      SegmentGrid, TimeInterval, TrainConfig, VideoMeta,
                      assign_segment_labels, bce_loss, build_vocabulary,
                      load_model, predict_proposal, predict_segment,
                      save_model, select_even_segments, train)
from densecap.concepts import (MimlExample, TrainingDiverged, objective_and_gradient,
                               proposal_accuracy)
from densecap.synthetic import make_separable_miml
from oracles import oracle_objective_and_gradient, oracle_train


class TestVocabulary:
    def test_filter_and_order(self):
        vocab = build_vocabulary({"run": 5, "the": 9, "ball": 3},
                                 ["run", "ball"], min_count=3)
        assert vocab.concepts == ["run", "ball"]

    def test_empty_result_raises(self):
        with pytest.raises(ValueError):
            build_vocabulary({"run": 5, "ball": 3}, ["run", "ball"], min_count=6)

    def test_tie_breaks_lexicographic(self):
        vocab = build_vocabulary({"zebra": 3, "apple": 3, "mango": 3},
                                 ["zebra", "apple", "mango"], min_count=1)
        assert vocab.concepts == ["apple", "mango", "zebra"]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            ConceptVocabulary(["a", "a"])


def toy_model(W, b, names=None):
    W = np.atleast_2d(np.asarray(W, float))
    names = names or [f"c{i}" for i in range(W.shape[0])]
    return LinearConceptModel(W, np.asarray(b, float), ConceptVocabulary(names))


class TestPredict:
    def test_zero_model_gives_half(self):
        model = toy_model(np.zeros((3, 4)), np.zeros(3))
        out = predict_segment(model, np.ones(4))
        np.testing.assert_allclose(out, 0.5)

    def test_logit_clamp(self):
        model = toy_model([[1000.0]], [0.0])
        out = predict_segment(model, np.array([1.0]))
        assert out[0] == pytest.approx(1.0 / (1.0 + math.exp(-30.0)))

    def test_orthogonal_feature(self):
        model = toy_model([[1.0, 0.0]], [0.0])
        assert predict_segment(model, np.array([0.0, 5.0]))[0] == 0.5

    def test_dimension_mismatch(self):
        model = toy_model([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError):
            predict_segment(model, np.zeros(3))


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


class TestProposalPrediction:
    def grid(self, rows):
        meta = VideoMeta("v", 16.0, fps=16.0)
        return SegmentGrid(meta, np.asarray(rows, float))

    def test_identical_segments(self):
        model = toy_model([[0.5, -0.2], [0.1, 0.3]], [0.0, 0.1])
        grid = self.grid([[1.0, 2.0]] * 4)
        pooled = predict_proposal(model, grid, TimeInterval(0, 16), k=4)
        np.testing.assert_allclose(pooled,
                                   predict_segment(model, grid.features[0]))

    def test_max_rule(self):
        # craft logits so segment probabilities are (0.2, 0.9) and (0.7, 0.1)
        def logit(p):
            return math.log(p / (1 - p))
        model = toy_model([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        grid = self.grid([[logit(0.2), logit(0.9)], [logit(0.7), logit(0.1)],
                          [logit(0.2), logit(0.9)], [logit(0.7), logit(0.1)]])
        pooled = predict_proposal(model, grid, TimeInterval(0, 16), k=4)
        np.testing.assert_allclose(pooled, [0.7, 0.9], atol=1e-12)

    def test_dominates_segment_predictions(self):
        rng = np.random.default_rng(8)
        model = toy_model(rng.standard_normal((3, 5)), rng.standard_normal(3))
        grid = self.grid(rng.standard_normal((4, 5)))
        proposal = TimeInterval(0, 16)
        pooled = predict_proposal(model, grid, proposal, k=4)
        for row in grid.features:
            assert (pooled >= predict_segment(model, row) - 1e-12).all()


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
        ("weight_init_scale", math.nan), ("weight_init_scale", math.inf),
        ("weight_init_scale", -0.01),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_init_scale_allowed(self):
        assert TrainConfig(weight_init_scale=0.0).weight_init_scale == 0.0

    def test_default_config_is_not_shared(self):
        assert inspect.signature(train).parameters["cfg"].default is None
        _, trace = train(make_separable_miml(10, seed=4))
        assert len(trace) == TrainConfig().epochs

    def test_divergence_is_a_value_error(self):
        assert issubclass(TrainingDiverged, ValueError)


class TestTraining:
    def test_zero_learning_rate_keeps_init(self):
        examples = make_separable_miml(20, seed=1)
        cfg_a = TrainConfig(learning_rate=1e-12, epochs=2, seed=3)
        model, _ = train(examples, cfg_a)
        rng = np.random.default_rng(3)
        init_W = rng.normal(scale=cfg_a.weight_init_scale,
                            size=(4, 16))
        np.testing.assert_allclose(model.W, init_W, atol=1e-9)

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
        model, trace = train(examples, cfg)
        bags = [ex.grid.features[select_even_segments(ex.proposal, ex.grid.meta,
                                                      cfg.k_segments)]
                for ex in examples]
        labels = np.stack([ex.labels for ex in examples])
        W, b, want = oracle_train(bags, labels, cfg.learning_rate, cfg.epochs,
                                  cfg.batch_size, cfg.seed, cfg.weight_init_scale)
        assert same_bits(model.W, W)
        assert same_bits(model.b, b)
        assert trace == want


class TestAssignSegmentLabels:
    def test_full_cover(self):
        meta = VideoMeta("v", 16.0, fps=16.0)
        labels = assign_segment_labels([TimeInterval(0, 16)],
                                       [np.array([1.0, 0.0])], meta)
        assert labels.shape == (4, 2)
        np.testing.assert_array_equal(labels, [[1, 0]] * 4)

    def test_uncovered_zero(self):
        meta = VideoMeta("v", 16.0, fps=16.0)
        labels = assign_segment_labels([TimeInterval(0, 4)],
                                       [np.array([1.0])], meta)
        np.testing.assert_array_equal(labels.ravel(), [1, 0, 0, 0])

    def test_overlap_takes_or(self):
        meta = VideoMeta("v", 16.0, fps=16.0)
        labels = assign_segment_labels(
            [TimeInterval(0, 8), TimeInterval(4, 16)],
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])], meta)
        np.testing.assert_array_equal(labels[1], [1, 1])


class TestModelIO:
    @pytest.mark.parametrize("binary", [True, False])
    def test_round_trip(self, tmp_path, binary):
        rng = np.random.default_rng(6)
        model = toy_model(rng.standard_normal((3, 5)), rng.standard_normal(3),
                          names=["run", "jump", "swim"])
        path = tmp_path / "model.bin"
        save_model(model, path, binary=binary)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.W, model.W)
        np.testing.assert_array_equal(loaded.b, model.b)
        assert loaded.vocabulary.concepts == model.vocabulary.concepts

    @pytest.mark.parametrize("cut", range(1, 17))
    def test_truncated_binary_model_rejected(self, tmp_path, cut):
        path = tmp_path / "model.bin"
        save_model(toy_model(np.ones((2, 3)), np.zeros(2)), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(CorpusFormatError):
            load_model(path)

    @pytest.mark.parametrize("key", ["n_concepts", "dim", "vocabulary"])
    def test_header_field_required(self, tmp_path, rewrite_header, key):
        path = tmp_path / "model.bin"
        save_model(toy_model(np.ones((2, 3)), np.zeros(2)), path)
        rewrite_header(path, lambda header: header.pop(key))
        with pytest.raises(CorpusFormatError, match=key):
            load_model(path)

    @pytest.mark.parametrize("keep", [4, 6, 10])
    def test_cut_header_rejected(self, tmp_path, keep):
        path = tmp_path / "model.bin"
        save_model(toy_model(np.ones((2, 3)), np.zeros(2)), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(CorpusFormatError):
            load_model(path)
