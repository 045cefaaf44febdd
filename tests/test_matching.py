import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pixtext import tensor as T
from pixtext.encoders import FeatureMap, TextEmbeddings
from pixtext.matching import (
    BoxAnnotation,
    LossConfig,
    ScoreMap,
    compute_score_map,
    det_aux_loss,
    fuse_features,
    rasterize_boxes,
    seg_aux_loss,
)


def embeddings(arr):
    return TextEmbeddings(t=T.Tensor(arr), class_count=arr.shape[0])


def brute_force_cosines(z, t):
    out = np.empty((z.shape[0], t.shape[0]))
    for i in range(z.shape[0]):
        for k in range(t.shape[0]):
            out[i, k] = np.dot(z[i], t[k]) / (np.linalg.norm(z[i]) * np.linalg.norm(t[k]))
    return out


def brute_force_rasterize(boxes, h4, w4, k):
    y = np.zeros((h4 * w4, k))
    for r in range(h4):
        for c in range(w4):
            cx, cy = (c + 0.5) / w4, (r + 0.5) / h4
            for b in boxes:
                if b.x_min <= cx < b.x_max and b.y_min <= cy < b.y_max:
                    y[r * w4 + c, b.class_id] = 1.0
    return y


class TestScoreMap:
    def test_identical_rows_give_unit_diagonal(self, rng):
        z = rng.standard_normal((4, 6))
        score = compute_score_map(T.Tensor(z), embeddings(z.copy()), 2, 2)
        assert np.allclose(np.diag(score.s.data), 1.0, atol=1e-12)

    def test_antipodal_rows_give_minus_one(self, rng):
        z = rng.standard_normal((1, 6))
        score = compute_score_map(T.Tensor(z), embeddings(-z), 1, 1)
        assert abs(score.s.data[0, 0] + 1.0) < 1e-12

    def test_matches_brute_force_oracle(self, rng):
        z = rng.standard_normal((6, 5))
        t = rng.standard_normal((3, 5))
        score = compute_score_map(T.Tensor(z), embeddings(t), 2, 3)
        assert np.max(np.abs(score.s.data - brute_force_cosines(z, t))) < 1e-12

    def test_entries_bounded(self, rng):
        z = rng.standard_normal((8, 4)) * 100
        t = rng.standard_normal((5, 4)) * 100
        score = compute_score_map(T.Tensor(z), embeddings(t), 2, 4)
        assert np.all(score.s.data >= -1.0) and np.all(score.s.data <= 1.0)

    def test_scale_invariance(self, rng):
        z = rng.standard_normal((4, 5))
        t = rng.standard_normal((3, 5))
        base = compute_score_map(T.Tensor(z), embeddings(t), 2, 2).s.data
        z2 = z.copy()
        z2[1] *= 37.0
        t2 = t.copy()
        t2[0] *= 0.003
        scaled = compute_score_map(T.Tensor(z2), embeddings(t2), 2, 2).s.data
        assert np.max(np.abs(scaled - base)) < 1e-10

    def test_dim_mismatch_rejected(self, rng):
        with pytest.raises(T.ShapeError):
            compute_score_map(T.Tensor(np.zeros((2, 4))), embeddings(np.zeros((2, 5))), 1, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0),
                                       np.nextafter(-1.0, -2.0)])
    def test_entries_outside_unit_range_rejected(self, value):
        s = np.zeros((2, 3))
        s[1, 2] = value
        with pytest.raises(T.ContractError, match=r"must lie in \[-1, 1\]"):
            ScoreMap(s=T.Tensor(s), h4=1, w4=2, k=3)

    def test_unit_range_bounds_accepted(self):
        ScoreMap(s=T.Tensor([[1.0, -1.0, 0.0], [-0.0, 0.5, -1.0]]), h4=1, w4=2, k=3)


class TestFuseFeatures:
    def test_channel_counts_add(self, rng):
        fm = FeatureMap(h4=1, w4=2, c=3, values=T.Tensor(rng.standard_normal((2, 3))))
        s = T.clamp(T.Tensor(rng.uniform(-1, 1, (2, 150))), -1, 1)
        fused = fuse_features(fm, ScoreMap(s=s, h4=1, w4=2, k=150))
        assert fused.c == 153
        assert fused.values.shape == (2, 153)

    def test_zero_class_stub_is_identity(self, rng):
        fm = FeatureMap(h4=1, w4=2, c=3, values=T.Tensor(rng.standard_normal((2, 3))))
        stub = ScoreMap(s=T.Tensor(np.zeros((2, 0))), h4=1, w4=2, k=0)
        fused = fuse_features(fm, stub)
        assert np.array_equal(fused.values.data, fm.values.data)

    def test_slices_recover_parts_exactly(self, rng):
        x = rng.standard_normal((4, 3))
        s = np.clip(rng.uniform(-1, 1, (4, 2)), -1, 1)
        fm = FeatureMap(h4=2, w4=2, c=3, values=T.Tensor(x))
        fused = fuse_features(fm, ScoreMap(s=T.Tensor(s), h4=2, w4=2, k=2))
        assert np.array_equal(fused.values.data[:, :3], x)
        assert np.array_equal(fused.values.data[:, 3:], s)

    def test_spatial_mismatch_rejected(self, rng):
        fm = FeatureMap(h4=2, w4=2, c=3, values=T.Tensor(np.zeros((4, 3))))
        with pytest.raises(T.ShapeError):
            fuse_features(fm, ScoreMap(s=T.Tensor(np.zeros((2, 1))), h4=1, w4=2, k=1))


class TestSegAuxLoss:
    @pytest.mark.parametrize("k", [2, 8, 150])
    def test_uniform_scores_give_log_k(self, k):
        cells = 6
        score = ScoreMap(s=T.Tensor(np.full((cells, k), 0.25)), h4=2, w4=3, k=k)
        target = np.arange(cells) % k
        for tau in (0.07, 1.0):
            loss = seg_aux_loss(score, target, LossConfig(temperature=tau))
            assert abs(loss.item() - math.log(k)) < 1e-9

    def test_temperature_sharpens_margin(self):
        # correct class leads by 0.2 everywhere
        s = np.full((4, 3), 0.1)
        s[:, 1] = 0.3
        score = ScoreMap(s=T.Tensor(s), h4=2, w4=2, k=3)
        target = np.full(4, 1)
        sharp = seg_aux_loss(score, target, LossConfig(temperature=0.07)).item()
        soft = seg_aux_loss(score, target, LossConfig(temperature=1.0)).item()
        assert sharp < soft

    def test_perfect_scores_at_low_temperature(self):
        k, cells = 4, 8
        y = np.arange(cells) % k
        s = np.full((cells, k), -1.0)
        s[np.arange(cells), y] = 1.0
        score = ScoreMap(s=T.Tensor(s), h4=2, w4=4, k=k)
        loss = seg_aux_loss(score, y, LossConfig(temperature=0.07))
        assert loss.item() < 1e-10

    def test_label_out_of_range(self):
        score = ScoreMap(s=T.Tensor(np.zeros((2, 3))), h4=1, w4=2, k=3)
        # a one-hot gather would take -1 as the last class
        for labels in ([0, 3], [0, -1]):
            with pytest.raises(IndexError, match=r"^seg_aux_loss label out of range \[0, 3\)$"):
                seg_aux_loss(score, np.array(labels), LossConfig())

    @pytest.mark.parametrize("labels, error, cause", [
        # a cast would floor 2.9 to class 2
        (np.array([0.0, 2.9]), T.ContractError,
         r"^seg_aux_loss needs integer labels, got dtype float64$"),
        (np.array([True, False]), T.ContractError, r"got dtype bool$"),
        (np.array([0, 1, 2]), T.ShapeError,
         r"^seg_aux_loss labels shape \(3,\), expected \(2,\): one per cell$"),
        (np.array([[0], [1]]), T.ShapeError, r"labels shape \(2, 1\), expected \(2,\)"),
    ], ids=["float", "bool", "count", "column"])
    def test_bad_labels_named(self, labels, error, cause):
        score = ScoreMap(s=T.Tensor(np.zeros((2, 3))), h4=1, w4=2, k=3)
        with pytest.raises(error, match=cause):
            seg_aux_loss(score, labels, LossConfig())

    def test_raising_true_class_score_lowers_loss(self, rng):
        s = np.clip(rng.uniform(-0.5, 0.5, (5, 4)), -1, 1)
        y = rng.integers(0, 4, size=5)
        cfg = LossConfig()
        base = seg_aux_loss(ScoreMap(s=T.Tensor(s), h4=1, w4=5, k=4), y, cfg).item()
        for i in range(5):
            bumped = s.copy()
            bumped[i, y[i]] = min(1.0, bumped[i, y[i]] + 0.1)
            loss = seg_aux_loss(ScoreMap(s=T.Tensor(bumped), h4=1, w4=5, k=4), y, cfg).item()
            assert loss < base

    def test_gradcheck_wrt_scores(self, rng):
        y = rng.integers(0, 3, size=4)

        def f(s):
            return seg_aux_loss(ScoreMap(s=s, h4=2, w4=2, k=3), y, LossConfig())

        # inside (-1, 1) with room for the difference step
        report = T.grad_check(f, [T.Tensor(rng.uniform(-0.9, 0.9, (4, 3)))], tol=1e-5)
        assert report.passed


class TestRasterize:
    def test_full_cover_box(self):
        target = rasterize_boxes([BoxAnnotation(3, 0.0, 0.0, 1.0, 1.0)], 4, 4, 5)
        assert np.all(target[:, 3] == 1.0)
        other = np.delete(target, 3, axis=1)
        assert np.all(other == 0.0)

    def test_empty_list_gives_zeros(self):
        target = rasterize_boxes([], 3, 3, 4)
        assert np.all(target == 0.0)

    def test_overlapping_classes_set_multiple_columns(self):
        boxes = [BoxAnnotation(0, 0.0, 0.0, 0.6, 0.6), BoxAnnotation(1, 0.4, 0.4, 1.0, 1.0)]
        target = rasterize_boxes(boxes, 2, 2, 2)
        # the lower-right cell center (0.75, 0.75) is in box 1 only; the
        # upper-left (0.25, 0.25) in box 0 only; the off-diagonal cells in both?
        expected = brute_force_rasterize(boxes, 2, 2, 2)
        assert np.array_equal(target, expected)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, h4, w4, data):
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
        boxes = []
        for _ in range(rng.integers(0, 5)):
            x0, x1 = np.sort(rng.uniform(0, 1, 2))
            y0, y1 = np.sort(rng.uniform(0, 1, 2))
            if x1 - x0 < 1e-6 or y1 - y0 < 1e-6:
                continue
            boxes.append(BoxAnnotation(int(rng.integers(0, 3)), x0, y0, x1, y1))
        target = rasterize_boxes(boxes, h4, w4, 3)
        assert np.array_equal(target, brute_force_rasterize(boxes, h4, w4, 3))

    def test_malformed_box_rejected(self):
        with pytest.raises(ValueError):
            BoxAnnotation(0, 0.5, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            BoxAnnotation(0, 0.0, 0.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            rasterize_boxes([BoxAnnotation(7, 0.0, 0.0, 1.0, 1.0)], 2, 2, 3)
        # numpy reads a bool index as a new axis: a `True` box would mark every class
        with pytest.raises(ValueError, match=r"^BoxAnnotation\.class_id must be an integer "
                                             r"of at least 0, got True$"):
            BoxAnnotation(class_id=True, x_min=0.0, y_min=0.0, x_max=1.0, y_max=1.0)


class TestDetAuxLoss:
    def test_zero_scores_give_log_two(self, rng):
        score = ScoreMap(s=T.Tensor(np.zeros((4, 3))), h4=2, w4=2, k=3)
        target = (rng.random((4, 3)) < 0.5).astype(float)
        loss = det_aux_loss(score, target, LossConfig())
        assert abs(loss.item() - math.log(2.0)) < 1e-9

    def test_confident_correct_scores_near_zero(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = np.where(y == 1.0, 1.0, -1.0)
        score = ScoreMap(s=T.Tensor(s), h4=1, w4=2, k=2)
        loss = det_aux_loss(score, y, LossConfig(temperature=0.07))
        # sigma(+-1/0.07) saturates; direct evaluation gives ~6.3e-7
        assert loss.item() < 1e-6

    def test_matches_naive_formula(self, rng):
        s = np.clip(rng.uniform(-1, 1, (3, 4)), -1, 1)
        y = (rng.random((3, 4)) < 0.5).astype(float)
        cfg = LossConfig(temperature=0.3)
        x = s / cfg.temperature
        sig = 1.0 / (1.0 + np.exp(-x))
        expected = -(y * np.log(sig) + (1 - y) * np.log(1 - sig)).mean()
        loss = det_aux_loss(ScoreMap(s=T.Tensor(s), h4=1, w4=3, k=4), y, cfg)
        assert abs(loss.item() - expected) < 1e-10

    def test_shape_mismatch_rejected(self):
        score = ScoreMap(s=T.Tensor(np.zeros((2, 2))), h4=1, w4=2, k=2)
        with pytest.raises(T.ShapeError):
            det_aux_loss(score, np.zeros((3, 2)), LossConfig())


class TestInvariants:
    def test_score_map_constructor_enforces_bounds(self):
        with pytest.raises(T.ContractError):
            ScoreMap(s=T.Tensor(np.array([[1.5]])), h4=1, w4=1, k=1)

    def test_loss_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(temperature=0.0)
        with pytest.raises(ValueError):
            LossConfig(aux_weight=-0.1)
        assert LossConfig().temperature == 0.07
        assert LossConfig().aux_weight == 0.4

    @pytest.mark.parametrize("field, value", [
        ("temperature", math.nan), ("temperature", "0.07"), ("temperature", math.inf),
        ("aux_weight", math.inf), ("aux_weight", True),
    ])
    def test_loss_config_field_named(self, field, value):
        with pytest.raises(ValueError, match=rf"^LossConfig\.{field} must be a finite number"):
            LossConfig(**{field: value})
