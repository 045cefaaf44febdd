import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pixtext import tensor as T
from pixtext.encoders import FeatureMap, TextEmbeddings
from pixtext.matching import (
    BoxAnnotation,
    DetTarget,
    LossConfig,
    ScoreMap,
    SegTarget,
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
        target = SegTarget(y=np.arange(cells) % k)
        for tau in (0.07, 1.0):
            loss = seg_aux_loss(score, target, LossConfig(temperature=tau))
            assert abs(loss.item() - math.log(k)) < 1e-9

    def test_temperature_sharpens_margin(self):
        # correct class leads by 0.2 everywhere
        s = np.full((4, 3), 0.1)
        s[:, 1] = 0.3
        score = ScoreMap(s=T.Tensor(s), h4=2, w4=2, k=3)
        target = SegTarget(y=np.full(4, 1))
        sharp = seg_aux_loss(score, target, LossConfig(temperature=0.07)).item()
        soft = seg_aux_loss(score, target, LossConfig(temperature=1.0)).item()
        assert sharp < soft

    def test_perfect_scores_at_low_temperature(self):
        k, cells = 4, 8
        y = np.arange(cells) % k
        s = np.full((cells, k), -1.0)
        s[np.arange(cells), y] = 1.0
        score = ScoreMap(s=T.Tensor(s), h4=2, w4=4, k=k)
        loss = seg_aux_loss(score, SegTarget(y=y), LossConfig(temperature=0.07))
        assert loss.item() < 1e-10

    def test_label_out_of_range(self):
        score = ScoreMap(s=T.Tensor(np.zeros((2, 3))), h4=1, w4=2, k=3)
        with pytest.raises(IndexError):
            seg_aux_loss(score, SegTarget(y=np.array([0, 3])), LossConfig())

    def test_raising_true_class_score_lowers_loss(self, rng):
        s = np.clip(rng.uniform(-0.5, 0.5, (5, 4)), -1, 1)
        y = rng.integers(0, 4, size=5)
        cfg = LossConfig()
        base = seg_aux_loss(ScoreMap(s=T.Tensor(s), h4=1, w4=5, k=4), SegTarget(y=y), cfg).item()
        for i in range(5):
            bumped = s.copy()
            bumped[i, y[i]] = min(1.0, bumped[i, y[i]] + 0.1)
            loss = seg_aux_loss(ScoreMap(s=T.Tensor(bumped), h4=1, w4=5, k=4),
                                SegTarget(y=y), cfg).item()
            assert loss < base

    def test_gradcheck_wrt_scores(self, rng):
        y = rng.integers(0, 3, size=4)

        def f(s):
            return seg_aux_loss(ScoreMap(s=T.clamp(T.tanh(s), -1, 1), h4=2, w4=2, k=3),
                                SegTarget(y=y), LossConfig())

        report = T.grad_check(f, [T.Tensor(rng.standard_normal((4, 3)))], tol=1e-5)
        assert report.passed


class TestRasterize:
    def test_full_cover_box(self):
        target = rasterize_boxes([BoxAnnotation(3, 0.0, 0.0, 1.0, 1.0)], 4, 4, 5)
        assert np.all(target.y[:, 3] == 1.0)
        other = np.delete(target.y, 3, axis=1)
        assert np.all(other == 0.0)

    def test_empty_list_gives_zeros(self):
        target = rasterize_boxes([], 3, 3, 4)
        assert np.all(target.y == 0.0)

    def test_overlapping_classes_set_multiple_columns(self):
        boxes = [BoxAnnotation(0, 0.0, 0.0, 0.6, 0.6), BoxAnnotation(1, 0.4, 0.4, 1.0, 1.0)]
        target = rasterize_boxes(boxes, 2, 2, 2)
        # the lower-right cell center (0.75, 0.75) is in box 1 only; the
        # upper-left (0.25, 0.25) in box 0 only; the off-diagonal cells in both?
        expected = brute_force_rasterize(boxes, 2, 2, 2)
        assert np.array_equal(target.y, expected)

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
        assert np.array_equal(target.y, brute_force_rasterize(boxes, h4, w4, 3))

    def test_malformed_box_rejected(self):
        with pytest.raises(ValueError):
            BoxAnnotation(0, 0.5, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            BoxAnnotation(0, 0.0, 0.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            rasterize_boxes([BoxAnnotation(7, 0.0, 0.0, 1.0, 1.0)], 2, 2, 3)


class TestDetAuxLoss:
    def test_zero_scores_give_log_two(self, rng):
        score = ScoreMap(s=T.Tensor(np.zeros((4, 3))), h4=2, w4=2, k=3)
        target = DetTarget(y=(rng.random((4, 3)) < 0.5).astype(float))
        loss = det_aux_loss(score, target, LossConfig())
        assert abs(loss.item() - math.log(2.0)) < 1e-9

    def test_confident_correct_scores_near_zero(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = np.where(y == 1.0, 1.0, -1.0)
        score = ScoreMap(s=T.Tensor(s), h4=1, w4=2, k=2)
        loss = det_aux_loss(score, DetTarget(y=y), LossConfig(temperature=0.07))
        # sigma(+-1/0.07) saturates; direct evaluation gives ~6.3e-7
        assert loss.item() < 1e-6

    def test_matches_naive_formula(self, rng):
        s = np.clip(rng.uniform(-1, 1, (3, 4)), -1, 1)
        y = (rng.random((3, 4)) < 0.5).astype(float)
        cfg = LossConfig(temperature=0.3)
        x = s / cfg.temperature
        sig = 1.0 / (1.0 + np.exp(-x))
        expected = -(y * np.log(sig) + (1 - y) * np.log(1 - sig)).mean()
        loss = det_aux_loss(ScoreMap(s=T.Tensor(s), h4=1, w4=3, k=4), DetTarget(y=y), cfg)
        assert abs(loss.item() - expected) < 1e-10

    def test_shape_mismatch_rejected(self):
        score = ScoreMap(s=T.Tensor(np.zeros((2, 2))), h4=1, w4=2, k=2)
        with pytest.raises(T.ShapeError):
            det_aux_loss(score, DetTarget(y=np.zeros((3, 2))), LossConfig())


class TestScoreMapExport:
    def test_dct1_and_sidecar(self, tmp_path, rng):
        import json

        from pixtext.matching import export_score_map
        from pixtext.tensor import read_dct1

        s = np.clip(rng.uniform(-1, 1, (4, 2)), -1, 1)
        score = ScoreMap(s=T.Tensor(s), h4=2, w4=2, k=2)
        export_score_map(score, ["bg", "thing"], tmp_path / "score")
        assert np.array_equal(read_dct1(tmp_path / "score.dct1"), s)
        sidecar = json.loads((tmp_path / "score.json").read_text())
        assert sidecar == {"h4": 2, "w4": 2, "k": 2, "class_names": ["bg", "thing"]}

    def test_export_of_stacked_maps_records_image_count(self, tmp_path):
        import json

        from pixtext.matching import export_score_map

        score = ScoreMap(s=T.Tensor(np.zeros((8, 2))), h4=2, w4=2, k=2, n=2)
        export_score_map(score, ["bg", "thing"], tmp_path / "score")
        assert json.loads((tmp_path / "score.json").read_text())["n"] == 2


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
