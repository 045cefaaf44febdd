import json

import numpy as np
import pytest

from pixtext import tensor as T
from pixtext.datagen import TaskSpec, generate
from pixtext.encoders import ImageEncoderConfig, ToyImageEncoder
from pixtext.harness import OptimConfig, train
from pixtext.matching import SegTarget, compute_score_map, fuse_features, seg_aux_loss
from pixtext.pipeline import (
    PipelineConfig,
    build_pipeline,
    export_prediction,
    load_checkpoint,
    micro_config,
    rng_for,
    save_checkpoint,
    swap_backbone,
    toy_config,
)
from pixtext.tensor import ContractError, cross_entropy


class TestForwardShapes:
    def test_toy_segmentation_shapes(self, toy_spec, toy_samples):
        pipe = build_pipeline(toy_config("coop"), toy_spec.class_names, seed=0)
        out = pipe.forward([toy_samples[0].image], [toy_samples[0].mask])
        assert out.score.s.shape == (64, 8)
        assert out.main_logits.shape == (1024, 8)
        fm, _ = pipe.encode_image(toy_samples[0].image)
        fused = fuse_features(fm, out.score)
        assert fused.c == 32 + 8

    def test_breakdown_identity(self, toy_spec, toy_samples):
        pipe = build_pipeline(toy_config("coop"), toy_spec.class_names, seed=0)
        out = pipe.forward([toy_samples[0].image], [toy_samples[0].mask])
        b = out.breakdown
        assert abs(b["total"] - (b["main"] + 0.4 * b["aux"])) < 1e-12
        assert abs(out.loss.item() - b["total"]) < 1e-15

    def test_baseline_has_no_score_map_but_same_head_width(self, toy_spec, toy_samples):
        pipe = build_pipeline(toy_config(None), toy_spec.class_names, seed=0)
        out = pipe.forward([toy_samples[0].image], [toy_samples[0].mask])
        assert out.score is None
        assert out.breakdown["aux"] == 0.0
        assert out.breakdown["total"] == out.breakdown["main"]
        assert pipe.head.in_dim == 32 + 8

    @pytest.mark.parametrize("swap", [False, True], ids=["own", "swapped_adapter"])
    def test_baseline_skips_the_attention_pool(self, micro_spec, micro_sample, monkeypatch, swap):
        pipe = build_pipeline(micro_config(None), micro_spec.class_names, seed=0)
        if swap:
            pipe = swap_backbone(pipe, ToyImageEncoder(
                ImageEncoderConfig(patch=4, width=12, blocks=1, heads=2, out_dim=12),
                rng_for(99, "swapped"),
            ))
        calls = []
        monkeypatch.setattr(pipe.image_encoder, "encode", lambda *a: calls.append(a))
        fm, pooled = pipe.encode_image(micro_sample.image)
        assert pooled is None and fm.c == 8
        pipe.forward([micro_sample.image], [micro_sample.mask])
        pipe.predict(micro_sample.image)
        assert calls == []

    def test_mode_target_mismatch_rejected(self, micro_spec, micro_sample):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        with pytest.raises(ContractError):
            pipe.forward([micro_sample.image], [np.zeros(3, dtype=int)])


class TestDetectionAux:
    def test_detection_never_runs_decode_head(self, micro_spec, micro_sample):
        cfg = micro_config("coop")
        cfg.task_mode = "detection"
        pipe = build_pipeline(cfg, micro_spec.class_names, seed=1)
        out = pipe.forward([micro_sample.image], [micro_sample.boxes])
        assert out.main_logits is None
        assert pipe.head is None
        assert out.breakdown["total"] == out.breakdown["aux"]

    def test_unknown_task_mode_rejected(self, micro_spec):
        cfg = micro_config("coop")
        cfg.task_mode = "banana"
        with pytest.raises(ValueError, match="banana"):
            build_pipeline(cfg, micro_spec.class_names, seed=1)

    def test_detection_requires_language_path(self, micro_spec):
        cfg = micro_config(None)
        cfg.task_mode = "detection"
        with pytest.raises(ContractError):
            build_pipeline(cfg, micro_spec.class_names, seed=1)


class TestSharedScorePath:
    def test_text_gradient_flows_through_both_paths(self, micro_spec, micro_sample):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        path = pipe.text_path
        fm, pooled = pipe.encode_image(micro_sample.image)
        fine_to_coarse, coarse_centers = pipe._maps_for(8, 8)

        def build_losses():
            t = path.embeddings(pooled)
            score = compute_score_map(pooled.dense, t, fm.h4, fm.w4)
            fused = fuse_features(fm, score)
            logits = T.take(pipe.head(fused.values), fine_to_coarse)
            main = cross_entropy(logits, micro_sample.mask)
            aux = seg_aux_loss(score, SegTarget(y=micro_sample.mask[coarse_centers]),
                               pipe.loss_cfg)
            return main, aux

        main, _ = build_losses()
        path.contexts.grad = None
        T.backward(main)
        main_grad = path.contexts.grad
        assert main_grad is not None and np.any(main_grad != 0)

        T.reset_tape()
        _, aux = build_losses()
        path.contexts.grad = None
        T.backward(aux)
        aux_grad = path.contexts.grad
        assert aux_grad is not None and np.any(aux_grad != 0)


class TestAblationIdentity:
    def test_post_with_zero_gate_matches_coop_bitwise(self, toy_spec, toy_samples):
        coop = build_pipeline(toy_config("coop"), toy_spec.class_names, seed=3)
        post = build_pipeline(toy_config("post"), toy_spec.class_names, seed=3)
        post.text_path.gamma.data = np.zeros_like(post.text_path.gamma.data)
        for s in toy_samples[:3]:
            a = coop.forward([s.image], [s.mask])
            b = post.forward([s.image], [s.mask])
            assert a.loss.item() == b.loss.item()
            assert np.array_equal(a.main_logits.data, b.main_logits.data)
            assert np.array_equal(a.score.s.data, b.score.s.data)

    def test_post_with_zero_gate_matches_coop_bitwise_on_a_batch(self, toy_spec, toy_samples):
        # coop shares K text rows across the batch; post refines one copy per image
        coop = build_pipeline(toy_config("coop"), toy_spec.class_names, seed=3)
        post = build_pipeline(toy_config("post"), toy_spec.class_names, seed=3)
        post.text_path.gamma.data = np.zeros_like(post.text_path.gamma.data)
        images, masks = [s.image for s in toy_samples[:4]], [s.mask for s in toy_samples[:4]]
        a, b = coop.forward(images, masks), post.forward(images, masks)
        assert a.loss.item() == b.loss.item()
        assert np.array_equal(a.main_logits.data, b.main_logits.data)
        assert np.array_equal(a.score.s.data, b.score.s.data)


class TestPredict:
    def test_deterministic(self, micro_spec, micro_sample):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        a = pipe.predict(micro_sample.image)
        b = pipe.predict(micro_sample.image)
        assert np.array_equal(a, b)

    def test_tie_breaks_to_lowest_class(self, micro_spec, micro_sample):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        # zero head -> all logits equal -> argmax must pick class 0 everywhere
        pipe.head.fc2.weight.data[:] = 0.0
        pipe.head.fc2.bias.data[:] = 0.0
        pred = pipe.predict(micro_sample.image)
        assert np.all(pred == 0)

    def test_unique_maxima(self, micro_spec, micro_sample):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        pipe.head.fc2.weight.data[:] = 0.0
        pipe.head.fc2.bias.data[:] = np.array([0.0, 5.0])
        pred = pipe.predict(micro_sample.image)
        assert np.all(pred == 1)


class TestSwapBackbone:
    def test_text_path_untouched_bitwise(self, micro_spec, micro_sample):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        t_before = pipe.text_path.base_embeddings().t.data.copy()
        new_enc = ToyImageEncoder(
            ImageEncoderConfig(patch=4, width=12, blocks=1, heads=2, out_dim=12),
            rng_for(99, "swapped"),
        )
        swapped = swap_backbone(pipe, new_enc)
        t_after = swapped.text_path.base_embeddings().t.data
        assert np.array_equal(t_before, t_after)
        assert swapped.text_path is pipe.text_path

    def test_adapter_inserted_for_mismatched_dims(self, micro_spec, micro_sample):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        new_enc = ToyImageEncoder(
            ImageEncoderConfig(patch=4, width=12, blocks=1, heads=2, out_dim=12),
            rng_for(99, "swapped"),
        )
        swapped = swap_backbone(pipe, new_enc)
        assert swapped.backbone_adapter is not None
        out = swapped.forward([micro_sample.image], [micro_sample.mask])
        fm, _ = swapped.encode_image(micro_sample.image)
        fused = fuse_features(fm, out.score)
        assert fused.c == 8 + 2  # shared dim + classes, independent of backbone width

    def test_matching_dims_need_no_adapter(self, micro_spec):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        new_enc = ToyImageEncoder(
            ImageEncoderConfig(patch=4, width=8, blocks=1, heads=2, out_dim=8),
            rng_for(99, "swapped"),
        )
        swapped = swap_backbone(pipe, new_enc)
        assert swapped.backbone_adapter is None


class TestSeedStreams:
    def test_component_streams_are_independent(self, toy_spec):
        # coop and post share every common component bitwise at the same seed
        coop = build_pipeline(toy_config("coop"), toy_spec.class_names, seed=5)
        post = build_pipeline(toy_config("post"), toy_spec.class_names, seed=5)
        coop_params = {n: p for n, p, _ in coop.parameters()}
        post_params = {n: p for n, p, _ in post.parameters()}
        shared = set(coop_params) & set(post_params)
        assert shared
        for name in shared:
            assert np.array_equal(coop_params[name].data, post_params[name].data), name

    def test_same_seed_same_pipeline(self, toy_spec, toy_samples):
        a = build_pipeline(toy_config("post"), toy_spec.class_names, seed=5)
        b = build_pipeline(toy_config("post"), toy_spec.class_names, seed=5)
        la = a.forward([toy_samples[0].image], [toy_samples[0].mask]).loss.item()
        lb = b.forward([toy_samples[0].image], [toy_samples[0].mask]).loss.item()
        assert la == lb


class TestCheckpoint:
    def test_roundtrip_preserves_params_and_predictions(self, tmp_path, micro_spec, micro_sample):
        pipe = build_pipeline(micro_config("post"), micro_spec.class_names, seed=2)
        save_checkpoint(pipe, tmp_path / "ckpt")
        back = load_checkpoint(tmp_path / "ckpt")
        for (n1, p1, g1), (n2, p2, g2) in zip(pipe.parameters(), back.parameters()):
            assert n1 == n2 and g1 == g2
            assert np.array_equal(p1.data, p2.data)
        assert np.array_equal(pipe.predict(micro_sample.image), back.predict(micro_sample.image))

    def test_fixed_gate_roundtrip(self, tmp_path, micro_spec):
        cfg = micro_config("post")
        cfg.gate_preset = "fixed_small"
        pipe = build_pipeline(cfg, micro_spec.class_names, seed=2)
        samples = generate(micro_spec, 4, seed=5)
        train(pipe, (samples, samples[:1]), OptimConfig(steps=2, seed=2))
        save_checkpoint(pipe, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert "text.gate.gamma" not in manifest["params"]
        assert all(set(e) == {"file", "group"} for e in manifest["params"].values())
        back = load_checkpoint(tmp_path / "ckpt")
        images = [s.image for s in samples]
        assert np.array_equal(pipe.predict(images), back.predict(images))
        assert np.array_equal(back.text_path.gamma.data, pipe.text_path.gamma.data)

    def test_manifest_lists_groups(self, tmp_path, micro_spec):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=2)
        save_checkpoint(pipe, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        groups = {e["group"] for e in manifest["params"].values()}
        assert groups == {"image_encoder", "text_encoder", "other"}
        assert manifest["config"]["loss"]["temperature"] == 0.07


class TestConfigKeys:
    """Settings `build_pipeline` used to overwrite, force or ignore are gone;
    a dict (or checkpoint manifest) that carries one fails naming it."""

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d.update(shared_dim=8), "shared_dim"),
        (lambda d: d.update(context_init="random"), "context_init"),
        (lambda d: d["text"].update(out_dim=3), "out_dim"),
        (lambda d: d["text"].update(vocab_size=5), "vocab_size"),
    ], ids=["shared_dim", "context_init", "text.out_dim", "text.vocab_size"])
    def test_deleted_key_named(self, tmp_path, micro_spec, edit, key):
        d = micro_config("coop").to_dict()
        edit(d)
        with pytest.raises(TypeError, match=key):
            PipelineConfig.from_dict(d)
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        edit(manifest["config"])
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TypeError, match=key):
            load_checkpoint(tmp_path)

    def test_shared_width_is_the_image_out_dim(self, micro_spec):
        cfg = micro_config("post")
        cfg.image.out_dim = 12
        pipe = build_pipeline(cfg, micro_spec.class_names, seed=0)
        assert cfg.shared_dim == 12 and "shared_dim" not in cfg.to_dict()
        assert pipe.text_path.encoder.out_dim == 12
        assert pipe.text_path.gamma.shape == (12,)
        assert pipe.head.in_dim == 12 + pipe.k


class TestPredictionExport:
    def test_json_roundtrip(self, tmp_path):
        pred = np.array([0, 1, 2, 1])
        export_prediction(pred, 2, 2, tmp_path / "p.json", fmt="json")
        data = json.loads((tmp_path / "p.json").read_text())
        assert data == {"height": 2, "width": 2, "classes": [0, 1, 2, 1]}

    def test_pgm_p2_format(self, tmp_path):
        pred = np.array([0, 1, 2, 1])
        export_prediction(pred, 2, 2, tmp_path / "p.pgm", fmt="pgm")
        lines = (tmp_path / "p.pgm").read_text().strip().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "2"
        assert lines[3:] == ["0 1", "2 1"]


def _batch_and_singles(pipe, samples, target):
    """Batched forward and backward, then the same per image (N=1)."""
    def grads():
        return {n: None if p.grad is None else p.grad.copy() for n, p, _ in pipe.parameters()}

    def run(batch):
        T.reset_tape()
        for _, p, _ in pipe.parameters():
            p.grad = None
        out = pipe.forward([s.image for s in batch], [target(s) for s in batch])
        T.backward(out.loss)
        return out, grads()

    batched = run(samples)
    singles = [run([s]) for s in samples]
    T.reset_tape()
    return batched, singles


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestBatchEquivalence:
    """A batch of N equals the composition of N single-image calls: loss is
    the mean, logits and score maps stack, gradients average. Only float
    rounding differs (weight gradients are summed over stacked rows)."""

    CASES = {
        "none": dict(mode=None),
        "template": dict(mode="template"),
        "coop": dict(mode="coop"),
        "pre": dict(mode="pre"),
        "post": dict(mode="post"),
        "detection": dict(mode="coop", detection=True),
        "swapped_adapter": dict(mode="post", swap=True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batched_matches_per_image_calls(self, micro_spec, case):
        spec = self.CASES[case]
        cfg = micro_config(spec["mode"])
        if spec.get("detection"):
            cfg.task_mode = "detection"
        pipe = build_pipeline(cfg, micro_spec.class_names, seed=5)
        if spec.get("swap"):
            pipe = swap_backbone(pipe, ToyImageEncoder(
                ImageEncoderConfig(patch=4, width=12, blocks=1, heads=2, out_dim=12),
                rng_for(99, "swapped"),
            ))
        samples = generate(micro_spec, 3, seed=4)
        target = (lambda s: s.boxes) if spec.get("detection") else (lambda s: s.mask)
        (out, g_batch), singles = _batch_and_singles(pipe, samples, target)

        losses = [o.loss.item() for o, _ in singles]
        assert _rel(np.array(out.loss.item()), np.array(np.mean(losses))) <= 1e-12
        if out.main_logits is not None:
            stacked = np.concatenate([o.main_logits.data for o, _ in singles])
            assert _rel(out.main_logits.data, stacked) <= 1e-12
        if out.score is not None:
            stacked = np.concatenate([o.score.s.data for o, _ in singles])
            assert out.score.n == len(samples)
            assert _rel(out.score.s.data, stacked) <= 1e-12
        mean_grads = {
            name: None if g is None else sum(gs[name] for _, gs in singles) / len(samples)
            for name, g in singles[0][1].items()
        }
        # Gradients are compared at 1e-12 of the model's largest gradient
        # entry. Per parameter the bound is 1e-9: behind the post gate
        # (1e-4) the decoder's gradients are ~1e-12 of the rest, and key
        # biases have zero gradient in exact arithmetic, so their own ratios
        # measure rounding in the large terms.
        scale = max(np.max(np.abs(g)) for g in mean_grads.values() if g is not None)
        for name, g in g_batch.items():
            ref = mean_grads[name]
            if ref is None:
                assert g is None, name
                continue
            err = np.max(np.abs(g - ref))
            assert err <= 1e-12 * scale, name
            if not name.endswith("k_proj.bias"):
                assert err <= 1e-9 * np.max(np.abs(ref)), name

        if pipe.head is not None:
            batched = np.argmax(pipe.logits([s.image for s in samples]).data, axis=1)
            for i, s in enumerate(samples):
                assert np.array_equal(batched.reshape(len(samples), -1)[i], pipe.predict(s.image))

    def test_tape_length_does_not_grow_with_the_batch(self, micro_spec):
        pipe = build_pipeline(micro_config("post"), micro_spec.class_names, seed=5)
        samples = generate(micro_spec, 6, seed=4)
        lengths = []
        for n in (2, 6):
            T.reset_tape()
            pipe.forward([s.image for s in samples[:n]], [s.mask for s in samples[:n]])
            lengths.append(len(T.active_tape()))
        T.reset_tape()
        assert lengths[0] == lengths[1]


class TestInputChecks:
    def pipe(self, micro_spec):
        return build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)

    def test_non_finite_pixel_named_by_index(self, micro_spec):
        samples = generate(micro_spec, 2, seed=4)
        bad = T.Tensor(samples[1].image.data.copy())
        bad.data[3, 4, 1] = np.nan
        with pytest.raises(ContractError, match="image 1 has non-finite"):
            self.pipe(micro_spec).forward([samples[0].image, bad], [s.mask for s in samples])
        with pytest.raises(ContractError, match="image 0 has non-finite"):
            self.pipe(micro_spec).predict(bad)

    def test_wrong_channel_count_named_by_index(self, micro_spec, micro_sample):
        four = T.Tensor(np.zeros((8, 8, 4)))
        with pytest.raises(T.ShapeError, match="image 1: expected H x W x 3"):
            self.pipe(micro_spec).forward([micro_sample.image, four], [micro_sample.mask] * 2)

    def test_mixed_shapes_named_by_index(self, micro_spec, micro_sample):
        big = T.Tensor(np.zeros((16, 8, 3)))
        with pytest.raises(T.ShapeError, match="image 2 has shape"):
            self.pipe(micro_spec).logits([micro_sample.image, micro_sample.image, big])

    def test_target_count_and_mask_shape(self, micro_spec, micro_sample):
        pipe = self.pipe(micro_spec)
        with pytest.raises(ContractError, match="2 images but 1 targets"):
            pipe.forward([micro_sample.image] * 2, [micro_sample.mask])
        with pytest.raises(ContractError, match="mask 1 has shape"):
            pipe.forward([micro_sample.image] * 2, [micro_sample.mask, micro_sample.mask[:5]])

    def test_empty_batch_rejected(self, micro_spec):
        with pytest.raises(ContractError):
            self.pipe(micro_spec).forward([], [])


class TestCheckpointMissingParameter:
    def test_missing_parameter_named(self, tmp_path, micro_spec):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=2)
        save_checkpoint(pipe, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["params"]["head.fc1.bias"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(KeyError, match="head.fc1.bias"):
            load_checkpoint(tmp_path / "ckpt")


def _nearest_index(n, h, w, f=4):
    """Each pixel's row in n stacked (h/f x w/f) cell grids, built by hand."""
    r, c = np.meshgrid(np.arange(h) // f, np.arange(w) // f, indexing="ij")
    per_image = (r * (w // f) + c).reshape(-1)
    return (np.arange(n)[:, None] * ((h // f) * (w // f)) + per_image).reshape(-1)


class TestCellLoss:
    """The main loss runs on cells with per-cell label counts; it equals the
    per-pixel cross-entropy of the nearest-upsampled logits."""

    @pytest.mark.parametrize("config", ["micro", "toy"])
    def test_matches_pixel_cross_entropy(self, micro_spec, toy_spec, config):
        spec = micro_spec if config == "micro" else toy_spec
        make = micro_config if config == "micro" else toy_config
        pipe = build_pipeline(make("coop"), spec.class_names, seed=5)
        samples = generate(spec, 3, seed=4)
        with T.fresh_tape():
            out = pipe.forward([s.image for s in samples], [s.mask for s in samples])
        cells = out.cell_logits.data
        index = _nearest_index(3, spec.height, spec.width)
        labels = np.concatenate([s.mask for s in samples])
        counts = np.zeros(cells.shape, dtype=np.int64)
        np.add.at(counts, (index, labels), 1)
        assert np.any((counts > 0).sum(axis=1) > 1)  # some cells mix labels
        assert np.array_equal(out.pixel_index, index)

        x_pixel = T.Tensor(cells.copy(), requires_grad=True)
        x_cell = T.Tensor(cells.copy(), requires_grad=True)
        with T.fresh_tape():
            ref = T.cross_entropy(T.take(x_pixel, index), labels)
            T.backward(ref)
            cell = T.count_cross_entropy(x_cell, counts)
            T.backward(cell)
        assert abs(cell.item() - ref.item()) <= 1e-12 * abs(ref.item())
        assert abs(out.breakdown["main"] - ref.item()) <= 1e-12 * abs(ref.item())
        assert _rel(x_cell.grad, x_pixel.grad) <= 1e-12
        assert np.array_equal(out.main_logits.data, cells[index])

    @pytest.mark.parametrize("size", [32, 64])
    def test_predict_is_the_argmax_of_logits(self, size):
        spec = TaskSpec(height=size, width=size)
        images = [s.image for s in generate(spec, 2, seed=6)]
        pipe = build_pipeline(toy_config("coop"), spec.class_names, seed=5)
        tied = build_pipeline(toy_config("coop"), spec.class_names, seed=5)
        tied.head.fc2.weight.data[:] = 0.0
        tied.head.fc2.bias.data[:] = 0.0
        tied.head.fc2.bias.data[[2, 5]] = 1.0  # every pixel ties between classes 2 and 5
        for p in (pipe, tied):
            ref = np.argmax(p.logits(images).data, axis=1).reshape(2, -1)
            pred = p.predict(images)
            assert pred.dtype == ref.dtype and pred.tobytes() == ref.tobytes()
            assert p.predict(images[1]).tobytes() == ref[1].tobytes()
        assert np.all(tied.predict(images) == 2)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_out_of_range_label_raises(self, micro_spec, micro_sample, bad):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        mask = micro_sample.mask.copy()
        mask[5] = bad
        with pytest.raises(IndexError, match="label out of range"):
            pipe.forward([micro_sample.image, micro_sample.image], [micro_sample.mask, mask])

    def test_no_pixel_rows_on_the_tape(self, toy_spec, toy_samples):
        # pixel-level arrays (N*H*W rows) stay off the tape
        pipe = build_pipeline(toy_config("post"), toy_spec.class_names, seed=5)
        batch = toy_samples[:4]
        with T.fresh_tape() as tape:
            pipe.forward([s.image for s in batch], [s.mask for s in batch])
        rows = {node.output.shape[0] for node in tape.nodes if node.output.data.ndim}
        assert rows and 4 * toy_spec.height * toy_spec.width not in rows
