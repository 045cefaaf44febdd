import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from pixtext import encoders, nn, pipeline
from pixtext import tensor as T
from pixtext.config import from_json
from pixtext.datagen import TaskSpec, default_task, generate, split
from pixtext.encoders import ImageEncoderConfig, ToyImageEncoder
from pixtext.harness import OptimConfig, train
from pixtext.matching import compute_score_map, fuse_features, seg_aux_loss
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
from pixtext.tensor import ContractError


class TestForwardShapes:
    def test_toy_segmentation_shapes(self, toy_spec, toy_samples):
        pipe = build_pipeline(toy_config("coop"), toy_spec.class_names, seed=0)
        out = pipe.forward([toy_samples[0].image], [toy_samples[0].mask])
        assert out.score.s.shape == (64, 8)
        assert out.cell_logits.shape == (64, 8)
        assert pipe.predict(toy_samples[0].image).shape == (1024,)
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
        monkeypatch.setattr(encoders, "attention_pool", lambda *a: calls.append(a))
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
        assert out.cell_logits is None
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
        pixel_cells, centres = _nearest_index(1, 8, 8), _centre_index(1, 8, 8)

        def build_losses():
            t = path.embeddings(pooled)
            score = compute_score_map(pooled.dense, t, fm.h4, fm.w4)
            fused = fuse_features(fm, score)
            logits = T.take(pipe.head(fused.values), pixel_cells)
            main = T.count_cross_entropy(logits, np.eye(pipe.k)[micro_sample.mask])
            aux = seg_aux_loss(score, micro_sample.mask[centres], pipe.cfg.loss)
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
            assert np.array_equal(a.cell_logits.data, b.cell_logits.data)
            assert np.array_equal(a.score.s.data, b.score.s.data)

    def test_post_with_zero_gate_matches_coop_bitwise_on_a_batch(self, toy_spec, toy_samples):
        # coop shares K text rows across the batch; post refines one copy per image
        coop = build_pipeline(toy_config("coop"), toy_spec.class_names, seed=3)
        post = build_pipeline(toy_config("post"), toy_spec.class_names, seed=3)
        post.text_path.gamma.data = np.zeros_like(post.text_path.gamma.data)
        images, masks = [s.image for s in toy_samples[:4]], [s.mask for s in toy_samples[:4]]
        a, b = coop.forward(images, masks), post.forward(images, masks)
        assert a.loss.item() == b.loss.item()
        assert np.array_equal(a.cell_logits.data, b.cell_logits.data)
        assert np.array_equal(a.score.s.data, b.score.s.data)


class TestPredict:
    def test_deterministic(self, micro_spec, micro_sample):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        a = pipe.predict(micro_sample.image)
        b = pipe.predict(micro_sample.image)
        assert np.array_equal(a, b)

    def test_array_image_is_one_image(self, micro_spec, micro_sample):
        # forward and predict read a bare image, Tensor or array, the same way
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=1)
        a = pipe.forward(micro_sample.image, micro_sample.mask)
        b = pipe.forward(micro_sample.image.data, micro_sample.mask)
        assert a.loss.item() == b.loss.item()
        assert np.array_equal(a.cell_logits.data, b.cell_logits.data)
        assert np.array_equal(pipe.predict(micro_sample.image.data),
                              pipe.predict(micro_sample.image))

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


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestGoldenOutputs:
    """Predictions and canonical reports of each prompt mode are pinned
    bitwise: a change to a shared op that claims identical outputs must
    keep these sha256 digests (micro_config, 2 steps, default task)."""

    # (one image, a list of images, canonical report)
    DIGESTS = {
        None: ("9d8f28fbee60aed5ad31d4ee3c8d8b71cb8f6b781880a7dacef20b5940bc54e2",
               "b6bc7333e429b4bbc2125cc079ea455a92b9bf38f8fe37b6cd9c790768b79998",
               "85e4ca2a46adf7beb3292443c9b2ae4834e09fa7f643f2d6b312c4d0d81db8b3"),
        "template": ("8fff798c6833739594b89abc0619fa7c2d4a2d82e1e1cab16544188208c0ee63",
                     "2db44f24a4fd095c6fb792f6c42c3d1045b598c551b6e4763d5b7c8db23792bf",
                     "24402b227ef3ea2c02bd087dd26525304cf088591e5818b4a12ceaa9e9b66f46"),
        "coop": ("c94a86021d0f88d709550c1b049ace09d62734e4fc759fd0ddc06c5c4ef44818",
                 "0a5e7d1a48facb6283987c22077dc465f8eb65ffdc3f30c1cd46d30a3304998e",
                 "b6c219b469ef0d7fc5ecb502e78e562af2e9fd7519e82d510b1174e5506b355c"),
        "pre": ("a6b4a0ea617165e01c0b4587f2cdfa715dbe8fc8fa2afd7c396ffb7ba3ab7200",
                "37a38e4c289007c7af24009f474be163e40a96c35349edc66005150d43e7e6ea",
                "f0782129f5b513132f93773cac9b2652386abe43bbe0dfcf93a8e0d4be8d6221"),
        "post": ("8256f0d7bd0e6cb6a4bb05a35d611787099baa90c48878611f833303ba44950d",
                 "42076da2ce45184fc7f4f8de1c9889c2959d0de0634bcad21645abf8fbdf4226",
                 "347101bcdd20676a1e78192534fcf4d6860af85611d1e377004ab1adbf7816ea"),
    }

    @pytest.fixture(scope="class")
    def dataset(self):
        return split(generate(default_task(), 24, seed=5), 0.75)

    @pytest.mark.parametrize("mode", list(DIGESTS), ids=str)
    def test_predictions_and_report(self, dataset, mode):
        pipe = build_pipeline(micro_config(mode), default_task().class_names, seed=5)
        report = train(pipe, dataset, OptimConfig(steps=2, seed=5))
        images = [s.image for s in dataset[1]]
        got = (_sha(pipe.predict(images[0]).astype(np.int64)),
               _sha(pipe.predict(images).astype(np.int64)),
               hashlib.sha256(report.canonical_json().encode()).hexdigest())
        assert got == self.DIGESTS[mode]


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
        assert swapped.text_path is not pipe.text_path

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

    @pytest.mark.parametrize("width", [12, 8], ids=["adapter", "no_adapter"])
    def test_training_the_swap_leaves_the_source_unchanged(self, micro_spec, width):
        pipe = build_pipeline(micro_config("post"), micro_spec.class_names, seed=1)
        before = {name: p.data.copy() for name, p, _ in pipe.parameters()}
        swapped = swap_backbone(pipe, ToyImageEncoder(
            ImageEncoderConfig(patch=4, width=width, blocks=1, heads=2, out_dim=width),
            rng_for(99, "swapped"),
        ))
        samples = generate(micro_spec, 4, seed=5)
        train(swapped, (samples, samples[:1]), OptimConfig(steps=2, seed=1))
        assert not np.array_equal(swapped.head.fc1.weight.data, before["head.fc1.weight"])
        for name, p, _ in pipe.parameters():
            assert np.array_equal(p.data, before[name]), name

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


class TestParameterListing:
    """Parameter names, order, groups, shapes, trainability and initial
    values are pinned over every buildable pipeline: micro and toy configs,
    each prompt mode, both tasks, unswapped and swapped onto a same-width
    and a wider (adapter) backbone. A renamed or reordered declaration
    changes the digest; so does a change to any component's rng draws."""

    DIGEST = "a6394bdd674d533c1d65c69f7bb6b1c424af8d27b184f049ffce4f9a464a9841"

    def test_listing_digest(self):
        names = default_task().class_names
        digest = hashlib.sha256()
        for preset in (micro_config, toy_config):
            for mode in (None, "template", "coop", "pre", "post"):
                for task in ("segmentation", "detection"):
                    if mode is None and task == "detection":
                        continue
                    cfg = preset(mode)
                    cfg.task_mode = task
                    image = cfg.image
                    for swap in (None, replace(image, width=12, blocks=2),
                                 replace(image, width=12, blocks=2, out_dim=image.out_dim + 4)):
                        pipe = build_pipeline(cfg, names, seed=7)
                        if swap is not None:
                            pipe = swap_backbone(pipe, ToyImageEncoder(
                                swap, rng_for(7, "swapped_backbone")))
                        for name, p, group in pipe.parameters():
                            digest.update(f"{preset.__name__} {mode} {task} {swap}|{name} {group} "
                                          f"{p.shape} {p.requires_grad} {_sha(p.data)}\n".encode())
        assert digest.hexdigest() == self.DIGEST


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


class TestSwappedCheckpoint:
    """The manifest records the backbone, so a swapped pipeline restores
    through `load_checkpoint` with its adapter, if it has one."""

    @pytest.mark.parametrize("mode", ["post", None], ids=["post", "none"])
    @pytest.mark.parametrize("out_dim", [40, 32], ids=["adapter", "no_adapter"])
    def test_roundtrip_is_bitwise(self, tmp_path, toy_spec, toy_samples, mode, out_dim):
        pipe = build_pipeline(toy_config(mode), toy_spec.class_names, seed=3)
        backbone = ImageEncoderConfig(patch=4, width=40, blocks=2, heads=4, out_dim=out_dim,
                                      ffn_mult=2)
        swapped = swap_backbone(pipe, ToyImageEncoder(backbone, rng_for(3, "swapped_backbone")))
        assert (swapped.backbone_adapter is not None) == (out_dim != 32)
        train(swapped, (toy_samples[:4], toy_samples[4:6]), OptimConfig(steps=2, seed=3))
        save_checkpoint(swapped, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["backbone"]["out_dim"] == out_dim
        back = load_checkpoint(tmp_path / "ckpt")
        saved = list(swapped.parameters())
        restored = list(back.parameters())
        assert [(n, g) for n, _, g in restored] == [(n, g) for n, _, g in saved]
        for (name, p1, _), (_, p2, _) in zip(saved, restored):
            assert np.array_equal(p1.data, p2.data), name
        back.cache_text()
        images, masks = [s.image for s in toy_samples[6:]], [s.mask for s in toy_samples[6:]]
        with T.no_grad():
            cells = [p.forward(images, masks).cell_logits.data for p in (swapped, back)]
        assert np.array_equal(*cells)
        assert np.array_equal(swapped.predict(images), back.predict(images))

    def test_missing_backbone_named(self, tmp_path, micro_spec):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["backbone"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=r"manifest\.json: unknown key\(s\) \[\], "
                                                r"missing key\(s\) \['backbone'\]"):
            load_checkpoint(tmp_path)

    def test_unknown_backbone_key_named(self, tmp_path, micro_spec):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["backbone"]["depth"] = 3
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=r"manifest\.json: unknown key\(s\) \['depth'\]"):
            load_checkpoint(tmp_path)


def _edit_manifest(path, edit):
    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest["config"])
    (path / "manifest.json").write_text(json.dumps(manifest))


class TestConfigKeys:
    """Settings `build_pipeline` used to overwrite, force or ignore are gone;
    a dict (or checkpoint manifest) that carries one fails naming it. A
    manifest must also carry every setting: none is filled with a default."""

    @pytest.mark.parametrize("edit, section, key", [
        (lambda d: d.update(shared_dim=8), "config", "shared_dim"),
        (lambda d: d.update(context_init="random"), "config", "context_init"),
        (lambda d: d["text"].update(out_dim=3), "config.text", "out_dim"),
        (lambda d: d["text"].update(vocab_size=5), "config.text", "vocab_size"),
    ], ids=["shared_dim", "context_init", "text.out_dim", "text.vocab_size"])
    def test_deleted_key_named(self, tmp_path, micro_spec, edit, section, key):
        d = micro_config("coop").to_dict()
        edit(d)
        pattern = rf"^{section} in .*manifest\.json: unknown key\(s\) \['{key}'\]"
        with pytest.raises(ContractError, match=pattern):
            from_json(PipelineConfig, d, "config in manifest.json")
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        _edit_manifest(tmp_path, edit)
        with pytest.raises(ContractError, match=pattern):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("edit, section, key", [
        (lambda d: d.pop("head_hidden"), "config", "head_hidden"),
        (lambda d: d["image"].pop("patch"), "config.image", "patch"),
        (lambda d: d["loss"].pop("aux_weight"), "config.loss", "aux_weight"),
    ], ids=["head_hidden", "image.patch", "loss.aux_weight"])
    def test_missing_key_named(self, tmp_path, micro_spec, edit, section, key):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        _edit_manifest(tmp_path, edit)
        pattern = (rf"^{section} in .*manifest\.json: unknown key\(s\) \[\], "
                   rf"missing key\(s\) \['{key}'\]$")
        with pytest.raises(ContractError, match=pattern):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("section, key, value", [
        ("image", "patch", 0), ("image", "patch", 4.0), ("image", "blocks", 0),
        ("image", "width", True), ("text", "heads", 0), ("text", "blocks", -1),
    ], ids=["image.patch=0", "image.patch=4.0", "image.blocks=0", "image.width=True",
            "text.heads=0", "text.blocks=-1"])
    def test_encoder_count_checked(self, section, key, value):
        d = micro_config("post").to_dict()
        d[section][key] = value
        with pytest.raises(ValueError, match=rf"^\w+EncoderConfig\.{key} must be an integer "
                                             rf"of at least 1, got {value!r}$"):
            from_json(PipelineConfig, d, "config in run.json")

    @pytest.mark.parametrize("section", ["config.image", "backbone"])
    def test_manifest_encoder_count_checked(self, tmp_path, micro_spec, section):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        image = manifest["backbone"] if section == "backbone" else manifest["config"]["image"]
        image["patch"] = 0
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"^ImageEncoderConfig\.patch must be"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("section, key", [("image", "patch"), ("text", "heads")])
    def test_encoder_count_assigned_later_checked(self, micro_spec, section, key):
        # the config checked itself when built; its encoder checks again
        cfg = micro_config("post")
        setattr(getattr(cfg, section), key, 0)
        with pytest.raises(ValueError, match=rf"^\w+EncoderConfig\.{key} must be an integer "
                                             r"of at least 1, got 0$"):
            build_pipeline(cfg, micro_spec.class_names, 1)

    @pytest.mark.parametrize("key, value, least", [
        ("context_len", 2.5, 0), ("context_len", -1, 0), ("template_len", True, 0),
        ("prompt_decoder_depth", 0, 1), ("prompt_decoder_heads", 0, 1),
        ("prompt_ffn_mult", 0, 1), ("head_hidden", 0, 1),
    ])
    def test_pipeline_count_checked(self, micro_spec, key, value, least):
        message = rf"^PipelineConfig\.{key} must be an integer of at least {least}, got {value!r}$"
        d = micro_config("post").to_dict()
        d[key] = value
        with pytest.raises(ValueError, match=message):
            from_json(PipelineConfig, d, "config in run.json")
        cfg = micro_config("post")
        setattr(cfg, key, value)
        with pytest.raises(ValueError, match=message):
            build_pipeline(cfg, micro_spec.class_names, 1)

    def test_manifest_pipeline_count_checked(self, tmp_path, micro_spec):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        _edit_manifest(tmp_path, lambda d: d.update(context_len="2"))
        with pytest.raises(ValueError, match=r"^PipelineConfig\.context_len must be an integer "
                                             r"of at least 0, got '2'$"):
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

    @pytest.mark.parametrize("fmt", ["json", "pgm"])
    @pytest.mark.parametrize("pred, error, cause", [
        (np.array([0.0, 1.0, 2.9, 1.0]), ContractError, "integer class ids, got dtype float64"),
        (np.array([True, False, True, False]), ContractError, "integer class ids, got dtype bool"),
        (np.array([0, -1, 2, 1]), ContractError, "negative class id -1"),
        (np.array([0, 1, 2]), T.ShapeError, "3 class ids, expected h\\*w = 4"),
        (np.zeros((2, 3), dtype=np.int64), T.ShapeError, "6 class ids, expected h\\*w = 4"),
    ], ids=["float", "bool", "negative", "short", "long"])
    def test_bad_ids_rejected(self, tmp_path, fmt, pred, error, cause):
        with pytest.raises(error, match=cause):
            export_prediction(pred, 2, 2, tmp_path / "p", fmt=fmt)
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_valid_ids_keep_their_bytes(self, tmp_path, dtype):
        pred = np.array([[0, 1], [2, 1]], dtype=dtype)
        export_prediction(pred, 2, 2, tmp_path / "p.json", fmt="json")
        export_prediction(pred, 2, 2, tmp_path / "p.pgm", fmt="pgm")
        assert (tmp_path / "p.json").read_text() == (
            '{"height": 2, "width": 2, "classes": [0, 1, 2, 1]}')
        assert (tmp_path / "p.pgm").read_text() == "P2\n2 2\n2\n0 1\n2 1\n"


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
        if out.cell_logits is not None:
            stacked = np.concatenate([o.cell_logits.data for o, _ in singles])
            assert _rel(out.cell_logits.data, stacked) <= 1e-12
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
            index = _nearest_index(len(samples), micro_spec.height, micro_spec.width)
            batched = np.argmax(out.cell_logits.data[index], axis=1).reshape(len(samples), -1)
            assert np.array_equal(batched, pipe.predict([s.image for s in samples]))
            for i, s in enumerate(samples):
                assert np.array_equal(batched[i], pipe.predict(s.image))

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


class TestAttentionSegmentRuns:
    """`attention_heads` runs a chunk per run of consecutive segments with
    equal lengths, so a (query, key) length pair that comes back after a
    different one costs a chunk of its own. Every caller keeps each pair in
    one contiguous run, so each runs as one chunk (cache cap aside)."""

    @pytest.mark.parametrize("task", ["segmentation", "detection"])
    @pytest.mark.parametrize("mode", ["template", "coop", "pre", "post"])
    def test_each_length_pair_is_one_run(self, monkeypatch, toy_spec, toy_samples, mode, task):
        attention, calls = nn.attention_heads, []

        def spy(q, k, v, heads, q_offsets=None, kv_offsets=None):
            kv = q_offsets if kv_offsets is None else kv_offsets
            calls.append(list(zip(np.diff(nn._offsets(q_offsets, q.shape[0], "query")).tolist(),
                                  np.diff(nn._offsets(kv, k.shape[0], "key/value")).tolist())))
            return attention(q, k, v, heads, q_offsets, kv_offsets)

        monkeypatch.setattr(nn, "attention_heads", spy)
        cfg = toy_config(mode)
        cfg.task_mode = task
        pipe = build_pipeline(cfg, toy_spec.class_names, seed=0)
        # one 2-image step, then (segmentation) cached predicts of 2 and 3 images
        train(pipe, (toy_samples[:2], toy_samples[2:5]), OptimConfig(steps=1, seed=0))
        assert calls
        for pairs in calls:
            runs = [p for i, p in enumerate(pairs) if i == 0 or p != pairs[i - 1]]
            assert len(runs) == len(set(runs)), runs


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
            self.pipe(micro_spec).predict([micro_sample.image, micro_sample.image, big])

    def test_target_count_and_mask_shape(self, micro_spec, micro_sample):
        pipe = self.pipe(micro_spec)
        with pytest.raises(ContractError, match="2 images but 1 targets"):
            pipe.forward([micro_sample.image] * 2, [micro_sample.mask])
        with pytest.raises(ContractError, match="mask 1 has shape"):
            pipe.forward([micro_sample.image] * 2, [micro_sample.mask, micro_sample.mask[:5]])

    @pytest.mark.parametrize("edit", [lambda m: m + 0.7, lambda m: m.astype(np.float32),
                                      lambda m: m > 0], ids=["fraction", "float32", "bool"])
    def test_non_integer_mask_named_by_index(self, micro_spec, micro_sample, edit):
        bad = edit(micro_sample.mask)
        with pytest.raises(ContractError, match=rf"^mask 1 needs integer labels, got dtype "
                                                rf"{bad.dtype}$"):
            self.pipe(micro_spec).forward([micro_sample.image] * 2, [micro_sample.mask, bad])

    def test_every_integer_mask_dtype_gives_one_loss(self, micro_spec, micro_sample):
        pipe = self.pipe(micro_spec)
        ref = pipe.forward([micro_sample.image], [micro_sample.mask]).loss.item()
        for mask in (micro_sample.mask.astype(np.uint8), micro_sample.mask.astype(np.int32),
                     micro_sample.mask.tolist()):
            assert pipe.forward([micro_sample.image], [mask]).loss.item() == ref

    def test_empty_batch_rejected(self, micro_spec):
        with pytest.raises(ContractError):
            self.pipe(micro_spec).forward([], [])


class TestCheckpointMissingParameter:
    def test_non_finite_parameter_named(self, tmp_path, micro_spec):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=2)
        save_checkpoint(pipe, tmp_path / "ckpt")
        weight = pipe.head.fc1.weight.data.copy()
        weight[0, 0] = np.nan
        T.write_dct1(tmp_path / "ckpt" / "head.fc1.weight.dct1", T.Tensor(weight))
        with pytest.raises(ContractError, match=r"head\.fc1\.weight .*head\.fc1\.weight\.dct1"):
            load_checkpoint(tmp_path / "ckpt")

    def test_missing_parameter_named(self, tmp_path, micro_spec):
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=2)
        save_checkpoint(pipe, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["params"]["head.fc1.bias"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(KeyError, match="head.fc1.bias"):
            load_checkpoint(tmp_path / "ckpt")


class TestManifestChecks:
    """`load_checkpoint` checks every top-level key of the manifest and reads
    each parameter only from the `<name>.dct1` that `save_checkpoint` wrote."""

    @pytest.mark.parametrize("key", ["config", "class_names", "seed", "params"])
    def test_missing_key_named(self, tmp_path, micro_spec, key):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest[key]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=rf"manifest\.json: unknown key\(s\) \[\], "
                                                rf"missing key\(s\) \['{key}'\]"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("where", ["absolute", "parent", "sibling", "missing"])
    def test_file_outside_its_own_name_rejected(self, tmp_path, micro_spec, where):
        ckpt, other = tmp_path / "ckpt", tmp_path / "other"
        pipe = build_pipeline(micro_config("coop"), micro_spec.class_names, seed=2)
        save_checkpoint(pipe, ckpt)
        save_checkpoint(pipe, other)  # loadable files of the right shapes outside `ckpt`
        manifest = json.loads((ckpt / "manifest.json").read_text())
        entry = manifest["params"]["head.fc1.bias"]
        if where == "missing":
            del entry["file"]
        else:
            entry["file"] = {"absolute": str(other / "head.fc1.bias.dct1"),
                             "parent": "../other/head.fc1.bias.dct1",
                             "sibling": "head.fc2.bias.dct1"}[where]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        pattern = (r"head\.fc1\.bias in .*manifest\.json names file .*expected "
                   r"head\.fc1\.bias\.dct1")
        if where == "missing":
            pattern = (r"^params\.head\.fc1\.bias in .*manifest\.json: unknown key\(s\) \[\], "
                       r"missing key\(s\) \['file'\]$")
        with pytest.raises(ContractError, match=pattern):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("seed", ["1", True, 1.0])
    def test_non_integer_seed_rejected(self, tmp_path, micro_spec, seed):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 1), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["seed"] = seed
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=r"^seed in .*manifest\.json must be an integer"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("names", [5, "ab", [1, 2], ["a", "a"]],
                             ids=["int", "str", "ints", "repeated"])
    def test_class_names_checked(self, tmp_path, micro_spec, names):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 1), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["class_names"] = names
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=r"^class_names in .*manifest\.json must be a "
                                                r"list of distinct strings, got "
                                                + re.escape(repr(names))):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("path, value, named", [
        (("backbone",), 5, "int 5"),
        (("backbone",), "abc", "str 'abc'"),  # not the keys ['a', 'b', 'c']
        (("config", "image"), 7, "int 7"),
        (("config",), [], "list []"),
    ], ids=["backbone_int", "backbone_str", "config.image_int", "config_list"])
    def test_section_that_is_not_an_object_named(self, tmp_path, micro_spec, path, value, named):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        section = manifest
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        pattern = (rf"^{re.escape('.'.join(path))} in .*manifest\.json must be a JSON object, "
                   rf"got {re.escape(named)}$")
        with pytest.raises(ContractError, match=pattern):
            load_checkpoint(tmp_path)

    def test_params_that_are_not_a_dict_rejected(self, tmp_path, micro_spec):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["params"] = sorted(manifest["params"])
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=r"^params in .*manifest\.json must map"):
            load_checkpoint(tmp_path)

    def test_entry_that_is_not_a_dict_named(self, tmp_path, micro_spec):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["params"]["head.fc1.bias"] = "head.fc1.bias.dct1"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=r"^params\.head\.fc1\.bias in .*manifest\.json "
                                                r"must be a JSON object, got str "
                                                r"'head\.fc1\.bias\.dct1'$"):
            load_checkpoint(tmp_path)

    def test_entry_with_another_key_named(self, tmp_path, micro_spec):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["params"]["head.fc1.bias"]["shape"] = [8]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=r"^params\.head\.fc1\.bias in .*manifest\.json: "
                                                r"unknown key\(s\) \['shape'\], missing key\(s\) "
                                                r"\[\]$"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("group", ["bogus", "image_encoder", None])
    def test_group_other_than_the_rebuilt_one_named(self, tmp_path, micro_spec, group):
        save_checkpoint(build_pipeline(micro_config("coop"), micro_spec.class_names, 2), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        if group is None:
            del manifest["params"]["head.fc1.bias"]["group"]
        else:
            manifest["params"]["head.fc1.bias"]["group"] = group
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        pattern = (rf"head\.fc1\.bias in .*manifest\.json is in group {group!r}; the rebuilt "
                   rf"pipeline puts it in 'other'")
        if group is None:  # not reported as a group of None
            pattern = (r"^params\.head\.fc1\.bias in .*manifest\.json: unknown key\(s\) \[\], "
                       r"missing key\(s\) \['group'\]$")
        with pytest.raises(ContractError, match=pattern):
            load_checkpoint(tmp_path)


def _nearest_index(n, h, w, f=4):
    """Each pixel's row in n stacked (h/f x w/f) cell grids, built by hand."""
    r, c = np.meshgrid(np.arange(h) // f, np.arange(w) // f, indexing="ij")
    per_image = (r * (w // f) + c).reshape(-1)
    return (np.arange(n)[:, None] * ((h // f) * (w // f)) + per_image).reshape(-1)


def _centre_index(n, h, w, f=4):
    """Flat index, in n stacked H*W masks, of each cell's centre pixel
    (r*f + f//2, c*f + f//2), built by hand."""
    return np.array([i * h * w + (r * f + f // 2) * w + c * f + f // 2
                     for i in range(n) for r in range(h // f) for c in range(w // f)])


class TestCellGrid:
    """Pixels map to cells in one (N, h4, f, w4, f) layout."""

    @staticmethod
    def pipe(f, class_names):
        cfg = micro_config("coop")
        cfg.image.patch = f
        return build_pipeline(cfg, class_names, seed=1)

    @pytest.mark.parametrize("f", [2, 4])
    @pytest.mark.parametrize("n, h, w", [(1, 8, 8), (3, 12, 8), (2, 8, 16)])
    def test_pixel_index_matches_hand_built(self, micro_spec, f, n, h, w):
        index = self.pipe(f, micro_spec.class_names)._pixel_index(n, h, w)
        assert np.array_equal(index, _nearest_index(n, h, w, f))

    @pytest.mark.parametrize("f", [2, 4])
    def test_aux_labels_are_the_centre_pixels(self, monkeypatch, f):
        spec = TaskSpec(k=3, height=12, width=8, shape_min_px=2, shape_max_px=6, seed=3)
        samples = generate(spec, 3, seed=2)
        seen = []

        def recording(score, labels, cfg):
            seen.append(labels)
            return seg_aux_loss(score, labels, cfg)

        monkeypatch.setattr(pipeline, "seg_aux_loss", recording)
        self.pipe(f, spec.class_names).forward([s.image for s in samples],
                                                [s.mask for s in samples])
        hand = np.concatenate([s.mask for s in samples])[_centre_index(3, 12, 8, f)]
        assert len(seen) == 1 and np.array_equal(seen[0], hand)
        assert len(np.unique(hand)) > 1


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

        # plain-numpy per-pixel cross-entropy and its gradient on the cells
        logp = cells[index] - cells[index].max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        pixels = np.arange(len(index))
        ref = -logp[pixels, labels].mean()
        g = np.exp(logp)
        g[pixels, labels] -= 1.0
        ref_grad = np.zeros_like(cells)
        np.add.at(ref_grad, index, g / len(index))

        x_cell = T.Tensor(cells.copy(), requires_grad=True)
        with T.fresh_tape():
            cell = T.count_cross_entropy(x_cell, counts)
            T.backward(cell)
        assert abs(cell.item() - ref) <= 1e-12 * ref
        assert abs(out.breakdown["main"] - ref) <= 1e-12 * ref
        assert _rel(x_cell.grad, ref_grad) <= 1e-12

    @pytest.mark.parametrize("size", [32, 64])
    def test_predict_is_the_argmax_of_logits(self, size):
        spec = TaskSpec(height=size, width=size)
        samples = generate(spec, 2, seed=6)
        images = [s.image for s in samples]
        pipe = build_pipeline(toy_config("coop"), spec.class_names, seed=5)
        tied = build_pipeline(toy_config("coop"), spec.class_names, seed=5)
        tied.head.fc2.weight.data[:] = 0.0
        tied.head.fc2.bias.data[:] = 0.0
        tied.head.fc2.bias.data[[2, 5]] = 1.0  # every pixel ties between classes 2 and 5
        for p in (pipe, tied):
            with T.no_grad():
                cells = p.forward(images, [s.mask for s in samples]).cell_logits.data
            ref = np.argmax(cells[_nearest_index(2, size, size)], axis=1).reshape(2, -1)
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
        rows = {node.shape[0] for node in tape if node.shape}
        assert rows and 4 * toy_spec.height * toy_spec.width not in rows
