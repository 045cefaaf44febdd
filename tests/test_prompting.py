import hashlib

import numpy as np
import pytest

from pixtext import nn
from pixtext import tensor as T
from pixtext.datagen import default_task, generate, split
from pixtext.harness import OptimConfig, train
from pixtext.pipeline import (build_pipeline, load_checkpoint, micro_config, save_checkpoint,
                              toy_config)
from pixtext.prompting import (
    GATE_PRESETS,
    TextPath,
    post_model_prompt,
)


def micro_pipe(mode, micro_spec, seed=11, **cfg_overrides):
    cfg = micro_config(mode)
    for key, val in cfg_overrides.items():
        setattr(cfg, key, val)
    return build_pipeline(cfg, micro_spec.class_names, seed)


class TestPromptMode:
    @pytest.mark.parametrize("mode", ["banana", "none", "POST"])
    def test_unknown_mode_named(self, micro_spec, mode):
        # the mode is the config's own string; "none" means None only in JSON
        cfg = micro_config("coop")
        cfg.prompt_mode = mode
        with pytest.raises(ValueError, match=repr(mode)):
            build_pipeline(cfg, micro_spec.class_names, seed=0)

    @pytest.mark.parametrize("mode", ["coop", "pre", "post"])
    def test_empty_context_len_rejected(self, micro_spec, mode):
        with pytest.raises(ValueError, match="context_len is 0"):
            micro_pipe(mode, micro_spec, context_len=0)

    @pytest.mark.parametrize("mode", ["coop", "post"])
    def test_empty_template_rejected_for_template_initialized_contexts(self, micro_spec, mode):
        with pytest.raises(ValueError, match="context_len=2 .*template_len is 0"):
            micro_pipe(mode, micro_spec, template_len=0)

    def test_template_mode_builds_without_template_tokens(self, micro_spec):
        assert micro_pipe("template", micro_spec, template_len=0, context_len=0).text_path

    @pytest.mark.parametrize("mode", ["template", "coop", "pre", "post"])
    def test_path_carries_the_config_string(self, micro_spec, mode):
        assert micro_pipe(mode, micro_spec).text_path.mode == mode

    def test_all_modes_same_embedding_shape(self, micro_spec, micro_sample):
        shapes = set()
        for mode in ("template", "coop", "pre", "post"):
            pipe = micro_pipe(mode, micro_spec)
            _, pooled = pipe.encode_image(micro_sample.image)
            t = pipe.text_path.embeddings(pooled)
            shapes.add(t.t.shape)
        assert shapes == {(2, 8)}


def _init_hash(pipe):
    h = hashlib.sha256()
    for name, p, group in pipe.parameters():
        h.update(f"{name}:{group}:{p.shape}:{p.requires_grad};".encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestBuild:
    """`TextPath(cfg, class_names, seed)` builds the whole language path."""

    # sha256 of every parameter's name, group, shape, trainability and bytes
    # at seed 3 on the default task, as built before `TextPath` built itself
    @pytest.mark.parametrize("mode, edits, digest", [
        (None, {}, "c8364d8ebaf7a92c95ec3f16272f86a2728800bfcfe1759b88e24fdb13762559"),
        ("template", {}, "39196dadc0c4690f75952728a11eec1f5ff274a2a986e0eba9589997d9270f10"),
        ("coop", {}, "35c1af882a26dc9e17385616e1130d46769bc9164be3a01bb2a7cbf1ebb801c0"),
        ("pre", {}, "6027d79a1b6f6cf4e3a404e1af0cbe12582b4a3737854030bd5f9785c3378e33"),
        ("post", {}, "cd3096bd69aa3c2bc6982c3f2c9d0dbfead45c4f2aa40c2deb48dc4835bf0b8c"),
        ("post", {"gate_preset": "fixed_small"},
         "cf6acf2408651cd30e9aa758e36bd768ec0678a334813f8fe6c131f7b6e8edc5"),
        ("coop", {"context_len": 5, "template_len": 2},
         "fc2c689976da306d633ea621fab6f91de14b84bb64c68be2da73facbf8ec6609"),
        ("post", {"context_len": 5, "template_len": 2},
         "f2ce7841947ce678efcaf8c317a4b93a783f2d0595616671ffbd686e39c05b18"),
    ], ids=["none", "template", "coop", "pre", "post", "post_fixed", "coop_5_2", "post_5_2"])
    def test_initial_values_pinned(self, toy_spec, mode, edits, digest):
        cfg = toy_config(mode)
        for key, val in edits.items():
            setattr(cfg, key, val)
        assert _init_hash(build_pipeline(cfg, toy_spec.class_names, 3)) == digest

    @pytest.mark.parametrize("mode", ["template", "coop", "pre", "post"])
    def test_direct_build_matches_the_pipeline(self, micro_spec, mode):
        path = TextPath(micro_config(mode), micro_spec.class_names, 11)
        expected = micro_pipe(mode, micro_spec).text_path.parameters()
        assert [(n, p.data.tobytes()) for n, p in path.parameters()] == [
            (n, p.data.tobytes()) for n, p in expected]

    @pytest.mark.parametrize("preset", sorted(GATE_PRESETS))
    def test_gate_trainability_is_the_preset(self, micro_spec, preset):
        path = micro_pipe("post", micro_spec, gate_preset=preset).text_path
        assert path.gate_learnable == path.gamma.requires_grad == GATE_PRESETS[preset][1]

    @pytest.mark.parametrize("mode", [None, "coop", "post"], ids=["none", "coop", "post"])
    def test_unknown_gate_preset_named(self, micro_spec, mode):
        with pytest.raises(ValueError, match=r"'bogus'.*GATE_PRESETS: "
                                             r"fixed_small\|learnable_small\|learnable_one"):
            micro_pipe(mode, micro_spec, gate_preset="bogus")

    def test_duplicate_class_name_rejected(self):
        with pytest.raises(ValueError, match="class name 'cat' appears more than once"):
            build_pipeline(micro_config("coop"), ["background", "cat", "cat"], 0)


class TestTemplate:
    def test_deterministic(self, micro_spec):
        a = micro_pipe("template", micro_spec).text_path.base_embeddings()
        b = micro_pipe("template", micro_spec).text_path.base_embeddings()
        assert np.array_equal(a.t.data, b.t.data)

    def test_equals_coop_at_initialization(self, micro_spec):
        # contexts default-initialize to the template embedding rows
        template = micro_pipe("template", micro_spec).text_path.base_embeddings()
        coop = micro_pipe("coop", micro_spec).text_path.base_embeddings()
        assert np.array_equal(template.t.data, coop.t.data)


class TestLanguagePrompt:
    def test_empty_context_reduces_to_class_tokens(self, micro_spec):
        path = micro_pipe("coop", micro_spec).text_path
        # build an explicitly empty context matrix
        empty = T.Tensor(np.zeros((0, path.encoder.width)), requires_grad=True)
        with_ctx = path.encoder.encode(empty, path.class_tokens)
        plain = path.encoder.encode(None, path.class_tokens)
        assert np.array_equal(with_ctx.t.data, plain.t.data)

    def test_default_context_length_is_eight_at_toy_scale(self):
        from pixtext.pipeline import toy_config

        assert toy_config("coop").context_len == 8

    def test_gradient_reaches_contexts_through_frozen_encoder(self, micro_spec):
        pipe = micro_pipe("coop", micro_spec)
        path = pipe.text_path
        assert not any(p.requires_grad for _, p in path.encoder.parameters())
        probe = T.Tensor(np.random.default_rng(1).standard_normal((2, 8)))

        def f(p):
            t = path.encoder.encode(p, path.class_tokens)
            return T.tsum(T.mul(t.t, probe))

        report = T.grad_check(f, [T.Tensor(path.contexts.data.copy())], tol=1e-5)
        assert report.passed
        assert report.max_rel_err < 1e-5


class TestPreModel:
    def test_image_dependence_and_determinism(self, micro_spec):
        pipe = micro_pipe("pre", micro_spec)
        samples = generate(micro_spec, 2, seed=9)
        _, pooled_a = pipe.encode_image(samples[0].image)
        _, pooled_b = pipe.encode_image(samples[1].image)
        t_a1 = pipe.text_path.embeddings(pooled_a).t.data
        t_a2 = pipe.text_path.embeddings(pooled_a).t.data
        t_b = pipe.text_path.embeddings(pooled_b).t.data
        assert np.array_equal(t_a1, t_a2)
        assert np.max(np.abs(t_a1 - t_b)) > 1e-8

    def test_zero_decoder_reduces_to_adapted_queries(self, micro_spec, micro_sample):
        pipe = micro_pipe("pre", micro_spec)
        path = pipe.text_path
        for layer in path.decoder_layers:
            for name, p in layer.parameters():
                if "ln" not in name:
                    p.data = np.zeros_like(p.data)
        _, pooled = pipe.encode_image(micro_sample.image)
        t = path.embeddings(pooled).t.data
        # oracle: contexts equal to adapter(q), encoded by the language path
        ctx = T.Tensor(path.adapter(path.queries).data.copy())
        expected = path.encoder.encode(ctx, path.class_tokens).t.data
        assert np.max(np.abs(t - expected)) < 1e-12

    def test_per_image_text_encoder_cost(self, micro_spec):
        pipe = micro_pipe("pre", micro_spec)
        samples = generate(micro_spec, 3, seed=9)
        before = pipe.text_path.encoder.sequences_encoded
        for s in samples:
            _, pooled = pipe.encode_image(s.image)
            pipe.text_path.embeddings(pooled)
        assert pipe.text_path.encoder.sequences_encoded - before == 3 * pipe.k


class TestPostModel:
    def test_zero_gate_returns_input_exactly(self, micro_spec, micro_sample):
        pipe = micro_pipe("post", micro_spec)
        path = pipe.text_path
        path.gamma.data = np.zeros_like(path.gamma.data)
        _, pooled = pipe.encode_image(micro_sample.image)
        base = path.base_embeddings()
        refined = post_model_prompt(base, pooled, path.decoder_layers, path.gamma)
        assert np.array_equal(refined.t.data, base.t.data)

    def test_default_gate_preset(self, micro_spec):
        pipe = micro_pipe("post", micro_spec)
        assert np.all(pipe.text_path.gamma.data == 1e-4)
        assert pipe.text_path.gamma.requires_grad
        assert GATE_PRESETS["learnable_small"] == (1e-4, True)
        assert GATE_PRESETS["fixed_small"] == (1e-4, False)
        assert GATE_PRESETS["learnable_one"] == (1.0, True)

    def test_matches_manual_recomposition(self, micro_spec, micro_sample):
        pipe = micro_pipe("post", micro_spec)
        path = pipe.text_path
        path.gamma.data = np.random.default_rng(3).standard_normal(8) * 0.1
        _, pooled = pipe.encode_image(micro_sample.image)
        base = path.base_embeddings()
        refined = post_model_prompt(base, pooled, path.decoder_layers, path.gamma).t.data
        v = base.t
        for layer in path.decoder_layers:
            v = layer(v, pooled.memory)
        expected = base.t.data + path.gamma.data[None, :] * v.data
        assert np.max(np.abs(refined - expected)) < 1e-12

    def test_gate_gradient_flows(self, micro_spec, micro_sample):
        pipe = micro_pipe("post", micro_spec)
        out = pipe.forward([micro_sample.image], [micro_sample.mask])
        T.backward(out.loss)
        gamma = pipe.text_path.gamma
        assert gamma.grad is not None and np.any(gamma.grad != 0)


class TestCaching:
    def test_cached_matches_uncached(self, micro_spec, micro_sample):
        pipe = micro_pipe("post", micro_spec)
        uncached = pipe.forward([micro_sample.image], [micro_sample.mask]).loss.item()
        pipe.cache_text()
        cached = pipe.forward([micro_sample.image], [micro_sample.mask]).loss.item()
        assert abs(cached - uncached) < 1e-12

    def test_cached_inference_needs_no_text_encoder(self, micro_spec, micro_sample):
        for mode in ("template", "coop", "post"):
            pipe = micro_pipe(mode, micro_spec)
            pipe.cache_text()
            before = pipe.text_path.encoder.sequences_encoded
            pipe.predict(micro_sample.image)
            assert pipe.text_path.encoder.sequences_encoded == before

    def test_uncached_template_encodes_every_call(self, micro_spec, micro_sample):
        # only `cache_text` writes the snapshot: a frozen template path that
        # was never cached encodes its K sequences on each call, same values
        pipe = micro_pipe("template", micro_spec)
        path = pipe.text_path
        before = path.encoder.sequences_encoded
        path.base_embeddings()
        assert path.cached is None and path.encoder.sequences_encoded == before + path.k
        a, b = (pipe.forward(micro_sample.image, micro_sample.mask) for _ in range(2))
        assert path.cached is None and path.encoder.sequences_encoded == before + 3 * path.k
        assert a.loss.item() == b.loss.item()

    def test_unfrozen_template_encodes_every_call(self, micro_spec, micro_sample):
        pipe = micro_pipe("template", micro_spec)
        path = pipe.text_path
        for _, p in path.encoder.parameters():
            p.requires_grad = True
        pipe.predict(micro_sample.image)  # records nothing, and must not cache either
        t = path.base_embeddings()
        assert path.cached is None and t.t.requires_grad
        T.backward(T.tsum(t.t))
        assert path.encoder.table.grad is not None and np.any(path.encoder.table.grad != 0)

    def test_cache_snapshot_is_constant(self, micro_spec):
        pipe = micro_pipe("coop", micro_spec)
        pipe.cache_text()
        snap = pipe.text_path.cached
        assert not snap.requires_grad
        pipe.cache_text()
        assert np.array_equal(pipe.text_path.cached.data, snap.data)


def _single_outputs(pipe, samples):
    """Each image's class ids and cell logits, one image per call."""
    return [(pipe.predict(s.image).tobytes(),
             pipe.forward(s.image, s.mask).cell_logits.data.tobytes()) for s in samples]


class TestCachedQuerySide:
    """`cache_text` also snapshots the first decoder layer's query side on
    the cached embeddings (post) or on the queries (pre); cached calls tile
    it per image instead of recomputing it."""

    CONFIGS = {"micro": micro_config, "toy": toy_config}

    @pytest.fixture(scope="class")
    def samples(self):
        return generate(default_task(), 3, seed=8)

    @pytest.mark.parametrize("scale", list(CONFIGS))
    @pytest.mark.parametrize("mode", ["post", "pre"])
    def test_single_image_outputs_bitwise_unchanged(self, samples, tmp_path, mode, scale):
        pipe = build_pipeline(self.CONFIGS[scale](mode), default_task().class_names, seed=2)
        before = _single_outputs(pipe, samples)
        pipe.cache_text()
        assert pipe.text_path.layer0 is not None
        assert _single_outputs(pipe, samples) == before
        save_checkpoint(pipe, tmp_path)
        back = load_checkpoint(tmp_path)
        assert back.text_path.layer0 is None
        assert _single_outputs(back, samples) == before
        back.cache_text()
        assert _single_outputs(back, samples) == before

    @pytest.mark.parametrize("mode", ["post", "pre"])
    def test_batched_predict_matches_singles(self, samples, mode):
        cfg = toy_config(mode)
        cfg.gate_preset = "learnable_one"  # the post decoder moves the ids at gate 1
        pipe = build_pipeline(cfg, default_task().class_names, seed=2)
        pipe.cache_text()
        batched = pipe.predict([s.image for s in samples])
        assert np.array_equal(batched, np.stack([pipe.predict(s.image) for s in samples]))

    @pytest.mark.parametrize("mode", ["post", "pre"])
    def test_training_never_sees_the_snapshot(self, mode):
        spec = default_task()
        dataset = split(generate(spec, 8, seed=4), 0.75)
        fresh = build_pipeline(micro_config(mode), spec.class_names, seed=4)
        cached = build_pipeline(micro_config(mode), spec.class_names, seed=4)
        cached.cache_text()
        before = {n: p.data.copy() for n, p, _ in cached.parameters()
                  if n.startswith("text.decoder.0.")}
        optim = OptimConfig(steps=2, seed=4)
        assert (train(cached, dataset, optim).canonical_json()
                == train(fresh, dataset, optim).canonical_json())
        after = {n: p.data for n, p, _ in cached.parameters() if n.startswith("text.decoder.0.")}
        assert len(before) == 26
        assert all(not np.array_equal(before[n], after[n]) for n in before), [
            n for n in before if np.array_equal(before[n], after[n])]

    @pytest.mark.parametrize("mode, without, with_side", [
        ("post", (7, 41, 10), (6, 36, 8)),
        ("pre", (9, 55, 14), (8, 50, 12)),
    ])
    def test_op_calls_per_cached_predict(self, monkeypatch, mode, without, with_side):
        """Calls of attention, linear and layer_norm in one toy-scale 32x32
        predict: the cached query side drops one self-attention, its four
        projections, the cross-attention's query projection, ln1 and ln2."""
        calls = dict.fromkeys(("attention", "linear", "layer_norm"), 0)

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(nn, "attention_heads", spy("attention", nn.attention_heads))
        monkeypatch.setattr(nn.Linear, "__call__", spy("linear", nn.Linear.__call__))
        monkeypatch.setattr(nn, "layer_norm", spy("layer_norm", nn.layer_norm))
        spec = default_task()
        pipe = build_pipeline(toy_config(mode), spec.class_names, seed=1)
        image = generate(spec, 1, seed=1)[0].image

        def counts():
            calls.update(attention=0, linear=0, layer_norm=0)
            pipe.predict(image)
            return calls["attention"], calls["linear"], calls["layer_norm"]

        if mode == "post":  # cached embeddings without the query side
            pipe.text_path.cached = pipe.text_path.base_embeddings().t
        assert counts() == without
        pipe.cache_text()
        assert counts() == with_side


class TestGateAblationPresets:
    def test_fixed_gate_not_trainable(self, micro_spec):
        pipe = micro_pipe("post", micro_spec, gate_preset="fixed_small")
        assert not pipe.text_path.gamma.requires_grad
        # a constant of the config, not a parameter
        assert not any("gate" in n for n, _, _ in pipe.parameters())

    def test_learnable_one_initial_value(self, micro_spec):
        pipe = micro_pipe("post", micro_spec, gate_preset="learnable_one")
        assert np.all(pipe.text_path.gamma.data == 1.0)
