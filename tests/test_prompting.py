import numpy as np
import pytest

from pixtext import tensor as T
from pixtext.datagen import generate
from pixtext.nn import decoder_forward
from pixtext.pipeline import build_pipeline, micro_config
from pixtext.prompting import (
    GATE_PRESETS,
    export_cached_embeddings,
    post_model_prompt,
)
from pixtext.tensor import ContractError


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
        pipe = micro_pipe("coop", micro_spec, context_len=0)
        path = pipe.text_path
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
        v = decoder_forward(path.decoder_layers, base.t, pooled.memory).data
        expected = base.t.data + path.gamma.data[None, :] * v
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

    def test_frozen_template_caches_on_first_use(self, micro_spec):
        path = micro_pipe("template", micro_spec).text_path
        assert path.cached is None
        first = path.base_embeddings()
        assert path.cached is not None and not first.t.requires_grad
        before = path.encoder.sequences_encoded
        assert np.array_equal(path.base_embeddings().t.data, first.t.data)
        assert path.encoder.sequences_encoded == before

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

    def test_pre_model_cache_is_contract_error(self, micro_spec):
        pipe = micro_pipe("pre", micro_spec)
        with pytest.raises(ContractError):
            pipe.text_path.cache()

    def test_cache_snapshot_is_constant(self, micro_spec):
        pipe = micro_pipe("coop", micro_spec)
        snap = pipe.text_path.cache()
        assert not snap.requires_grad
        t = pipe.text_path.cache()
        assert np.array_equal(t.data, snap.data)

    def test_export_cached_embeddings(self, micro_spec, tmp_path):
        import json

        from pixtext.tensor import read_dct1

        pipe = micro_pipe("coop", micro_spec)
        prefix = tmp_path / "cached"
        export_cached_embeddings(pipe.text_path, prefix)
        arr = read_dct1(f"{prefix}.dct1")
        assert arr.shape == (2, 8)
        assert np.array_equal(arr, pipe.text_path.cached.data)
        sidecar = json.loads((tmp_path / "cached.json").read_text())
        assert sidecar["class_names"] == micro_spec.class_names
        assert sidecar["mode"] == "coop"


class TestGateAblationPresets:
    def test_fixed_gate_not_trainable(self, micro_spec):
        pipe = micro_pipe("post", micro_spec, gate_preset="fixed_small")
        assert not pipe.text_path.gamma.requires_grad
        # a constant of the config, not a parameter
        assert not any("gate" in n for n, _, _ in pipe.parameters())

    def test_learnable_one_initial_value(self, micro_spec):
        pipe = micro_pipe("post", micro_spec, gate_preset="learnable_one")
        assert np.all(pipe.text_path.gamma.data == 1.0)
