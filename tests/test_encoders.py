import hashlib

import numpy as np
import pytest

from pixtext import encoders, nn
from pixtext import tensor as T
from pixtext.datagen import generate
from pixtext.encoders import (
    FeatureMap,
    ImageEncoderConfig,
    TextEncoderConfig,
    ToyImageEncoder,
    ToyTextEncoder,
    attention_pool,
    build_vocab,
)
from pixtext.pipeline import build_pipeline, micro_config, toy_config


@pytest.fixture
def text_encoder(rng):
    vocab = build_vocab(["bg", "thing", "stuff"], template_len=4)
    cfg = TextEncoderConfig(width=8, blocks=1, heads=2)
    return ToyTextEncoder(cfg, vocab.size, 6, rng), vocab


class TestAttentionPool:
    def test_constant_map_collapses_to_global(self, rng):
        pool = nn.MultiHeadAttention(8, 2, rng)
        row = rng.standard_normal(8)
        fm = FeatureMap(h4=2, w4=2, c=8, values=T.Tensor(np.tile(row, (4, 1))))
        pooled = attention_pool(pool, fm)
        # identical tokens make attention uniform: all outputs equal
        assert np.allclose(pooled.dense.data, pooled.global_feat.data, atol=1e-12)

    def test_spatial_permutation_equivariance(self, rng):
        pool = nn.MultiHeadAttention(8, 2, rng)
        x = rng.standard_normal((6, 8))
        base = attention_pool(pool, FeatureMap(h4=2, w4=3, c=8, values=T.Tensor(x)))
        for _ in range(5):
            perm = rng.permutation(6)
            permuted = attention_pool(
                pool, FeatureMap(h4=2, w4=3, c=8, values=T.Tensor(x[perm]))
            )
            assert np.max(np.abs(permuted.dense.data - base.dense.data[perm])) < 1e-10
            assert np.max(np.abs(permuted.global_feat.data - base.global_feat.data)) < 1e-10

    def test_two_by_two_matches_direct_oracle(self, rng):
        pool = nn.MultiHeadAttention(4, 2, rng)
        x = rng.standard_normal((4, 4))
        pooled = attention_pool(pool, FeatureMap(h4=2, w4=2, c=4, values=T.Tensor(x)))
        # oracle: mean, concat, then the attention formula evaluated directly
        seq = np.concatenate([x.mean(axis=0, keepdims=True), x], axis=0)

        def project(layer, v):
            return v @ layer.weight.data.T + layer.bias.data

        q, k, v = (project(p, seq) for p in (pool.q_proj, pool.k_proj, pool.v_proj))
        heads = []
        for h in range(2):
            sl = slice(h * 2, (h + 1) * 2)
            s = q[:, sl] @ k[:, sl].T / np.sqrt(2.0)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            heads.append((e / e.sum(axis=1, keepdims=True)) @ v[:, sl])
        out = project(pool.out_proj, np.concatenate(heads, axis=1))
        assert np.max(np.abs(pooled.global_feat.data - out[:1])) < 1e-10
        assert np.max(np.abs(pooled.dense.data - out[1:])) < 1e-10


class TestImageEncoder:
    def test_feature_map_geometry(self, rng):
        enc = ToyImageEncoder(ImageEncoderConfig(patch=4, width=8, blocks=1, heads=2, out_dim=8), rng)
        fm, pooled = enc.encode(T.Tensor(rng.standard_normal((32, 32, 3))))
        assert (fm.h4, fm.w4) == (8, 8)
        assert fm.values.shape == (64, 8)
        assert pooled.global_feat.shape == (1, 8)
        assert pooled.dense.shape == (64, 8)

    def test_output_dim_is_configured_shared_dim(self, rng):
        enc = ToyImageEncoder(ImageEncoderConfig(patch=4, width=16, blocks=1, heads=2, out_dim=12), rng)
        fm, pooled = enc.encode(T.Tensor(rng.standard_normal((8, 8, 3))))
        assert fm.c == 12 and pooled.dense.shape[1] == 12

    def test_features_are_encode_without_the_pool(self, rng, monkeypatch):
        enc = ToyImageEncoder(ImageEncoderConfig(patch=4, width=8, blocks=1, heads=2, out_dim=6), rng)
        images = T.Tensor(rng.standard_normal((2, 8, 8, 3)))
        fm, _ = enc.encode(images)
        monkeypatch.setattr(encoders, "attention_pool", None)  # the pool must not run
        alone, pooled = enc.encode(images, pool=False)
        assert pooled is None
        assert (alone.h4, alone.w4, alone.c, alone.n) == (fm.h4, fm.w4, 6, 2)
        assert np.array_equal(alone.values.data, fm.values.data)

    def test_indivisible_resolution_rejected(self, rng):
        enc = ToyImageEncoder(ImageEncoderConfig(patch=4, width=8, blocks=1, heads=2, out_dim=8), rng)
        with pytest.raises(T.ShapeError):
            enc.encode(T.Tensor(np.zeros((30, 32, 3))))

    def test_gradient_wrt_image(self, rng):
        enc = ToyImageEncoder(ImageEncoderConfig(patch=4, width=8, blocks=1, heads=2, out_dim=8), rng)
        probe = T.Tensor(rng.standard_normal((4, 8)))

        def f(img):
            fm, _ = enc.encode(img)
            return T.tsum(T.mul(fm.values, probe))

        report = T.grad_check(f, [T.Tensor(rng.standard_normal((8, 8, 3)))], tol=1e-4)
        assert report.passed


class TestTextEncoder:
    def test_minimal_class_matches_direct_compute(self, text_encoder):
        enc, vocab = text_encoder
        out = enc.encode(None, [[vocab.class_tokens["bg"][0]]])
        assert out.t.shape == (1, 6)
        seq = T.take(enc.table, [vocab.class_tokens["bg"][0]])
        for block in enc.blocks:
            seq = block(seq)
        expected = enc.proj(seq).data
        assert np.allclose(out.t.data, expected, atol=1e-12)

    @pytest.mark.parametrize("bad", [-1, 10, 99])
    def test_token_outside_vocabulary_named(self, text_encoder, bad):
        enc, vocab = text_encoder
        assert vocab.size == 10
        with pytest.raises(T.ContractError, match=rf"^token id {bad} outside vocabulary$"):
            enc.embed_tokens([0, bad, 3, bad])

    def test_non_integer_token_ids_rejected(self, text_encoder):
        enc, _ = text_encoder
        with pytest.raises(T.ContractError, match=r"^embed_tokens needs integer token ids, "
                                                  r"got dtype float64$"):
            enc.embed_tokens([2.5])

    def test_context_rows_prepend(self, text_encoder, rng):
        enc, vocab = text_encoder
        ctx = T.Tensor(rng.standard_normal((8, 8)))
        out = enc.encode(ctx, vocab.tokens_for(["bg", "thing"]))
        assert out.t.shape == (2, 6)

    def test_batched_equals_per_class(self, text_encoder):
        enc, vocab = text_encoder
        names = ["bg", "thing", "stuff"]
        batched = enc.encode(None, vocab.tokens_for(names)).t.data
        for i, name in enumerate(names):
            single = enc.encode(None, vocab.tokens_for([name])).t.data
            assert np.max(np.abs(batched[i] - single[0])) < 1e-12

    def test_determinism(self, text_encoder):
        enc, vocab = text_encoder
        tok = vocab.tokens_for(["thing", "thing"])
        out = enc.encode(None, tok).t.data
        assert np.array_equal(out[0], out[1])

    def test_unknown_token_rejected(self, text_encoder):
        enc, _ = text_encoder
        with pytest.raises(T.ContractError):
            enc.encode(None, [[999]])

    def test_sequence_counter(self, text_encoder):
        enc, vocab = text_encoder
        before = enc.sequences_encoded
        enc.encode(None, vocab.tokens_for(["bg", "thing", "stuff"]))
        assert enc.sequences_encoded - before == 3


class TestTextLayout:
    """`encode` runs its sequences ordered by (length, image, class), so
    each length is one attention chunk, and returns them in (image, class)
    order with the outputs and gradients of that order, bitwise."""

    NAMES = [f"c{i}" for i in range(8)]  # 1, 2, 3, 1, 2, 3, 1, 2 tokens

    # sha256 of the embeddings and the context gradient at toy scale,
    # computed before the sequences were grouped by length
    DIGESTS = {1: "baa46acefdc0248118ae2aab27dff1116a883fb7c1f734b38c5d1465f110b320",
               3: "3b3ecb7493cb09e76b5d61a6ac392ded5d89935ee09ebf2cd46d271bdfc4de40"}

    def encode(self, n):
        """Embeddings of the 8 classes behind n blocks of 8 context rows and
        the gradient of a fixed probe of them with respect to the contexts."""
        vocab = build_vocab(self.NAMES)
        enc = ToyTextEncoder(toy_config("pre").text, vocab.size, 32, np.random.default_rng(7))
        ctx = T.Tensor(np.random.default_rng(8).standard_normal((n * 8, 48)), requires_grad=True)
        with T.fresh_tape():
            out = enc.encode(ctx, vocab.tokens_for(self.NAMES), n).t
            probe = T.Tensor(np.random.default_rng(9).standard_normal(out.shape))
            T.backward(T.tsum(T.mul(out, probe)))
        return out.data, ctx.grad

    @pytest.mark.parametrize("n", [1, 3])
    def test_outputs_and_context_gradient_pinned(self, n):
        out, grad = self.encode(n)
        h = hashlib.sha256(out.tobytes())
        h.update(grad.tobytes())
        assert h.hexdigest() == self.DIGESTS[n]

    @pytest.mark.parametrize("n", [1, 3])
    def test_every_attention_chunk_has_slice_rows(self, monkeypatch, n):
        attention, chunks = nn.attention_heads, []

        def spy(q, k, v, heads, q_offsets=None, kv_offsets=None):
            kv_off = q_offsets if kv_offsets is None else kv_offsets
            chunks.append(nn._segment_chunks(nn._offsets(q_offsets, q.shape[0], "query"),
                                             nn._offsets(kv_off, k.shape[0], "key/value"), heads))
            return attention(q, k, v, heads, q_offsets, kv_offsets)

        monkeypatch.setattr(nn, "attention_heads", spy)
        self.encode(n)
        # block 0 and the readout; one chunk per sequence length 9, 10, 11.
        # Chunk rows are always slices, so this count is what fails if the
        # layout stops sorting by length.
        assert [len(c) for c in chunks] == [3, 3]
        assert all(isinstance(q_rows, slice) and isinstance(kv_rows, slice)
                   for call in chunks for q_rows, kv_rows, *_ in call)

    def test_layout_arrays_are_read_only(self):
        self.encode(3)
        layout = encoders._text_layout((1, 2, 3, 1, 2, 3, 1, 2), 8, 3)
        # nine sequences of 9 rows, nine of 10 and six of 11
        assert np.diff(layout.offsets).tolist() == [9] * 9 + [10] * 9 + [11] * 6
        for a in layout:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


class TestFreeze:
    def test_built_encoder_needs_no_gradient(self, rng):
        # built as the recipe's zero text-encoder multiplier trains it
        vocab = build_vocab(["a", "b"])
        cfg = TextEncoderConfig(width=8, blocks=1, heads=2)
        enc = ToyTextEncoder(cfg, vocab.size, 4, rng)
        assert not any(p.requires_grad for _, p in enc.parameters())

    def test_gradient_still_flows_to_contexts(self, rng):
        vocab = build_vocab(["a", "b"])
        cfg = TextEncoderConfig(width=8, blocks=1, heads=2)
        enc = ToyTextEncoder(cfg, vocab.size, 4, rng)
        ctx = T.Tensor(rng.standard_normal((2, 8)), requires_grad=True)
        out = enc.encode(ctx, vocab.tokens_for(["a", "b"]))
        T.backward(T.tsum(out.t))
        assert ctx.grad is not None and np.any(ctx.grad != 0)
        assert enc.table.grad is None


class TestVocabulary:
    def test_deterministic_layout(self):
        vocab = build_vocab(["x", "y", "z"], template_len=8)
        assert vocab.template_ids == list(range(8))
        widths = [len(vocab.class_tokens[n]) for n in ("x", "y", "z")]
        assert widths == [1, 2, 3]
        all_ids = [t for ids in vocab.class_tokens.values() for t in ids]
        assert len(set(all_ids)) == len(all_ids)
        assert vocab.size == 8 + sum(widths)

    def test_unknown_class_rejected(self):
        vocab = build_vocab(["x"])
        with pytest.raises(KeyError):
            vocab.tokens_for(["nope"])

    def test_duplicate_class_named(self):
        # two "y" classes would share their tokens and so their embedding
        with pytest.raises(ValueError, match="class name 'y' appears more than once"):
            build_vocab(["x", "y", "z", "y"])


def _text_outputs(pipe, images):
    """Class embeddings for a batch of images and the gradient of a fixed
    probe of them with respect to the learnable text tensor (contexts or
    queries; None in template mode)."""
    path = pipe.text_path
    path.cached = None
    learn = path.queries if path.mode == "pre" else path.contexts
    with T.fresh_tape():
        _, pooled = pipe.encode_image(T.Tensor(images))
        emb = path.embeddings(pooled).t
        if learn is None:
            return emb.data, None
        learn.grad = None
        probe = T.Tensor(np.random.default_rng(3).standard_normal(emb.shape))
        T.backward(T.tsum(T.mul(emb, probe)))
    return emb.data, learn.grad.copy()


class TestReadoutEncoder:
    """The text encoder's last block runs on the readout rows only; it
    matches the full last block followed by `take`."""

    @pytest.mark.parametrize("config", [micro_config, toy_config])
    @pytest.mark.parametrize("mode", ["template", "coop", "pre", "post"])
    def test_matches_full_last_block(self, monkeypatch, toy_spec, config, mode):
        pipe = build_pipeline(config(mode), toy_spec.class_names, seed=2)
        images = np.random.default_rng(4).uniform(0.0, 1.0, (2, 16, 16, 3))
        emb, grad = _text_outputs(pipe, images)
        last = pipe.text_path.encoder.blocks[-1]
        monkeypatch.setattr(last, "readout", lambda x, offsets, rows: T.take(last(x, offsets), rows))
        ref_emb, ref_grad = _text_outputs(pipe, images)
        assert np.max(np.abs(emb - ref_emb)) <= 1e-12 * np.max(np.abs(ref_emb))
        if mode != "template":
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError, match=r"^TextEncoderConfig\.blocks must be"):
            TextEncoderConfig(width=8, blocks=0, heads=2)


class TestFrozenEncoderBackward:
    def test_pre_step_nodes_return_none_for_frozen_weights(self, micro_spec):
        """Every tape node of a pre-mode step that reads a frozen text-encoder
        weight returns None for it, and a gradient for its activation."""
        pipe = build_pipeline(micro_config("pre"), micro_spec.class_names, seed=11)
        pair = generate(micro_spec, 2, seed=4)
        frozen = {id(p) for name, p in pipe.text_path.encoder.parameters() if name != "table"}
        seen = set()
        with T.fresh_tape() as tape:
            pipe.forward([s.image for s in pair], [s.mask for s in pair])
            for node in tape:
                if not any(id(t) in frozen for t in node.sources):
                    continue
                grads = node.grad_fn(np.ones(node.shape))
                for inp, g in zip(node.sources, grads):
                    assert (g is None) == (id(inp) in frozen)
                    if g is None:
                        seen.add(id(inp))
        assert seen == frozen
