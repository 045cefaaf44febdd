"""Context-aware prompting for the text path.

Four mutually exclusive modes:

* ``template``  - fixed context tokens; only the encoder itself can train.
* ``coop``      - learnable context rows prepended to class tokens.
* ``pre``       - a transformer decoder turns visual memory into context
                  rows that are fed *into* the text encoder, so the text
                  embeddings depend on the image.
* ``post``      - learnable contexts as in ``coop``, then the decoder
                  refines the text encoder's *output* with a small gated
                  residual, so the encoder itself can be dropped after
                  training by caching its output.

The learnable tensors are plain attributes of ``TextPath``: ``contexts``
(coop, post; checkpointed as ``contexts.p``), ``queries`` (pre;
``queries.q``) and the post-mode gate ``gamma`` (``gate.gamma``); a
``fixed_small`` gate is a constant of the config, not a parameter.

Only the decoder's cross-attention to each image's memory and what follows
it depend on the image. ``DensePredPipeline.cache_text`` alone writes the
snapshots ``TextPath.cached`` and ``layer0`` (the first decoder layer's
query side, which the one decoder loop of both decoder modes then takes).
"""

from __future__ import annotations

import numpy as np

from .config import GATE_PRESETS, PROMPT_MODES
from .encoders import PooledFeatures, TextEmbeddings, ToyTextEncoder, build_vocab
from .nn import Linear, TransformerDecoderLayer, block_offsets, init_uniform, rng_for
from .tensor import ContractError, ShapeError, Tensor, add, mul_rowvec, take

__all__ = [
    "PROMPT_MODES",
    "GATE_PRESETS",
    "pre_model_prompt",
    "post_model_prompt",
    "TextPath",
]


def _per_image(rows: Tensor, n: int) -> Tensor:
    """One copy of `rows` per image, stacked."""
    if n == 1:
        return rows
    return take(rows, np.tile(np.arange(rows.shape[0]), n))


def _decode(decoder_layers, x: Tensor | None, pooled: PooledFeatures, length: int,
            layer0=None) -> Tensor:
    """The decoder over `x`, the images' stacked query segments of `length`
    rows, query segment s reading memory segment s. `layer0`, when given,
    is the first layer's query side on one segment (`TextPath.layer0`): it
    is tiled per image in place of computing that side on `x`, which is
    then not read."""
    q_offsets = block_offsets(pooled.n, length)
    side = None if layer0 is None else tuple(_per_image(t, pooled.n) for t in layer0)
    for layer in decoder_layers:
        x = layer(x, pooled.memory, q_offsets, pooled.offsets, side)
        side = None
    return x


def pre_model_prompt(
    queries: Tensor,
    pooled: PooledFeatures,
    decoder_layers,
    adapter: Linear,
    enc: ToyTextEncoder,
    class_token_lists,
    layer0=None,
) -> TextEmbeddings:
    """Per image, extract visual contexts from its [global, dense] memory and
    feed them into the text encoder in place of the learnable contexts.
    `layer0` is the first decoder layer's cached query side on `queries`."""
    if queries.shape[1] != pooled.memory.shape[1]:
        raise ShapeError(f"query dim {queries.shape[1]} != memory dim {pooled.memory.shape[1]}")
    x = None if layer0 is not None else _per_image(queries, pooled.n)
    visual_ctx = _decode(decoder_layers, x, pooled, queries.shape[0], layer0)
    return enc.encode(adapter(visual_ctx), class_token_lists, n=pooled.n)


def post_model_prompt(
    t: TextEmbeddings,
    pooled: PooledFeatures,
    decoder_layers,
    gamma: Tensor,
    layer0=None,
) -> TextEmbeddings:
    """Refine the class embeddings with each image's visual memory through
    the gated residual: t + gamma * decoder(t, [global, dense]). Shared
    embeddings (K rows) are refined once per image. `layer0` is the first
    decoder layer's cached query side on shared embeddings `t`."""
    if t.t.shape[1] != pooled.memory.shape[1]:
        raise ShapeError(f"text dim {t.t.shape[1]} != memory dim {pooled.memory.shape[1]}")
    if t.n not in (1, pooled.n):
        raise ShapeError(f"embeddings for {t.n} images, memory of {pooled.n}")
    base = _per_image(t.t, pooled.n // t.n)
    v_post = _decode(decoder_layers, base, pooled, t.class_count, layer0)
    refined = add(base, mul_rowvec(v_post, gamma))
    return TextEmbeddings(t=refined, class_count=t.class_count)


class TextPath:
    """Everything on the language side of the pipeline for one prompt mode,
    built from a `PipelineConfig`: the vocabulary and text encoder, plus
    the mode's contexts (coop, post), queries and adapter (pre), decoder
    (pre, post) and gate (post). Every part draws its initial values from
    its own `rng_for(seed, name)` stream. Learnable contexts start from the
    template tokens' embedding rows."""

    def __init__(self, cfg, class_names, seed: int):
        mode = cfg.prompt_mode
        if mode != "template" and cfg.context_len < 1:
            raise ValueError(f"{mode} mode learns context_len rows; "
                             f"context_len is {cfg.context_len}")
        d = cfg.shared_dim
        self.mode = mode
        self.class_names = list(class_names)
        self.vocab = build_vocab(self.class_names, template_len=cfg.template_len)
        self.class_tokens = self.vocab.tokens_for(self.class_names)
        self.encoder = ToyTextEncoder(cfg.text, self.vocab.size, d, rng_for(seed, "text_encoder"))
        self.contexts = self.queries = self.adapter = self.gamma = None
        self.decoder_layers = []
        self.gate_learnable = False
        # the snapshots of `DensePredPipeline.cache_text`
        self.cached: Tensor | None = None
        self.layer0: tuple[Tensor, Tensor] | None = None
        if mode in ("coop", "post"):
            if cfg.template_len < 1:
                raise ValueError(f"{mode} mode initializes its context_len={cfg.context_len} "
                                 f"contexts from the template; template_len is {cfg.template_len}")
            ids = np.resize(self.vocab.template_ids, cfg.context_len)
            self.contexts = Tensor(self.encoder.table.data[ids], requires_grad=True)
        if mode in ("pre", "post"):
            rng = rng_for(seed, "prompt_decoder")
            self.decoder_layers = [
                TransformerDecoderLayer(d, cfg.prompt_decoder_heads, d * cfg.prompt_ffn_mult, rng)
                for _ in range(cfg.prompt_decoder_depth)
            ]
        if mode == "pre":
            self.queries = Tensor(init_uniform(rng_for(seed, "queries"), (cfg.context_len, d), d),
                                  requires_grad=True)
            self.adapter = Linear(d, self.encoder.width, rng_for(seed, "pre_adapter"))
        if mode == "post":
            init_value, self.gate_learnable = GATE_PRESETS[cfg.gate_preset]
            self.gamma = Tensor(np.full(d, init_value), requires_grad=self.gate_learnable)

    @property
    def k(self) -> int:
        return len(self.class_names)

    def base_embeddings(self) -> TextEmbeddings:
        """Image-independent class embeddings (pre-gate for post mode): the
        `cached` snapshot when there is one, else the K class sequences
        encoded on this call."""
        if self.mode == "pre":
            raise ContractError("pre-model embeddings depend on the image")
        if self.cached is not None:
            return TextEmbeddings(t=self.cached, class_count=self.k)
        ctx = self.contexts
        if self.mode == "template":
            ctx = take(self.encoder.table, np.asarray(self.vocab.template_ids, dtype=np.intp))
        return self.encoder.encode(ctx, self.class_tokens)

    def embeddings(self, pooled: PooledFeatures) -> TextEmbeddings:
        """Final class embeddings used against the batch's features: K rows
        shared by every image, or n*K rows in the image-conditioned modes."""
        if self.mode == "pre":
            return pre_model_prompt(
                self.queries, pooled, self.decoder_layers, self.adapter,
                self.encoder, self.class_tokens, self.layer0,
            )
        base = self.base_embeddings()
        if self.mode == "post":
            return post_model_prompt(base, pooled, self.decoder_layers, self.gamma, self.layer0)
        return base

    def parameters(self):
        for name, p in self.encoder.parameters():
            yield f"encoder.{name}", p
        if self.contexts is not None:
            yield "contexts.p", self.contexts
        if self.queries is not None:
            yield "queries.q", self.queries
        if self.adapter is not None:
            for name, p in self.adapter.parameters():
                yield f"adapter.{name}", p
        for i, layer in enumerate(self.decoder_layers):
            for name, p in layer.parameters():
                yield f"decoder.{i}.{name}", p
        if self.gate_learnable:
            yield "gate.gamma", self.gamma
