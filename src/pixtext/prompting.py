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
"""

from __future__ import annotations

import numpy as np

from .encoders import PooledFeatures, TextEmbeddings, ToyTextEncoder, Vocabulary
from .nn import Linear, block_offsets, decoder_forward
from .tensor import ContractError, ShapeError, Tensor, add, mul_rowvec, take

__all__ = [
    "PROMPT_MODES",
    "GATE_PRESETS",
    "pre_model_prompt",
    "post_model_prompt",
    "TextPath",
    "export_cached_embeddings",
]


PROMPT_MODES = ("template", "coop", "pre", "post")


# Named configurations used by the gate ablation: (init value, learnable).
GATE_PRESETS = {
    "fixed_small": (1e-4, False),
    "learnable_small": (1e-4, True),
    "learnable_one": (1.0, True),
}


def _per_image(rows: Tensor, n: int) -> Tensor:
    """One copy of `rows` per image, stacked."""
    if n == 1:
        return rows
    return take(rows, np.tile(np.arange(rows.shape[0]), n))


def pre_model_prompt(
    queries: Tensor,
    pooled: PooledFeatures,
    decoder_layers,
    adapter: Linear,
    enc: ToyTextEncoder,
    class_token_lists,
) -> TextEmbeddings:
    """Per image, extract visual contexts from its [global, dense] memory and
    feed them into the text encoder in place of the learnable contexts."""
    if queries.shape[1] != pooled.memory.shape[1]:
        raise ShapeError(f"query dim {queries.shape[1]} != memory dim {pooled.memory.shape[1]}")
    c = queries.shape[0]
    visual_ctx = decoder_forward(decoder_layers, _per_image(queries, pooled.n),
                                 pooled.memory, block_offsets(pooled.n, c), pooled.offsets)
    return enc.encode(adapter(visual_ctx), class_token_lists, n=pooled.n)


def post_model_prompt(
    t: TextEmbeddings,
    pooled: PooledFeatures,
    decoder_layers,
    gamma: Tensor,
) -> TextEmbeddings:
    """Refine the class embeddings with each image's visual memory through
    the gated residual: t + gamma * decoder(t, [global, dense]). Shared
    embeddings (K rows) are refined once per image."""
    if t.t.shape[1] != pooled.memory.shape[1]:
        raise ShapeError(f"text dim {t.t.shape[1]} != memory dim {pooled.memory.shape[1]}")
    if t.n not in (1, pooled.n):
        raise ShapeError(f"embeddings for {t.n} images, memory of {pooled.n}")
    base = _per_image(t.t, pooled.n // t.n)
    v_post = decoder_forward(decoder_layers, base, pooled.memory,
                             block_offsets(pooled.n, t.class_count), pooled.offsets)
    refined = add(base, mul_rowvec(v_post, gamma))
    return TextEmbeddings(t=refined, class_count=t.class_count)


class TextPath:
    """Everything on the language side of the pipeline for one prompt mode."""

    def __init__(
        self,
        mode: str,
        encoder: ToyTextEncoder,
        vocab: Vocabulary,
        class_names,
        contexts: Tensor | None = None,
        queries: Tensor | None = None,
        adapter: Linear | None = None,
        decoder_layers=None,
        gamma: Tensor | None = None,
    ):
        self.mode = mode
        self.encoder = encoder
        self.vocab = vocab
        self.class_names = list(class_names)
        self.class_tokens = vocab.tokens_for(self.class_names)
        self.contexts = contexts
        self.queries = queries
        self.adapter = adapter
        self.decoder_layers = decoder_layers or []
        self.gamma = gamma
        self.gate_learnable = gamma is not None and gamma.requires_grad
        self.cached: Tensor | None = None
        if mode in ("coop", "post") and contexts is None:
            raise ContractError(f"{mode} mode needs learnable contexts")
        if mode == "pre" and (
            queries is None or adapter is None or not self.decoder_layers
        ):
            raise ContractError("pre mode needs queries, adapter and a decoder")
        if mode == "post" and (gamma is None or not self.decoder_layers):
            raise ContractError("post mode needs a gate and a decoder")

    @property
    def k(self) -> int:
        return len(self.class_names)

    def base_embeddings(self) -> TextEmbeddings:
        """Image-independent class embeddings (pre-gate for post mode).

        Template mode fills `cached` on first use when no encoder weight
        needs a gradient, since nothing upstream of it can train; otherwise
        it encodes on every call, `no_grad` ones included, so the gradient
        reaches the encoder.
        """
        if self.mode == "pre":
            raise ContractError("pre-model embeddings depend on the image")
        if self.cached is not None:
            return TextEmbeddings(t=self.cached, class_count=self.k)
        if self.mode != "template":
            return self.encoder.encode(self.contexts, self.class_tokens)
        ctx = take(self.encoder.table, np.asarray(self.vocab.template_ids, dtype=np.intp))
        t = self.encoder.encode(ctx, self.class_tokens)
        if any(p.requires_grad for _, p in self.encoder.parameters()):
            return t
        self.cached = Tensor(t.t.data.copy())
        return TextEmbeddings(t=self.cached, class_count=self.k)

    def embeddings(self, pooled: PooledFeatures) -> TextEmbeddings:
        """Final class embeddings used against the batch's features: K rows
        shared by every image, or n*K rows in the image-conditioned modes."""
        if self.mode == "pre":
            return pre_model_prompt(
                self.queries, pooled, self.decoder_layers, self.adapter,
                self.encoder, self.class_tokens,
            )
        base = self.base_embeddings()
        if self.mode == "post":
            return post_model_prompt(base, pooled, self.decoder_layers, self.gamma)
        return base

    def cache(self) -> Tensor:
        """Snapshot the image-independent embeddings so inference skips the
        text encoder entirely."""
        if self.mode == "pre":
            raise ContractError("cannot cache pre-model embeddings: input is image-dependent")
        base = self.base_embeddings()
        self.cached = Tensor(base.t.data.copy())
        return self.cached

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


def export_cached_embeddings(path: "TextPath", path_prefix):
    """Write `<prefix>.dct1` plus a `<prefix>.json` class-name sidecar."""
    import json

    from .tensor import write_dct1

    t = path.cached if path.cached is not None else path.cache()
    write_dct1(f"{path_prefix}.dct1", t)
    with open(f"{path_prefix}.json", "w") as fh:
        json.dump({"class_names": path.class_names, "mode": path.mode}, fh,
                  indent=1, sort_keys=True)
