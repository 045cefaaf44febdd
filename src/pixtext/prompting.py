"""Context-aware prompting for the text path.

Four mutually exclusive modes:

* ``template``  - fixed context tokens, nothing in the text path trains.
* ``coop``      - learnable context rows prepended to class tokens.
* ``pre``       - a transformer decoder turns visual memory into context
                  rows that are fed *into* the text encoder, so the text
                  embeddings depend on the image.
* ``post``      - learnable contexts as in ``coop``, then the decoder
                  refines the text encoder's *output* with a small gated
                  residual, so the encoder itself can be dropped after
                  training by caching its output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .encoders import PooledFeatures, TextEmbeddings, ToyTextEncoder, Vocabulary
from .nn import Linear, block_offsets, decoder_forward, init_uniform
from .tensor import ContractError, ShapeError, Tensor, add, mul_rowvec, take

__all__ = [
    "PromptMode",
    "PromptContexts",
    "LearnableQueries",
    "ResidualGate",
    "GATE_PRESETS",
    "template_embed",
    "language_prompt",
    "pre_model_prompt",
    "post_model_prompt",
    "TextPath",
    "export_cached_embeddings",
]


class PromptMode(enum.Enum):
    TEMPLATE = "template"
    LANGUAGE_ONLY = "coop"
    PRE_MODEL = "pre"
    POST_MODEL = "post"

    @staticmethod
    def parse(name: str) -> "PromptMode":
        for mode in PromptMode:
            if mode.value == name:
                return mode
        raise ValueError(f"unknown prompt mode {name!r}; use template|coop|pre|post")


@dataclass
class PromptContexts:
    """Learnable context rows at text-encoder width; trainable regardless of
    whether the encoder itself is frozen."""

    p: Tensor

    @staticmethod
    def from_template(enc: ToyTextEncoder, template_ids) -> "PromptContexts":
        rows = enc.table.data[np.asarray(template_ids, dtype=np.intp)].copy()
        return PromptContexts(p=Tensor(rows, requires_grad=True))

    @staticmethod
    def random(rng: np.random.Generator, n: int, width: int) -> "PromptContexts":
        return PromptContexts(p=Tensor(init_uniform(rng, (n, width), width), requires_grad=True))

    def parameters(self):
        yield "p", self.p


@dataclass
class LearnableQueries:
    q: Tensor

    @staticmethod
    def random(rng: np.random.Generator, n: int, dim: int) -> "LearnableQueries":
        return LearnableQueries(q=Tensor(init_uniform(rng, (n, dim), dim), requires_grad=True))

    def parameters(self):
        yield "q", self.q


@dataclass
class ResidualGate:
    """Per-channel scale on the visual-context residual."""

    gamma: Tensor
    learnable: bool = True

    @staticmethod
    def create(dim: int, init_value: float, learnable: bool) -> "ResidualGate":
        return ResidualGate(
            gamma=Tensor(np.full(dim, init_value), requires_grad=learnable),
            learnable=learnable,
        )

    def parameters(self):
        yield "gamma", self.gamma


# Named configurations used by the gate ablation: (init value, learnable).
GATE_PRESETS = {
    "fixed_small": (1e-4, False),
    "learnable_small": (1e-4, True),
    "learnable_one": (1.0, True),
}


def template_embed(enc: ToyTextEncoder, class_token_lists, template_ids) -> TextEmbeddings:
    """Encode classes behind the fixed template context tokens."""
    ctx = take(enc.table, np.asarray(template_ids, dtype=np.intp))
    return enc.encode(ctx, class_token_lists)


def language_prompt(
    contexts: PromptContexts, enc: ToyTextEncoder, class_token_lists
) -> TextEmbeddings:
    """Encode classes behind the learnable context rows; gradient reaches the
    contexts even when the encoder is frozen."""
    return enc.encode(contexts.p, class_token_lists)


def _per_image(rows: Tensor, n: int) -> Tensor:
    """One copy of `rows` per image, stacked."""
    if n == 1:
        return rows
    return take(rows, np.tile(np.arange(rows.shape[0]), n))


def pre_model_prompt(
    queries: LearnableQueries,
    pooled: PooledFeatures,
    decoder_layers,
    adapter: Linear,
    enc: ToyTextEncoder,
    class_token_lists,
) -> TextEmbeddings:
    """Per image, extract visual contexts from its [global, dense] memory and
    feed them into the text encoder in place of the learnable contexts."""
    if queries.q.shape[1] != pooled.memory.shape[1]:
        raise ShapeError(
            f"query dim {queries.q.shape[1]} != memory dim {pooled.memory.shape[1]}"
        )
    c = queries.q.shape[0]
    visual_ctx = decoder_forward(decoder_layers, _per_image(queries.q, pooled.n),
                                 pooled.memory, block_offsets(pooled.n, c), pooled.offsets)
    return enc.encode(adapter(visual_ctx), class_token_lists, n=pooled.n)


def post_model_prompt(
    t: TextEmbeddings,
    pooled: PooledFeatures,
    decoder_layers,
    gate: ResidualGate,
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
    refined = add(base, mul_rowvec(v_post, gate.gamma))
    return TextEmbeddings(t=refined, class_count=t.class_count)


class TextPath:
    """Everything on the language side of the pipeline for one prompt mode."""

    def __init__(
        self,
        mode: PromptMode,
        encoder: ToyTextEncoder,
        vocab: Vocabulary,
        class_names,
        contexts: PromptContexts | None = None,
        queries: LearnableQueries | None = None,
        adapter: Linear | None = None,
        decoder_layers=None,
        gate: ResidualGate | None = None,
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
        self.gate = gate
        self.cached: Tensor | None = None
        self._template_cache: Tensor | None = None
        if mode in (PromptMode.LANGUAGE_ONLY, PromptMode.POST_MODEL) and contexts is None:
            raise ContractError(f"{mode.value} mode needs learnable contexts")
        if mode == PromptMode.PRE_MODEL and (
            queries is None or adapter is None or not self.decoder_layers
        ):
            raise ContractError("pre mode needs queries, adapter and a decoder")
        if mode == PromptMode.POST_MODEL and (gate is None or not self.decoder_layers):
            raise ContractError("post mode needs a gate and a decoder")

    @property
    def k(self) -> int:
        return len(self.class_names)

    def base_embeddings(self) -> TextEmbeddings:
        """Image-independent class embeddings (pre-gate for post mode)."""
        if self.mode == PromptMode.PRE_MODEL:
            raise ContractError("pre-model embeddings depend on the image")
        if self.cached is not None:
            return TextEmbeddings(t=self.cached, class_count=self.k)
        if self.mode == PromptMode.TEMPLATE:
            if self._template_cache is None:
                t = template_embed(self.encoder, self.class_tokens, self.vocab.template_ids)
                # Nothing upstream of a template embedding can train, so the
                # value is reusable for the whole run.
                self._template_cache = Tensor(t.t.data.copy())
            return TextEmbeddings(t=self._template_cache, class_count=self.k)
        return language_prompt(self.contexts, self.encoder, self.class_tokens)

    def embeddings(self, pooled: PooledFeatures) -> TextEmbeddings:
        """Final class embeddings used against the batch's features: K rows
        shared by every image, or n*K rows in the image-conditioned modes."""
        if self.mode == PromptMode.PRE_MODEL:
            return pre_model_prompt(
                self.queries, pooled, self.decoder_layers, self.adapter,
                self.encoder, self.class_tokens,
            )
        base = self.base_embeddings()
        if self.mode == PromptMode.POST_MODEL:
            return post_model_prompt(base, pooled, self.decoder_layers, self.gate)
        return base

    def cache(self) -> Tensor:
        """Snapshot the image-independent embeddings so inference skips the
        text encoder entirely."""
        if self.mode == PromptMode.PRE_MODEL:
            raise ContractError("cannot cache pre-model embeddings: input is image-dependent")
        base = self.base_embeddings()
        self.cached = Tensor(base.t.data.copy())
        return self.cached

    def clear_cache(self):
        self.cached = None

    def parameters(self):
        for name, p in self.encoder.parameters():
            yield f"encoder.{name}", p
        if self.contexts is not None:
            for name, p in self.contexts.parameters():
                yield f"contexts.{name}", p
        if self.queries is not None:
            for name, p in self.queries.parameters():
                yield f"queries.{name}", p
        if self.adapter is not None:
            for name, p in self.adapter.parameters():
                yield f"adapter.{name}", p
        for i, layer in enumerate(self.decoder_layers):
            for name, p in layer.parameters():
                yield f"decoder.{i}.{name}", p
        if self.gate is not None:
            for name, p in self.gate.parameters():
                yield f"gate.{name}", p


def export_cached_embeddings(path: "TextPath", path_prefix):
    """Write `<prefix>.dct1` plus a `<prefix>.json` class-name sidecar."""
    import json

    from .tensor import write_dct1

    t = path.cached if path.cached is not None else path.cache()
    write_dct1(f"{path_prefix}.dct1", t)
    with open(f"{path_prefix}.json", "w") as fh:
        json.dump({"class_names": path.class_names, "mode": path.mode.value}, fh,
                  indent=1, sort_keys=True)
