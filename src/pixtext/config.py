"""Settings: the config dataclasses, the kind of each field, and the one
parser of JSON sections.

Each field declares its kind once, as in `patch: int = setting(Count(), 4)`.
`check(cfg)` walks the fields, recursing into nested configs, and raises
`ValueError("Class.field ...")` without converting any value. Configs call
it when built; `build_pipeline` and the encoders call it again, as a field
may be assigned later. Rules between fields and default-filling stay in
each config's `__post_init__`. `from_json(cls, obj, where, partial=False)`
parses a JSON section, and its nested sections the same way: a section
that is not an object, unknown keys and (unless `partial`) missing keys
are a `ContractError` naming `where`, "section in file" or a bare file for
its top level.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from math import inf, pi

import numpy as np

from .tensor import ContractError

__all__ = ["PROMPT_MODES", "GATE_PRESETS", "TASK_MODES", "SHAPE_KINDS", "LR_MULTIPLIERS",
           "Count", "Real", "Choice", "OfType", "ListOf", "MapOf", "setting", "check",
           "check_keys", "subsection", "from_json", "Config", "ImageEncoderConfig",
           "TextEncoderConfig", "LossConfig", "PipelineConfig", "OptimConfig", "ClassSignature",
           "TaskSpec"]

PROMPT_MODES = ("template", "coop", "pre", "post")
# Named configurations used by the gate ablation: (init value, learnable).
GATE_PRESETS = {
    "fixed_small": (1e-4, False),
    "learnable_small": (1e-4, True),
    "learnable_one": (1.0, True),
}
TASK_MODES = ("segmentation", "detection")
SHAPE_KINDS = ("rect", "disc")
# The fine-tuning recipe's learning-rate multiplier per parameter group.
LR_MULTIPLIERS = {"image_encoder": 0.1, "text_encoder": 0.0, "other": 1.0}


@dataclass(frozen=True)
class Count:
    """An int, not a bool, of at least `least`; any int for a seed."""

    least: int | None = 1

    def check(self, name: str, value):
        if type(value) is not int or self.least is not None and value < self.least:
            bound = "" if self.least is None else f" of at least {self.least}"
            raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


@dataclass(frozen=True)
class Real:
    """A finite int or float, not a bool, in [low, below), or (low, below)
    when `open`; None too when `optional`."""

    low: float = 0
    open: bool = False
    below: float = inf
    optional: bool = False

    def check(self, name: str, value):
        if not (value is None and self.optional or not isinstance(value, bool)
                and isinstance(value, (int, float)) and -inf < value < self.below
                and (value > self.low if self.open else value >= self.low)):
            raise ValueError(f"{name} must be a finite number in {'(' if self.open else '['}"
                             f"{self.low}, {self.below}){' or None' if self.optional else ''}, "
                             f"got {value!r}")


@dataclass(frozen=True)
class Choice:
    """One of the strings of the named tuple (or dict) `options`."""

    name: str
    options: tuple | dict
    optional: bool = False

    def check(self, name: str, value):
        if not (value is None and self.optional
                or isinstance(value, str) and value in self.options):
            raise ValueError(f"{name} {value!r} is not one of {self.name}: "
                             f"{'|'.join(self.options)}{', or None' if self.optional else ''}")


@dataclass(frozen=True)
class OfType:
    """An instance of `cls`; a nested config is checked in turn."""

    cls: type

    def check(self, name: str, value):
        if not isinstance(value, self.cls):
            raise ValueError(f"{name} must be of type {self.cls.__name__}, got {value!r}")
        if is_dataclass(self.cls):
            check(value)


@dataclass(frozen=True)
class ListOf:
    """A list (or tuple) of `length`, or at least `least`, values of kind `item`."""

    item: object
    least: int = 0
    length: int | None = None

    def check(self, name: str, value):
        if (not isinstance(value, (list, tuple)) or len(value) < self.least
                or self.length is not None and len(value) != self.length):
            size = f"at least {self.least}" if self.length is None else self.length
            raise ValueError(f"{name} must be a list of {size} entries, got {value!r}")
        for i, v in enumerate(value):
            self.item.check(f"{name}[{i}]", v)


@dataclass(frozen=True)
class MapOf:
    """A dict over some of `keys` whose values are of kind `item`."""

    item: object
    keys: tuple

    def check(self, name: str, value):
        if not isinstance(value, dict) or set(value) - set(self.keys):
            raise ValueError(f"{name} must map some of {list(self.keys)}, got {value!r}")
        for key, v in value.items():
            self.item.check(f"{name}[{key!r}]", v)


def setting(kind, default=MISSING, factory=MISSING):
    """A config field of `kind`."""
    return field(default=default, default_factory=factory, metadata={"kind": kind})


def check(cfg):
    """Check every field of `cfg` against its kind; see the module docstring."""
    for f in fields(cfg):
        f.metadata["kind"].check(f"{type(cfg).__name__}.{f.name}", getattr(cfg, f.name))


def check_keys(obj, keys, where: str, required=()):
    """`obj` must be a JSON object whose keys are among `keys` and include
    every key of `required`."""
    if not isinstance(obj, dict):
        raise ContractError(f"{where} must be a JSON object, got {type(obj).__name__} {obj!r}")
    unknown, missing = sorted(set(obj) - set(keys)), sorted(set(required) - set(obj))
    if unknown or missing:
        raise ContractError(f"{where}: unknown key(s) {unknown}, missing key(s) {missing}")


def subsection(where: str, key: str) -> str:
    """The `where` of `key` inside `where`: "config in m.json" and "image"
    give "config.image in m.json", a bare "m.json" gives "image in m.json"."""
    section, sep, source = where.partition(" in ")
    return f"{section}.{key} in {source}" if sep else f"{key} in {where}"


def from_json(cls, obj, where: str, partial: bool = False):
    """The config `cls` of the JSON section `obj`; see the module docstring."""
    kinds = {f.name: f.metadata["kind"] for f in fields(cls)}
    check_keys(obj, kinds, where, () if partial else kinds)
    return cls(**{k: _parse(kinds[k], v, where, k, partial) for k, v in obj.items()})


def _parse(kind, value, where: str, key: str, partial: bool):
    """The value of `key` in section `where`: nested configs are built, the
    rest is kept."""
    if isinstance(kind, ListOf) and isinstance(value, list):
        return [_parse(kind.item, v, where, f"{key}[{i}]", partial) for i, v in enumerate(value)]
    if isinstance(kind, OfType) and is_dataclass(kind.cls):
        return from_json(kind.cls, value, subsection(where, key), partial)
    return value


class Config:
    """A config dataclass checks its fields when built."""

    def __post_init__(self):
        check(self)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ImageEncoderConfig(Config):
    patch: int = setting(Count(), 4)
    width: int = setting(Count(), 32)
    blocks: int = setting(Count(), 2)
    heads: int = setting(Count(), 4)
    out_dim: int = setting(Count(), 32)
    ffn_mult: int = setting(Count(), 2)


@dataclass
class TextEncoderConfig(Config):
    """The vocabulary size and output width are not settings: `build_pipeline`
    takes them from the class names and the pipeline's shared width."""

    width: int = setting(Count(), 48)
    blocks: int = setting(Count(), 2)
    heads: int = setting(Count(), 4)
    ffn_mult: int = setting(Count(), 2)


@dataclass
class LossConfig(Config):
    temperature: float = setting(Real(open=True), 0.07)
    aux_weight: float = setting(Real(), 0.4)


@dataclass
class PipelineConfig(Config):
    """Bare defaults follow the full-scale recipe (context length 8,
    6-layer/4-head prompting decoder); the toy/micro presets shrink the
    decoder so the test suite runs in seconds. Learnable contexts start
    from the template tokens' embeddings. `TextPath` asks for at least one
    context and template row in the modes that need them."""

    image: ImageEncoderConfig = setting(OfType(ImageEncoderConfig), factory=ImageEncoderConfig)
    text: TextEncoderConfig = setting(OfType(TextEncoderConfig), factory=TextEncoderConfig)
    # None for no language path
    prompt_mode: str | None = setting(Choice("PROMPT_MODES", PROMPT_MODES, optional=True), "coop")
    context_len: int = setting(Count(0), 8)
    template_len: int = setting(Count(0), 8)
    prompt_decoder_depth: int = setting(Count(), 6)
    prompt_decoder_heads: int = setting(Count(), 4)
    prompt_ffn_mult: int = setting(Count(), 2)
    gate_preset: str = setting(Choice("GATE_PRESETS", GATE_PRESETS), "learnable_small")
    head_hidden: int = setting(Count(), 64)
    loss: LossConfig = setting(OfType(LossConfig), factory=LossConfig)
    task_mode: str = setting(Choice("TASK_MODES", TASK_MODES), "segmentation")

    @property
    def shared_dim(self) -> int:
        """The one embedding width: pixel features and text embeddings
        both project to the image encoder's `out_dim`."""
        return self.image.out_dim


@dataclass
class OptimConfig(Config):
    """A multiplier group left out keeps the recipe's `LR_MULTIPLIERS`."""

    lr: float = setting(Real(open=True), 0.01)
    weight_decay: float = setting(Real(), 0.01)
    beta1: float = setting(Real(below=1), 0.9)
    beta2: float = setting(Real(below=1), 0.999)
    eps: float = setting(Real(open=True), 1e-8)
    multipliers: dict = setting(MapOf(Real(), tuple(LR_MULTIPLIERS)), factory=LR_MULTIPLIERS.copy)
    clip_norm: float | None = setting(Real(open=True, optional=True), None)
    steps: int = setting(Count(), 120)
    batch_size: int = setting(Count(), 32)
    seed: int = setting(Count(None), 0)

    def __post_init__(self):
        super().__post_init__()
        self.multipliers = {**LR_MULTIPLIERS, **self.multipliers}


@dataclass
class ClassSignature(Config):
    mean: list[float] = setting(ListOf(Real(-inf), length=3))
    freq: float = setting(Real(-inf))
    angle: float = setting(Real(-inf))
    amp: float = setting(Real(-inf))


@dataclass
class TaskSpec(Config):
    """Empty `class_names` and `signatures` take their defaults."""

    k: int = setting(Count(2), 8)
    height: int = setting(Count(), 32)
    width: int = setting(Count(), 32)
    min_shapes: int = setting(Count(), 2)
    max_shapes: int = setting(Count(), 4)
    shape_min_px: int = setting(Count(), 6)
    shape_max_px: int = setting(Count(), 16)
    noise_sigma: float = setting(Real(), 0.22)
    jitter_gain: float = setting(Real(), 0.35)
    jitter_offset: float = setting(Real(), 0.25)
    seed: int = setting(Count(None), 7)
    shape_kinds: list[str] = setting(ListOf(Choice("SHAPE_KINDS", SHAPE_KINDS), least=1),
                                     factory=lambda: list(SHAPE_KINDS))
    signatures: list[ClassSignature] = setting(ListOf(OfType(ClassSignature)), factory=list)
    class_names: list[str] = setting(ListOf(OfType(str)), factory=list)

    def __post_init__(self):
        super().__post_init__()
        if not self.class_names:
            self.class_names = ["background"] + [f"object_{i}" for i in range(1, self.k)]
        if not self.signatures:
            self.signatures = _default_signatures(self.k, self.seed)
        for name in ("class_names", "signatures"):
            if len(getattr(self, name)) != self.k:
                raise ValueError(f"TaskSpec.{name} has {len(getattr(self, name))} entries "
                                 f"for k={self.k}")
        for low, high in (("shape_min_px", "shape_max_px"), ("min_shapes", "max_shapes"),
                          ("shape_max_px", "height"), ("shape_max_px", "width")):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"TaskSpec.{low} {getattr(self, low)} exceeds "
                                 f"{high} {getattr(self, high)}")


def _default_signatures(k: int, seed: int) -> list[ClassSignature]:
    """Spread channel means across the color cube; up to 8 classes land on
    distinct inset corners, extras are drawn from the seeded stream."""
    corners = [
        (0.25, 0.25, 0.25), (0.75, 0.25, 0.25), (0.25, 0.75, 0.25), (0.25, 0.25, 0.75),
        (0.75, 0.75, 0.25), (0.75, 0.25, 0.75), (0.25, 0.75, 0.75), (0.75, 0.75, 0.75),
    ]
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x51674]))
    sigs = []
    for i in range(k):
        if i < len(corners):
            mean = list(corners[i])
        else:
            mean = rng.uniform(0.2, 0.8, size=3).tolist()
        sigs.append(ClassSignature(mean=mean, freq=1.0 + (i % 4), angle=pi * i / max(k, 1),
                                   amp=0.12))
    return sigs
