"""Finite-difference verification of every differentiable operation,
the neural blocks, and a micro end-to-end pipeline.

Every analytic gradient rule in the package is exercised here against
central differences on several shapes; the CLI `gradcheck` subcommand is
a thin wrapper that prints one line per check and fails loudly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import datagen, nn, tensor as T
from .encoders import FeatureMap, attention_pool
from .matching import LossConfig, ScoreMap, det_aux_loss, seg_aux_loss
from .pipeline import build_pipeline, micro_config

__all__ = ["run_gradient_suite", "format_results"]


def _probe_loss(op):
    """Wrap an op into a scalar via a fixed random projection so every
    output entry influences the loss. The projection is created once per
    output shape and reused, so repeated evaluations see one function."""
    cache: dict[tuple, T.Tensor] = {}

    def wrapper(*xs):
        out = op(*xs)
        key = tuple(out.shape)
        if key not in cache:
            seeds = [99] + [int(d) for d in key]
            cache[key] = T.Tensor(
                np.random.default_rng(np.random.SeedSequence(seeds)).standard_normal(out.shape)
            )
        return T.tsum(T.mul(out, cache[key]))

    return wrapper


def run_gradient_suite(op_tol: float = 1e-5, e2e_tol: float = 1e-4) -> list[T.GradCheckReport]:
    rng = np.random.default_rng(1234)
    results: list[T.GradCheckReport] = []

    def check(name, f, xs, tol=op_tol):
        results.append(replace(T.grad_check(f, xs, tol=tol), name=name))

    shapes = [(2, 3), (3, 4), (1, 5)]

    def rand(shape):
        return T.Tensor(rng.standard_normal(shape))

    for i, shape in enumerate(shapes):
        a, b = rand(shape), rand(shape)
        check(f"add[{i}]", _probe_loss(T.add), [a, b])
        check(f"mul[{i}]", _probe_loss(T.mul), [rand(shape), rand(shape)])
        check(f"gelu[{i}]", _probe_loss(T.gelu), [rand(shape)])
        check(f"sum_all[{i}]", lambda x: T.tsum(x), [rand(shape)])
        check(f"mean_rows[{i}]", _probe_loss(T.mean_rows), [rand(shape)])
        unit = T.Tensor(rng.standard_normal(shape) + np.sign(rng.standard_normal(shape)))
        check(f"l2_normalize[{i}]", _probe_loss(lambda x: T.l2_normalize(x, axis=1)), [unit])
        # keep values clear of the clamp kink so central differences are valid
        raw = rng.uniform(-1.5, 1.5, shape)
        raw = np.where(np.abs(np.abs(raw) - 0.8) < 0.05, raw * 0.5, raw)
        check(f"clamp[{i}]", _probe_loss(lambda x: T.clamp(x, -0.8, 0.8)), [T.Tensor(raw)])
        check(f"concat0[{i}]", _probe_loss(lambda x, y: T.concat([x, y], axis=0)),
              [rand(shape), rand(shape)])
        check(f"concat1[{i}]", _probe_loss(lambda x, y: T.concat([x, y], axis=1)),
              [rand(shape), rand(shape)])
        n, m = shape
        idx = rng.integers(0, n, size=n + 2)
        check(f"take[{i}]", _probe_loss(lambda x: T.take(x, idx)), [rand(shape)])
        v = rand((m,))
        check(f"mul_rowvec[{i}]", _probe_loss(T.mul_rowvec), [rand(shape), v])
        targets = (rng.random(shape) < 0.5).astype(float)
        check(f"bce_with_logits[{i}]", lambda x: T.bce_with_logits(x, targets), [rand(shape)])
        check(f"linear_op[{i}]", _probe_loss(T.linear),
              [rand((n, m)), rand((n + 1, m)), rand((n + 1,))])

    # patchify draws its own data; rng skips this slot's draws, so later checks keep theirs
    rng.integers(0, 24, size=(3, 4))
    rng.standard_normal((2, 4, 3))
    check("patchify", _probe_loss(lambda x: T.patchify(x, 2)),
          [T.Tensor(np.random.default_rng(24).standard_normal((2, 4, 6, 3)))])
    check("stack", _probe_loss(lambda x, y: T.stack([x, y])), [rand((2, 3)), rand((2, 3))])
    check("block_matmul_t", _probe_loss(lambda a, b: T.block_matmul_t(a, b, 2)),
          [rand((4, 3)), rand((6, 3))])
    check("mean_rows_blocks", _probe_loss(lambda x: T.mean_rows(x, 3)), [rand((6, 4))])

    # Cell losses from label counts: one label per row, a row with no
    # items, and rows that mix labels. Own stream, so the checks above and
    # below see the same data as without these.
    crng = np.random.default_rng(56)
    for name, counts in (
        ("integer", np.array([[16, 0, 0], [0, 0, 16]])),
        ("zero_row", np.array([[3, 0, 1, 0], [0, 0, 0, 0], [0, 2, 0, 5]])),
        ("mixed", crng.integers(0, 5, size=(4, 3))),
    ):
        check(f"count_cross_entropy.{name}", lambda x, c=counts: T.count_cross_entropy(x, c),
              [T.Tensor(crng.standard_normal(counts.shape))])

    # -- blocks --------------------------------------------------------------
    brng = np.random.default_rng(77)
    lin = nn.Linear(4, 3, brng)
    check("linear.x", _probe_loss(lin), [rand((5, 4))])
    xw = rand((5, 4))
    check("linear.weight", _probe_loss(lambda _w: lin(xw)), [lin.weight])
    check("linear.bias", _probe_loss(lambda _b: lin(xw)), [lin.bias])

    ln = nn.LayerNorm(6)
    ln.scale.data = brng.uniform(0.5, 1.5, 6)
    ln.shift.data = brng.standard_normal(6)
    check("layer_norm.x", _probe_loss(ln), [rand((4, 6))])
    xn = rand((4, 6))
    check("layer_norm.affine",
          _probe_loss(lambda s, b: nn.layer_norm(xn, s, b)),
          [T.Tensor(ln.scale.data.copy()), T.Tensor(ln.shift.data.copy())])

    check("attention_heads.qkv", _probe_loss(lambda q, k, v: nn.attention_heads(q, k, v, 2)),
          [rand((3, 8)), rand((5, 8)), rand((5, 8))])
    # Segmented: self-attention over segments of 2, 3 and 1 rows; cross-
    # attention with query segments of 1, 3, 2 rows against key/value
    # segments of 3, 2, 4 rows; and equal-length segments (2 vs 3 rows).
    check("attention_heads.segments_self",
          _probe_loss(lambda q, k, v: nn.attention_heads(q, k, v, 2, [0, 2, 5, 6])),
          [rand((6, 8)), rand((6, 8)), rand((6, 8))])
    check("attention_heads.segments_cross",
          _probe_loss(lambda q, k, v: nn.attention_heads(q, k, v, 2, [0, 1, 4, 6], [0, 3, 5, 9])),
          [rand((6, 8)), rand((9, 8)), rand((9, 8))])
    check("attention_heads.segments_equal",
          _probe_loss(lambda q, k, v: nn.attention_heads(q, k, v, 2, [0, 2, 4], [0, 3, 6])),
          [rand((4, 8)), rand((6, 8)), rand((6, 8))])
    # Lengths 2, 3, 2, a chunk each; own stream, so other checks keep their data.
    check("attention_heads.segments_recurring",
          _probe_loss(lambda q, k, v: nn.attention_heads(q, k, v, 2, [0, 2, 5, 7])),
          list(map(T.Tensor, np.random.default_rng(37).standard_normal((3, 7, 8)))))

    mhsa = nn.MultiHeadAttention(8, 2, brng)
    check("mhsa.seq", _probe_loss(mhsa), [rand((3, 8))])
    mem = rand((4, 8))
    check("mhsa.cross_q", _probe_loss(lambda q: mhsa(q, mem)), [rand((2, 8))])
    qq = rand((2, 8))
    check("mhsa.cross_mem", _probe_loss(lambda m: mhsa(qq, m)), [rand((4, 8))])
    check("mhsa.q_weight", _probe_loss(lambda _w: mhsa(qq)), [mhsa.q_proj.weight])

    dec = nn.TransformerDecoderLayer(8, 2, 16, brng)
    memory = rand((5, 8))
    queries = rand((3, 8))
    check("decoder.queries", _probe_loss(lambda q: dec(q, memory)), [rand((3, 8))])
    check("decoder.memory", _probe_loss(lambda m: dec(queries, m)), [rand((5, 8))])

    block = nn.TransformerBlock(8, 2, 16, brng)
    check("transformer_block.x", _probe_loss(block), [rand((4, 8))])

    # Gradients of the input alone: the readout block over segments of 2,
    # 3 and 1 rows, and linear / layer_norm whose weights need no gradient.
    # Own stream, so the checks around these see the same data as without.
    frng = np.random.default_rng(91)
    check("transformer_block.readout.x",
          _probe_loss(lambda x: block.readout(x, [0, 2, 5, 6], [1, 4, 5])),
          [T.Tensor(frng.standard_normal((6, 8)))])
    w_const = T.Tensor(frng.standard_normal((3, 4)))
    b_const = T.Tensor(frng.standard_normal(3))
    check("linear_op.const_weight.x", _probe_loss(lambda x: T.linear(x, w_const, b_const)),
          [T.Tensor(frng.standard_normal((5, 4)))])
    s_const = T.Tensor(frng.uniform(0.5, 1.5, 6))
    t_const = T.Tensor(frng.standard_normal(6))
    check("layer_norm.const_affine.x",
          _probe_loss(lambda x: nn.layer_norm(x, s_const, t_const)),
          [T.Tensor(frng.standard_normal((4, 6)))])

    pool = nn.MultiHeadAttention(8, 2, brng)

    def pool_loss(values):
        fm = FeatureMap(h4=2, w4=2, c=8, values=values)
        pooled = attention_pool(pool, fm)
        probe_g = T.Tensor(np.random.default_rng(5).standard_normal((1, 8)))
        probe_d = T.Tensor(np.random.default_rng(6).standard_normal((4, 8)))
        return T.add(T.tsum(T.mul(pooled.global_feat, probe_g)),
                     T.tsum(T.mul(pooled.dense, probe_d)))

    check("attention_pool.x4", pool_loss, [rand((4, 8))])

    # -- losses over score maps ----------------------------------------------
    cfg_loss = LossConfig()
    sm_raw = rng.uniform(-0.9, 0.9, (6, 3))  # inside (-1, 1), room for the difference step
    labels6 = rng.integers(0, 3, size=6)
    det_targets = (rng.random((6, 3)) < 0.5).astype(float)

    def seg_loss(s):
        return seg_aux_loss(ScoreMap(s=s, h4=2, w4=3, k=3), labels6, cfg_loss)

    def det_loss(s):
        return det_aux_loss(ScoreMap(s=s, h4=2, w4=3, k=3), det_targets, cfg_loss)

    check("seg_aux_loss.s", seg_loss, [T.Tensor(sm_raw.copy())])
    check("det_aux_loss.s", det_loss, [T.Tensor(sm_raw.copy())])

    # -- micro pipeline end to end --------------------------------------------
    spec = datagen.TaskSpec(k=2, height=8, width=8, min_shapes=1, max_shapes=1,
                            shape_min_px=3, shape_max_px=5, seed=3)
    sample = datagen.generate(spec, 1, seed=3)[0]

    for mode, wrt in (("coop", "contexts"), ("post", "gamma")):
        pipe = build_pipeline(micro_config(mode), spec.class_names, seed=11)

        def seg_forward(img):
            return pipe.forward([img], [sample.mask]).loss

        check(f"pipeline[{mode}].image", seg_forward,
              [T.Tensor(sample.image.data.copy())], tol=e2e_tol)
        # grad_check perturbs each parameter in place, where the forward reads it
        check(f"pipeline[{mode}].patch_embed", lambda _p: seg_forward(sample.image),
              [pipe.image_encoder.patch_embed.weight], tol=e2e_tol)
        check(f"pipeline[{mode}].{wrt}", lambda _p: seg_forward(sample.image),
              [getattr(pipe.text_path, wrt)], tol=e2e_tol)

    # A batch of two: each image's gradient flows through its own segments.
    pair = datagen.generate(spec, 2, seed=4)
    masks = [s.mask for s in pair]
    for mode, wrt in (("post", "gamma"), ("pre", "queries")):
        pipe = build_pipeline(micro_config(mode), spec.class_names, seed=13)

        def batch_forward(img_a, img_b):
            return pipe.forward([img_a, img_b], masks).loss

        check(f"pipeline[{mode}].batch2.images", batch_forward,
              [T.Tensor(s.image.data.copy()) for s in pair], tol=e2e_tol)
        check(f"pipeline[{mode}].batch2.{wrt}", lambda _p: batch_forward(pair[0].image, pair[1].image),
              [getattr(pipe.text_path, wrt)], tol=e2e_tol)

    det_cfg = micro_config("coop")
    det_cfg.task_mode = "detection"
    det_pipe = build_pipeline(det_cfg, spec.class_names, seed=12)

    def det_forward(img):
        return det_pipe.forward([img], [sample.boxes]).loss

    check("pipeline[det].image", det_forward, [T.Tensor(sample.image.data.copy())], tol=e2e_tol)

    return results


def format_results(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:36s} max_rel_err={r.max_rel_err:.3e}  tol={r.tol:.0e}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} gradient checks passed")
    return "\n".join(lines)
