import hashlib
import re
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from pixtext import nn
from pixtext import tensor as T


def zero_projections(attn: nn.MultiHeadAttention):
    for layer in (attn.q_proj, attn.k_proj, attn.v_proj, attn.out_proj):
        layer.weight.data = np.zeros_like(layer.weight.data)
        layer.bias.data = np.zeros_like(layer.bias.data)


class TestLinear:
    def test_identity_weight_passes_input_through(self, rng):
        lin = nn.Linear(3, 3, rng)
        lin.weight.data = np.eye(3)
        lin.bias.data = np.zeros(3)
        x = rng.standard_normal((4, 3))
        assert np.array_equal(lin(T.Tensor(x)).data, x)

    def test_zero_weight_returns_bias_rows(self, rng):
        lin = nn.Linear(3, 2, rng)
        lin.weight.data = np.zeros((2, 3))
        lin.bias.data = np.array([1.5, -2.0])
        out = lin(T.Tensor(rng.standard_normal((5, 3)))).data
        assert np.array_equal(out, np.tile([1.5, -2.0], (5, 1)))

    def test_matches_double_loop_oracle(self, rng):
        lin = nn.Linear(4, 3, rng)
        x = rng.standard_normal((5, 4))
        out = lin(T.Tensor(x)).data
        expected = np.empty((5, 3))
        for i in range(5):
            for j in range(3):
                acc = lin.bias.data[j]
                for m in range(4):
                    acc += x[i, m] * lin.weight.data[j, m]
                expected[i, j] = acc
        assert np.allclose(out, expected, atol=1e-12)

    def test_bias_added_to_product_bitwise(self, rng):
        x, w, b = rng.standard_normal((5, 4)), rng.standard_normal((3, 4)), rng.standard_normal(3)
        out = T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data
        assert np.array_equal(out, x @ w.T + b)

    def test_wrong_width_rejected(self, rng):
        with pytest.raises(T.ShapeError):
            nn.Linear(4, 3, rng)(T.Tensor(np.zeros((2, 5))))


class TestLayerNorm:
    def test_constant_row_zeroed_before_affine(self, rng):
        ln = nn.LayerNorm(4)
        out = ln(T.Tensor(np.full((2, 4), 3.7))).data
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_standardized_input_unchanged(self, rng):
        x = rng.standard_normal((3, 8))
        x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        ln = nn.LayerNorm(8, eps=1e-12)
        assert np.allclose(ln(T.Tensor(x)).data, x, atol=1e-10)

    def test_output_moments(self, rng):
        x = rng.standard_normal((1, 16)) * 4.2 + 1.3
        ln = nn.LayerNorm(16)
        out = ln(T.Tensor(x)).data
        assert abs(out.mean()) < 1e-12
        assert abs(out.var() - 1.0) < 1e-4  # eps shifts variance slightly

    def test_gradcheck(self, rng):
        ln = nn.LayerNorm(5)
        ln.scale.data = rng.uniform(0.5, 1.5, 5)
        ln.shift.data = rng.standard_normal(5)
        probe = T.Tensor(rng.standard_normal((3, 5)))
        report = T.grad_check(
            lambda x, s, b: T.tsum(T.mul(nn.layer_norm(x, s, b), probe)),
            [T.Tensor(rng.standard_normal((3, 5))),
             T.Tensor(ln.scale.data.copy()), T.Tensor(ln.shift.data.copy())],
        )
        assert report.passed

    def test_bitwise_equal_to_textbook_expression(self, rng):
        x = rng.standard_normal((7, 12)) * 3.0 + 0.4
        scale, shift = rng.uniform(0.5, 1.5, 12), rng.standard_normal(12)
        g = rng.standard_normal((7, 12))
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) * (x - mu)).mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xh = (x - mu) * inv
        gxh = g * scale[None, :]
        expected_gx = (gxh - gxh.mean(axis=1, keepdims=True)
                       - xh * (gxh * xh).mean(axis=1, keepdims=True)) * inv
        xt, st, bt = (T.Tensor(a, requires_grad=True) for a in (x, scale, shift))
        with T.fresh_tape():
            out = nn.layer_norm(xt, st, bt)
            T.backward(T.tsum(T.mul(out, T.Tensor(g))))
        assert out.data.tobytes() == (xh * scale[None, :] + shift[None, :]).tobytes()
        assert xt.grad.tobytes() == expected_gx.tobytes()
        assert st.grad.tobytes() == (g * xh).sum(axis=0).tobytes()
        assert bt.grad.tobytes() == g.sum(axis=0).tobytes()


class TestMhsa:
    def test_single_token_reduces_to_projections(self, rng):
        attn = nn.MultiHeadAttention(8, 2, rng)
        x = T.Tensor(rng.standard_normal((1, 8)))
        # with one token the attention weight is forced to 1
        expected = attn.out_proj(attn.v_proj(x)).data
        assert np.allclose(attn(x).data, expected, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        attn = nn.MultiHeadAttention(8, 4, rng)
        x = rng.standard_normal((6, 8))
        base = attn(T.Tensor(x)).data
        for _ in range(5):
            perm = np.concatenate([[0], 1 + rng.permutation(5)])
            permuted = attn(T.Tensor(x[perm])).data
            assert np.max(np.abs(permuted - base[perm])) < 1e-10

    def test_two_token_case_matches_hand_rolled_oracle(self, rng):
        attn = nn.MultiHeadAttention(4, 2, rng)
        x = rng.standard_normal((2, 4))

        def project(layer, v):
            return v @ layer.weight.data.T + layer.bias.data

        q = project(attn.q_proj, x)
        k = project(attn.k_proj, x)
        v = project(attn.v_proj, x)
        heads = []
        for h in range(2):
            sl = slice(h * 2, (h + 1) * 2)
            s = q[:, sl] @ k[:, sl].T / np.sqrt(2.0)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            heads.append(a @ v[:, sl])
        expected = project(attn.out_proj, np.concatenate(heads, axis=1))
        assert np.max(np.abs(attn(T.Tensor(x)).data - expected)) < 1e-10

    def test_indivisible_heads_rejected(self, rng):
        with pytest.raises(T.ShapeError):
            nn.MultiHeadAttention(6, 4, rng)

    def test_deterministic_bitwise(self, rng):
        attn = nn.MultiHeadAttention(8, 2, rng)
        x = T.Tensor(rng.standard_normal((3, 8)))
        assert np.array_equal(attn(x).data, attn(x).data)


class TestDecoderLayer:
    def test_zero_projections_pass_queries_through(self, rng):
        layer = nn.TransformerDecoderLayer(8, 2, 16, rng)
        zero_projections(layer.self_attn)
        zero_projections(layer.cross_attn)
        layer.ffn.fc1.weight.data[:] = 0.0
        layer.ffn.fc1.bias.data[:] = 0.0
        layer.ffn.fc2.weight.data[:] = 0.0
        layer.ffn.fc2.bias.data[:] = 0.0
        q = rng.standard_normal((3, 8))
        out = layer(T.Tensor(q), T.Tensor(rng.standard_normal((5, 8)))).data
        assert np.array_equal(out, q)

    @pytest.mark.parametrize("n", [1, 8])
    def test_output_shape_preserved(self, rng, n):
        layer = nn.TransformerDecoderLayer(8, 2, 16, rng)
        out = layer(T.Tensor(rng.standard_normal((n, 8))),
                    T.Tensor(rng.standard_normal((4, 8))))
        assert out.shape == (n, 8)

    def test_gradients_wrt_queries_and_memory(self, rng):
        layer = nn.TransformerDecoderLayer(4, 2, 8, rng)
        probe = T.Tensor(rng.standard_normal((2, 4)))

        def f(q, m):
            return T.tsum(T.mul(layer(q, m), probe))

        report = T.grad_check(
            f, [T.Tensor(rng.standard_normal((2, 4))), T.Tensor(rng.standard_normal((3, 4)))],
            tol=1e-5,
        )
        assert report.passed

    def test_dim_mismatch_rejected(self, rng):
        layer = nn.TransformerDecoderLayer(8, 2, 16, rng)
        with pytest.raises(T.ShapeError):
            layer(T.Tensor(np.zeros((2, 8))), T.Tensor(np.zeros((3, 4))))

    def test_stack_deterministic(self, rng):
        layers = [nn.TransformerDecoderLayer(8, 2, 16, rng) for _ in range(2)]
        q = T.Tensor(rng.standard_normal((3, 8)))
        m = T.Tensor(rng.standard_normal((5, 8)))

        def stack():
            out = q
            for layer in layers:
                out = layer(out, m)
            return out.data

        assert np.array_equal(stack(), stack())


class TestSegmentedAttention:
    @staticmethod
    def per_segment(q, k, v, heads, q_off, kv_off):
        return np.concatenate([
            nn.attention_heads(T.Tensor(q[a:b]), T.Tensor(k[c:d]), T.Tensor(v[c:d]), heads).data
            for a, b, c, d in zip(q_off[:-1], q_off[1:], kv_off[:-1], kv_off[1:])
        ])

    @pytest.mark.parametrize("q_off,kv_off", [
        ([0, 2, 5, 6], None),  # self-attention, unequal segments
        ([0, 1, 4, 6], [0, 3, 5, 9]),  # cross-attention, unequal query and key lengths
        ([0, 2, 4, 6], [0, 3, 6, 9]),  # equal lengths: the reshape path
    ])
    def test_matches_one_call_per_segment(self, rng, q_off, kv_off):
        nk = (kv_off or q_off)[-1]
        q = rng.standard_normal((q_off[-1], 8))
        k, v = rng.standard_normal((nk, 8)), rng.standard_normal((nk, 8))
        out = nn.attention_heads(T.Tensor(q), T.Tensor(k), T.Tensor(v), 2, q_off, kv_off).data
        expected = self.per_segment(q, k, v, 2, q_off, kv_off or q_off)
        assert np.array_equal(out, expected)

    def test_many_segments_span_several_chunks(self, rng):
        # 40 segments of 64 rows are more than one cache-sized chunk
        n, length = 40, 64
        x = rng.standard_normal((n * length, 8))
        off = nn.block_offsets(n, length)
        out = nn.attention_heads(T.Tensor(x), T.Tensor(x), T.Tensor(x), 2, off).data
        assert np.array_equal(out, self.per_segment(x, x, x, 2, off, off))

    @pytest.mark.parametrize("lq, lk, expected", [
        ([5], [7], [(slice(0, 5), slice(0, 7), 1, 5, 7)]),  # one segment
        ([2, 2, 2], [3, 3, 3], [(slice(0, 6), slice(0, 9), 3, 2, 3)]),  # equal lengths
        # each length is a contiguous run: slices
        ([2, 2, 3], [2, 2, 3], [(slice(0, 4), slice(0, 4), 2, 2, 2),
                                (slice(4, 7), slice(4, 7), 1, 3, 3)]),
        # the two 2-row segments are apart: a chunk per run
        ([2, 3, 2], [2, 3, 2], [(slice(0, 2), slice(0, 2), 1, 2, 2),
                                (slice(2, 5), slice(2, 5), 1, 3, 3),
                                (slice(5, 7), slice(5, 7), 1, 2, 2)]),
    ], ids=["single", "equal", "contiguous_groups", "scattered_group"])
    def test_chunk_layout(self, lq, lk, expected):
        chunks = nn._segment_chunks([0, *accumulate(lq)], [0, *accumulate(lk)], 2)
        assert chunks == expected

    def test_equal_segments_chunk_at_cache_size(self):
        # 40 segments of 64 x 64 at 2 heads: 8 segments per 512 KiB chunk
        off = nn.block_offsets(40, 64).tolist()
        chunks = nn._segment_chunks(off, off, 2)
        assert [(c[0], c[2]) for c in chunks] == [(slice(i, i + 512), 8)
                                                  for i in range(0, 2560, 512)]

    def test_one_tape_node_per_call(self, rng):
        q = T.Tensor(rng.standard_normal((6, 8)), requires_grad=True)
        with T.fresh_tape() as tape:
            nn.attention_heads(q, q, q, 2, [0, 2, 5, 6])
            assert len(tape) == 1

    def test_segments_do_not_mix(self, rng):
        # changing segment 1's keys leaves segment 0's outputs bitwise unchanged
        q = rng.standard_normal((5, 8))
        k = rng.standard_normal((5, 8))
        a = nn.attention_heads(T.Tensor(q), T.Tensor(k), T.Tensor(k), 2, [0, 2, 5]).data
        k[2:] += 10.0
        b = nn.attention_heads(T.Tensor(q), T.Tensor(k), T.Tensor(k), 2, [0, 2, 5]).data
        assert np.array_equal(a[:2], b[:2])
        assert not np.allclose(a[2:], b[2:])

    @pytest.mark.parametrize("q_off,kv_off", [
        ([0, 2, 4], [0, 3]),  # segment counts differ
        ([0, 2, 2, 4], None),  # empty segment
        ([0, 3], None),  # does not cover every row
        ([1, 4], None),  # does not start at 0
        ([0, 2.5, 4], None),  # not integers
    ])
    def test_bad_offsets_rejected(self, rng, q_off, kv_off):
        x = T.Tensor(rng.standard_normal((4, 8)))
        with pytest.raises(T.ShapeError):
            nn.attention_heads(x, x, x, 2, q_off, kv_off)

    @pytest.mark.parametrize("off, named", [
        ([0, 2.5, 4], "[0, 2.5, 4]"),  # a cast to intp would run it as [0, 2, 4]
        (np.array([0.0, 2.0, 4.0]), "array([0., 2., 4.])"),
    ])
    def test_non_integer_offsets_named(self, rng, off, named):
        x = T.Tensor(rng.standard_normal((4, 8)))
        with pytest.raises(T.ShapeError, match=re.escape(f"query offsets {named} must be int")):
            nn.attention_heads(x, x, x, 2, off)


def textbook_attention(q, k, v, g, heads, q_off, kv_off):
    """Output and (dq, dk, dv) of segmented multi-head attention, one segment
    and head at a time, with the softmax normalised before the value product."""
    out, dq, dk, dv = (np.zeros_like(a) for a in (q, q, k, v))
    hd = q.shape[1] // heads
    for a, b, c, d in zip(q_off[:-1], q_off[1:], kv_off[:-1], kv_off[1:]):
        for h in range(heads):
            cols = slice(h * hd, (h + 1) * hd)
            qs, ks, vs, gs = q[a:b, cols], k[c:d, cols], v[c:d, cols], g[a:b, cols]
            s = qs @ ks.T / np.sqrt(hd)
            p = np.exp(s - s.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            out[a:b, cols] = p @ vs
            dp = gs @ vs.T
            ds = p * (dp - (dp * p).sum(axis=1, keepdims=True)) / np.sqrt(hd)
            dq[a:b, cols] = ds @ ks
            dk[c:d, cols] = ds.T @ qs
            dv[c:d, cols] = p.T @ gs
    return out, dq, dk, dv


class TestAttentionReference:
    """The fused kernel against `textbook_attention` on every chunk layout."""

    CASES = {
        "one_row_queries": ([0, 1, 2, 3], [0, 4, 9, 11], 8, 2),
        "unequal_lengths": ([0, 2, 5, 6], [0, 2, 5, 6], 8, 2),
        "non_contiguous_groups": ([0, 2, 5, 7, 10, 12], [0, 2, 5, 7, 10, 12], 8, 2),
        "several_chunks": (nn.block_offsets(40, 64), nn.block_offsets(40, 64), 8, 2),
        "one_head": ([0, 3, 5], [0, 4, 9], 8, 1),
        "train_self_32x64": (nn.block_offsets(32, 64), nn.block_offsets(32, 64), 32, 4),
        "train_cross_32x8_65": (nn.block_offsets(32, 8), nn.block_offsets(32, 65), 32, 4),
        "pool_1x257": ([0, 257], [0, 257], 32, 4),
        "shift_path_1x257": ([0, 257], [0, 257], 32, 4),
        "no_shift_near_bound_1x257": ([0, 257], [0, 257], 32, 4),
    }
    # q and k of these cases are multiplied by the factor, which puts the
    # score bound above and just under the kernel's no-shift limit
    SCALES = {"shift_path_1x257": 3.0, "no_shift_near_bound_1x257": 2.4}

    @staticmethod
    def run(rng, case):
        """Random q, k, v and upstream gradient for a case; returns copies
        of them as drawn, the arrays the kernel was given, its output and
        its gradients."""
        q_off, kv_off, dim, heads = TestAttentionReference.CASES[case]
        q = rng.standard_normal((q_off[-1], dim))
        k, v = rng.standard_normal((2, kv_off[-1], dim))
        if case in TestAttentionReference.SCALES:
            q *= TestAttentionReference.SCALES[case]
            k *= TestAttentionReference.SCALES[case]
        given = (q, k, v, rng.standard_normal(q.shape))
        drawn = [a.copy() for a in given]
        tq, tk, tv = (T.Tensor(a, requires_grad=True) for a in given[:3])
        with T.fresh_tape() as tape:
            out = nn.attention_heads(tq, tk, tv, heads, q_off, kv_off).data
            grads = tape[0].grad_fn(given[3])
        return drawn, given, out, grads

    def test_cases_cover_chunk_layouts(self):
        def chunks(case):
            q_off, kv_off, _, heads = self.CASES[case]
            return nn._segment_chunks(list(q_off), list(kv_off), heads)
        # lengths 2, 3, 2, 3, 2: one chunk per run of equal lengths
        assert [c[2:] for c in chunks("non_contiguous_groups")] == [
            (1, 2, 2), (1, 3, 3), (1, 2, 2), (1, 3, 3), (1, 2, 2)]
        assert len(chunks("several_chunks")) > 1
        assert {c[3] for c in chunks("one_row_queries")} == {1}

    @pytest.mark.parametrize("case, lo, hi", [
        ("shift_path_1x257", nn._NO_SHIFT_BOUND, np.inf),
        ("no_shift_near_bound_1x257", 0.95 * nn._NO_SHIFT_BOUND, nn._NO_SHIFT_BOUND),
    ])
    def test_cases_cover_score_bounds(self, rng, case, lo, hi):
        # the bound the kernel tests: |s| <= sqrt(head_dim) max|q| max|k|
        _, _, dim, heads = self.CASES[case]
        (q, k, _, _), _, _, _ = self.run(rng, case)
        bound = np.sqrt(dim // heads) * np.abs(q).max() * np.abs(k).max()
        assert lo < bound <= hi

    @pytest.mark.parametrize("case", CASES)
    def test_matches_textbook_softmax(self, rng, case):
        q_off, kv_off, _, heads = self.CASES[case]
        drawn, _, out, grads = self.run(rng, case)
        expected = textbook_attention(*drawn, heads, q_off, kv_off)
        for got, want in zip((out, *grads), expected):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("reach", [nn._NO_SHIFT_BOUND, 750.0], ids=["at_bound", "past_exp"])
    def test_extreme_scores_stay_finite(self, reach, sign):
        # k is parallel to q, so the bound is tight: the scores run from
        # sign * (reach - 10) to sign * reach. At the no-shift limit the
        # unshifted e reaches e^(+-300); exp(750) overflows unless the
        # kernel shifts. With every key parallel to q, dq is a near-total
        # cancellation (condition about reach / 10), so it gets 1e-10.
        a = np.sqrt(reach / 2)
        q = np.full((1, 4), sign * a)
        k = np.linspace(a * (1 - 10 / reach), a, 257)[:, None] * np.ones(4)
        assert (np.sqrt(4) * a * a <= nn._NO_SHIFT_BOUND) == (reach <= nn._NO_SHIFT_BOUND)
        v = np.random.default_rng(0).standard_normal((257, 4))
        g = np.ones((1, 4))
        expected = textbook_attention(q, k, v, g, 1, [0, 1], [0, 257])
        tensors = [T.Tensor(x, requires_grad=True) for x in (q, k, v)]
        with T.fresh_tape() as tape:
            out = nn.attention_heads(*tensors, 1, [0, 1], [0, 257]).data
            grads = tape[0].grad_fn(g)
        for got, want, tol in zip((out, *grads), expected, (1e-12, 1e-10, 1e-12, 1e-12)):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("where, value", [("q", np.nan), ("k", np.inf)])
    def test_non_finite_inputs_give_non_finite_output(self, rng, where, value):
        q, k, v = rng.standard_normal((3, 9, 8))
        (q if where == "q" else k)[4, 2] = value
        with np.errstate(invalid="ignore"):
            out = nn.attention_heads(T.Tensor(q), T.Tensor(k), T.Tensor(v), 2, [0, 4, 9]).data
            expected = textbook_attention(q, k, v, np.zeros_like(q), 2, [0, 4, 9], [0, 4, 9])[0]
        assert not np.all(np.isfinite(out))
        assert np.array_equal(np.isfinite(out), np.isfinite(expected))

    @pytest.mark.parametrize("case", ["one_row_queries", "one_head", "unequal_lengths"])
    def test_inputs_and_upstream_gradient_unmodified(self, rng, case):
        # one-row query segments and a single head give chunks whose head
        # blocks are already contiguous: a scale or divide in place would
        # write through to the caller's arrays
        drawn, given, _, _ = self.run(rng, case)
        for a, b in zip(given, drawn):
            assert np.array_equal(a, b)


class TestAttentionTape:
    def test_tape_keeps_no_weights(self, rng):
        # one 512-row segment at 4 heads: its weights are one 4 x 512 x 512
        # float64 block, 8 MiB; the node keeps only the row sums
        q, k, v = (T.Tensor(a, requires_grad=True) for a in rng.standard_normal((3, 512, 32)))
        tracemalloc.start()
        try:
            with T.fresh_tape() as tape:
                out = nn.attention_heads(q, k, v, 4)
                held, _ = tracemalloc.get_traced_memory()
                assert len(tape) == 1 and out.shape == (512, 32)
        finally:
            tracemalloc.stop()
        assert held < 1 << 20


class TestAttentionGolden:
    """sha256 of the kernel's output and its three gradients, pinned bitwise
    for equal segments, one long segment, and segments whose lengths recur
    apart (digest taken when such lengths ran as one index-array chunk)."""

    CASES = {
        "uniform_32x64": (nn.block_offsets(32, 64), None, 32, 4,
                          "8c634f9b535ea45c04edec99ee6c2e3629675f714c3b8778bea506fd44a3c746"),
        "one_1x257": ([0, 257], None, 32, 4,
                      "324441e140c3097c73c4c65692ada83f80980a15f0fec59079a6ac15dd703b5e"),
        "index_groups": ([0, 2, 5, 7, 10, 12], [0, 3, 4, 7, 9, 12], 8, 2,
                         "73e2d6266a6be7a2e3fd282dd44f91b44e6666ca788db6a9496eb0de8e418006"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_output_and_gradients(self, case):
        q_off, kv_off, dim, heads, digest = self.CASES[case]
        rng = np.random.default_rng(17)
        q = rng.standard_normal((q_off[-1], dim))
        k, v = rng.standard_normal((2, (kv_off or q_off)[-1], dim))
        g = rng.standard_normal(q.shape)
        tensors = [T.Tensor(a, requires_grad=True) for a in (q, k, v)]
        with T.fresh_tape() as tape:
            out = nn.attention_heads(*tensors, heads, q_off, kv_off).data
            grads = tape[0].grad_fn(g)
        h = hashlib.sha256()
        for a in (out, *grads):
            h.update(a.tobytes())
        assert h.hexdigest() == digest


class TestReadoutBlock:
    OFFSETS = [0, 2, 5, 6, 10]

    def test_matches_full_block_then_take(self, rng):
        block = nn.TransformerBlock(8, 2, 16, rng)
        x = T.Tensor(rng.standard_normal((10, 8)))
        rows = [1, 2, 5, 7]
        out = block.readout(x, self.OFFSETS, rows).data
        expected = T.take(block(x, self.OFFSETS), rows).data
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("rows", [
        [1, 2, 5],  # one segment without a row
        [1, 2, 5, 7, 8],  # two rows in the last segment
        [2, 1, 5, 7],  # row 2 is outside segment 0
    ])
    def test_one_row_inside_each_segment_required(self, rng, rows):
        block = nn.TransformerBlock(8, 2, 16, rng)
        with pytest.raises(T.ShapeError):
            block.readout(T.Tensor(rng.standard_normal((10, 8))), self.OFFSETS, rows)


class TestFrozenWeightGradients:
    """A weight that needs no gradient gets None from the backward rule; the
    input gradient is bitwise the one computed next to a trainable weight."""

    @pytest.mark.parametrize("op,shapes", [
        (T.linear, [(5, 4), (3, 4), (3,)]),
        (nn.layer_norm, [(5, 4), (4,), (4,)]),
    ])
    def test_input_gradient_alone(self, rng, op, shapes):
        x, weight, bias = (T.Tensor(rng.standard_normal(s)) for s in shapes)
        x.requires_grad = True
        g = rng.standard_normal(op(x, weight, bias).shape)
        grads = {}
        for trainable in (True, False):
            weight.requires_grad = bias.requires_grad = trainable
            with T.fresh_tape() as tape:
                op(x, weight, bias)
                grads[trainable] = tape[0].grad_fn(g)
        assert grads[False][1] is None and grads[False][2] is None
        assert grads[True][1] is not None and grads[True][2] is not None
        assert np.array_equal(grads[False][0], grads[True][0])
