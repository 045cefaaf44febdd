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

    def test_stack_requires_layers(self, rng):
        with pytest.raises(T.ShapeError):
            nn.decoder_forward([], T.Tensor(np.zeros((1, 4))), T.Tensor(np.zeros((1, 4))))

    def test_stack_deterministic(self, rng):
        layers = [nn.TransformerDecoderLayer(8, 2, 16, rng) for _ in range(2)]
        q = T.Tensor(rng.standard_normal((3, 8)))
        m = T.Tensor(rng.standard_normal((5, 8)))
        a = nn.decoder_forward(layers, q, m).data
        b = nn.decoder_forward(layers, q, m).data
        assert np.array_equal(a, b)


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
        # the two 2-row segments are apart: index arrays
        ([2, 3, 2], [2, 3, 2], [([0, 1, 5, 6], [0, 1, 5, 6], 2, 2, 2),
                                (slice(2, 5), slice(2, 5), 1, 3, 3)]),
    ], ids=["single", "equal", "contiguous_groups", "scattered_group"])
    def test_chunk_layout(self, lq, lk, expected):
        chunks = nn._segment_chunks(np.array(lq), np.array(lk), 2)
        assert len(chunks) == len(expected)
        for got, want in zip(chunks, expected):
            assert got[2:] == want[2:]
            for rows, want_rows in zip(got[:2], want[:2]):
                if isinstance(want_rows, slice):
                    assert rows == want_rows
                else:
                    assert np.array_equal(rows, want_rows)

    def test_equal_segments_chunk_at_cache_size(self):
        # 40 segments of 64 x 64 at 2 heads: 8 segments per 512 KiB chunk
        chunks = nn._segment_chunks(np.full(40, 64), np.full(40, 64), 2)
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
    ])
    def test_bad_offsets_rejected(self, rng, q_off, kv_off):
        x = T.Tensor(rng.standard_normal((4, 8)))
        with pytest.raises(T.ShapeError):
            nn.attention_heads(x, x, x, 2, q_off, kv_off)


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
                grads[trainable] = tape.nodes[0].grad_fn(g)
        assert grads[False][1] is None and grads[False][2] is None
        assert grads[True][1] is not None and grads[True][2] is not None
        assert np.array_equal(grads[False][0], grads[True][0])
