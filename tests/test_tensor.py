import math
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pixtext import nn
from pixtext import tensor as T


class TestL2Normalize:
    def test_three_four_five(self):
        out = T.l2_normalize(T.Tensor([[3.0, 4.0]]), axis=1)
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_unit_vector_fixed_point(self):
        v = np.array([[1.0, 0.0, 0.0]])
        out = T.l2_normalize(T.Tensor(v), axis=1)
        assert np.allclose(out.data, v, atol=1e-15)

    @given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_output_norm_is_one(self, xs):
        arr = np.array([xs])
        if np.linalg.norm(arr) < 1e-6:
            arr = arr + 1.0
        out = T.l2_normalize(T.Tensor(arr), axis=1)
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12

    def test_near_zero_divides_by_eps(self):
        v = np.array([[1e-15, 0.0]])
        out = T.l2_normalize(T.Tensor(v), axis=1, eps=1e-12)
        assert np.allclose(out.data, v / 1e-12)

    def test_gradcheck_through_sum(self, rng):
        x = T.Tensor(rng.standard_normal((2, 4)) + 1.0)
        report = T.grad_check(lambda a: T.tsum(T.l2_normalize(a, axis=1)), [x], tol=1e-5)
        assert report.passed


@pytest.mark.parametrize("op", [lambda a: T.clamp(a, -0.5, 0.5),
                                lambda a: T.l2_normalize(a, axis=1)], ids=["clamp", "l2_normalize"])
def test_masked_ops_record_no_node_under_no_grad(rng, op):
    # their gradient masks are built only for a recorded node
    x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    with T.fresh_tape() as tape:
        with T.no_grad():
            out = op(x)
        assert out.is_leaf and not out.requires_grad and len(tape) == 0
        recorded = op(x)
        assert not recorded.is_leaf and len(tape) == 1
        assert np.array_equal(recorded.data, out.data)


class TestBceWithLogits:
    def test_zero_logits_give_log_two(self):
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = T.bce_with_logits(T.Tensor(np.zeros((2, 2))), targets)
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_saturated_logits_give_zero(self):
        targets = np.array([[1.0, 0.0]])
        logits = np.array([[1e4, -1e4]])
        loss = T.bce_with_logits(T.Tensor(logits), targets)
        assert loss.item() < 1e-12

    def test_matches_naive_per_entry_formula(self, rng):
        x = rng.standard_normal((3, 4))
        t = (rng.random((3, 4)) < 0.5).astype(float)
        # independent oracle: direct per-entry formula with plain sigmoids
        sig = 1.0 / (1.0 + np.exp(-x))
        expected = -(t * np.log(sig) + (1 - t) * np.log(1 - sig)).mean()
        loss = T.bce_with_logits(T.Tensor(x), t)
        assert abs(loss.item() - expected) < 1e-10

    def test_non_binary_target_rejected(self):
        with pytest.raises(T.ContractError):
            T.bce_with_logits(T.Tensor(np.zeros((1, 2))), np.array([[0.5, 1.0]]))


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        T.backward(T.tsum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_square_gives_two_x(self, rng):
        x = T.Tensor(rng.standard_normal(5), requires_grad=True)
        T.backward(T.tsum(T.mul(x, x)))
        assert np.allclose(x.grad, 2 * x.data, atol=1e-15)

    def test_repeated_backward_accumulates(self, rng):
        x = T.Tensor(np.ones(3), requires_grad=True)
        loss = T.tsum(x)
        T.backward(loss)
        T.backward(loss)
        assert np.array_equal(x.grad, 2 * np.ones(3))
        # attention rebuilds its weights in every backward from the same operands
        qkv = [T.Tensor(a, requires_grad=True) for a in rng.standard_normal((3, 6, 8))]
        with T.fresh_tape():
            out = nn.attention_heads(*qkv, 2, [0, 2, 6])
            loss = T.tsum(T.mul(out, T.Tensor(rng.standard_normal((6, 8)))))
            T.backward(loss)
            once = [t.grad.copy() for t in qkv]
            T.backward(loss)
        for t, g in zip(qkv, once):
            assert np.array_equal(t.grad, 2 * g)

    def test_composite_graph_matches_finite_differences(self, rng):
        w, bias = T.Tensor(rng.standard_normal((4, 3))), T.Tensor(rng.standard_normal(4))
        v = T.Tensor(rng.standard_normal(4))
        labels = rng.integers(0, 4, size=2)

        def f(a):
            h = T.l2_normalize(T.gelu(T.linear(a, w, bias)), axis=1)
            return T.count_cross_entropy(T.mul_rowvec(h, v), np.eye(4)[labels])

        report = T.grad_check(f, [T.Tensor(rng.standard_normal((2, 3)))], tol=1e-5)
        assert report.max_rel_err < 1e-5

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(T.ContractError):
            T.backward(T.mul(x, 2.0))

    def test_backward_deterministic_bitwise(self, rng):
        data = rng.standard_normal((4, 4))
        grads = []
        for _ in range(2):
            with T.fresh_tape():
                x = T.Tensor(data.copy(), requires_grad=True)
                gram = T.linear(x, x, T.Tensor(np.zeros(4)))
                y = T.tsum(T.mul(T.l2_normalize(T.gelu(gram), axis=1), 3.0))
                T.backward(y)
                grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])


class TestGradCheck:
    def test_sum_has_tiny_error(self, rng):
        report = T.grad_check(T.tsum, [T.Tensor(rng.standard_normal((2, 3)))])
        assert report.max_rel_err < 1e-9

    def test_l2_normalize_then_sum_passes(self, rng):
        x = T.Tensor(rng.standard_normal(4) + 2.0)
        report = T.grad_check(lambda a: T.tsum(T.l2_normalize(a, axis=0)), [x], tol=1e-5)
        assert report.passed

    def test_corrupted_gradient_rule_is_flagged(self, rng):
        def bad_op(a):
            # forward is x^2 but the registered rule claims d/dx = 3x
            return T.record([a], a.data**2, lambda g: [g * 3.0 * a.data])

        report = T.grad_check(
            lambda a: T.tsum(bad_op(a)), [T.Tensor(rng.standard_normal(3) + 1.0)]
        )
        assert not report.passed


class TestStructuralOps:
    def test_scalar_broadcast_allowed(self):
        x = T.Tensor([1.0, 2.0])
        assert np.allclose(T.add(x, 1.5).data, [2.5, 3.5])
        assert np.allclose(T.mul(x, 2.0).data, [2.0, 4.0])

    def test_same_shape_required_otherwise(self):
        with pytest.raises(T.ShapeError):
            T.add(T.Tensor(np.zeros(2)), T.Tensor(np.zeros(3)))

    def test_concat_slices_recover_parts(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 2))
        merged = T.concat([T.Tensor(a), T.Tensor(b)], axis=1)
        assert np.array_equal(merged.data[:, :3], a)
        assert np.array_equal(merged.data[:, 3:], b)

    def test_take_gathers_rows_and_scatter_adds_grad(self):
        x = T.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = T.take(x, [0, 0, 2])
        assert np.array_equal(out.data, [[0, 1], [0, 1], [4, 5]])
        T.backward(T.tsum(out))
        assert np.array_equal(x.grad, [[2, 2], [0, 0], [1, 1]])

    @pytest.mark.parametrize("indices", [[1.7], np.array([True, False, True])],
                             ids=["float", "bool"])
    def test_take_rejects_non_integer_indices(self, indices):
        x = T.Tensor(np.arange(6.0).reshape(3, 2))
        with pytest.raises(T.ContractError, match=r"^take: integer ids needed, got dtype"):
            T.take(x, indices)

    def test_take_accepts_an_empty_index_list(self):
        out = T.take(T.Tensor(np.arange(6.0).reshape(3, 2)), [])
        assert out.shape == (0, 2)

    def test_clamp_limits_and_grad_mask(self):
        x = T.Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        out = T.clamp(x, -1.0, 1.0)
        assert np.array_equal(out.data, [-1.0, 0.5, 1.0])
        T.backward(T.tsum(out))
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_rowvec_ops(self, rng):
        x = rng.standard_normal((3, 4))
        v = rng.standard_normal(4)
        assert np.allclose(T.mul_rowvec(T.Tensor(x), T.Tensor(v)).data, x * v)


class TestTape:
    def test_no_grad_blocks_recording(self):
        with T.fresh_tape() as tape:
            x = T.Tensor(np.ones(2), requires_grad=True)
            with T.no_grad():
                T.mul(x, 2.0)
            assert len(tape) == 0
            T.mul(x, 2.0)
            assert len(tape) == 1

    def test_record_under_no_grad_reads_no_input(self):
        def inputs():
            raise AssertionError("inputs scanned under no_grad")
            yield

        with T.fresh_tape() as tape, T.no_grad():
            out = T.record(inputs(), np.ones(2), lambda g: [g])
        assert not out.requires_grad and out.is_leaf and len(tape) == 0

    def test_reset_clears_nodes(self):
        with T.fresh_tape() as tape:
            x = T.Tensor(np.ones(2), requires_grad=True)
            T.mul(x, 2.0)
            T.reset_tape()
            assert len(tape) == 0

    def test_ops_on_constants_not_recorded(self):
        with T.fresh_tape() as tape:
            T.mul(T.Tensor(np.ones(2)), T.Tensor(np.ones(2)))
            assert len(tape) == 0


class TestTapeKeeps:
    """The tape holds only the arrays a gradient rule reads: an intermediate
    that no rule reads is freed as soon as the caller drops it."""

    @staticmethod
    def params(rng, trainable):
        w = T.Tensor(rng.standard_normal((2, 3)), requires_grad=trainable)
        return w, T.Tensor(np.zeros(2), requires_grad=trainable)

    def test_linear_output_feeding_gelu_freed(self, rng):
        x = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with T.fresh_tape():
            h = T.linear(x, *self.params(rng, True))
            freed = weakref.ref(h.data)
            y = T.gelu(h)
            del h
            assert freed() is None
            T.backward(T.tsum(y))
        assert x.grad is not None

    @pytest.mark.parametrize("trainable", [False, True])
    def test_linear_keeps_its_input_only_for_a_weight_gradient(self, rng, trainable):
        a = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with T.fresh_tape():
            s = T.add(a, 1.0)
            kept = weakref.ref(s.data)
            T.linear(s, *self.params(rng, trainable))
            del s
            assert (kept() is not None) == trainable

    def test_reset_frees_saved_arrays_of_a_live_loss(self, rng):
        x = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with T.fresh_tape():
            h = T.linear(x, *self.params(rng, False))
            t = T.l2_normalize(h)  # l2_normalize saves its output, not its input
            unsaved, saved = weakref.ref(h.data), weakref.ref(t.data)
            loss = T.tsum(t)
            del h, t
            assert unsaved() is None and saved() is not None
            T.reset_tape()
            assert saved() is None
        assert loss.node is not None and loss.node.sources == ()


class TestDct1:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 3, 4)])
    def test_roundtrip(self, tmp_path, rng, shape):
        arr = rng.standard_normal(shape)
        path = tmp_path / "dump.dct1"
        T.write_dct1(path, arr)
        back = T.read_dct1(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_layout_is_documented_binary(self, tmp_path):
        path = tmp_path / "dump.dct1"
        T.write_dct1(path, np.array([[1.0, 2.0]]))
        raw = path.read_bytes()
        assert raw[:4] == b"DCT1"
        assert raw[4:8] == (2).to_bytes(4, "little")
        assert raw[8:12] == (1).to_bytes(4, "little")
        assert raw[12:16] == (2).to_bytes(4, "little")
        assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("make", [
        lambda: np.array(2.5),
        lambda: np.zeros((0, 3)),
        lambda: np.arange(12.0).reshape(3, 4).T,
        lambda: np.array([[0, 3], [7, 1]], dtype=np.intp),
        lambda: T.Tensor(np.arange(6.0).reshape(2, 3)),
    ], ids=["0-d", "empty", "transposed", "int_mask", "tensor"])
    def test_file_bytes_are_header_plus_f8_payload(self, tmp_path, make):
        arr = make()
        data = arr.data if isinstance(arr, T.Tensor) else arr
        header = b"DCT1" + b"".join(n.to_bytes(4, "little") for n in (data.ndim, *data.shape))
        path = tmp_path / "dump.dct1"
        T.write_dct1(path, arr)
        assert path.read_bytes() == header + data.astype("<f8").tobytes()
        back = T.read_dct1(path)
        assert back.dtype == np.float64 and back.shape == data.shape
        assert back.flags.c_contiguous and back.flags.writeable
        assert np.array_equal(back, data)

    def test_short_read_names_the_file(self, tmp_path, monkeypatch):
        # the file shrinks between the size check and the payload read
        path = tmp_path / "shrunk.dct1"
        T.write_dct1(path, np.arange(4.0))
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(T.os, "fstat", lambda fd: SimpleNamespace(st_size=full))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: short DCT1 read: 24 of 32 payload bytes")):
            T.read_dct1(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dct1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            T.read_dct1(path)

    @pytest.mark.parametrize("cut,cause", [
        (6, "no rank"), (10, "truncated DCT1 header"), (20, "truncated DCT1 payload"),
    ])
    def test_truncation_rejected(self, tmp_path, cut, cause):
        path = tmp_path / "dump.dct1"
        T.write_dct1(path, np.arange(6.0).reshape(2, 3))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=cause):
            T.read_dct1(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "dump.dct1"
        T.write_dct1(path, np.array([0.0, 1.0, 2.0]))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="4 trailing bytes"):
            T.read_dct1(path)

    @given(arr=arrays(np.float64, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
                      elements=st.floats(width=64)),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_array_roundtrips_and_any_cut_or_append_is_rejected(self, tmp_path_factory,
                                                                    arr, data):
        path = tmp_path_factory.mktemp("dct1") / "dump.dct1"
        T.write_dct1(path, arr)
        back = T.read_dct1(path)
        assert back.dtype == np.float64 and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()  # bitwise, NaN payloads and -0.0 included
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            T.read_dct1(path)
        path.write_bytes(raw + data.draw(st.binary(min_size=1, max_size=24), label="extra"))
        with pytest.raises(ValueError):
            T.read_dct1(path)

    @pytest.mark.parametrize("raw, cause", [
        (b"NOPE" + b"\x00" * 16, "bad magic b'NOPE', expected DCT1"),
        (b"DCT1\x02\x00", "truncated DCT1 header: 6 bytes, no rank"),
        (b"DCT1" + (2).to_bytes(4, "little") + b"\x01\x00\x00\x00",
         "truncated DCT1 header: rank 2 needs 16 bytes, file has 12"),
        (b"DCT1" + (1).to_bytes(4, "little") + (3).to_bytes(4, "little") + b"\x00" * 8,
         "truncated DCT1 payload: dims [3] need 36 bytes, file has 20"),
        (b"DCT1" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + b"\x00" * 8 + b"junk",
         "4 trailing bytes after the DCT1 payload of dims [1]"),
    ], ids=["magic", "no_rank", "header", "payload", "trailing"])
    def test_error_names_the_file(self, tmp_path, raw, cause):
        path = tmp_path / "named.dct1"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {cause}")):
            T.read_dct1(path)

    def test_dims_checked_against_file_size_before_reading(self, tmp_path):
        # a header claiming 2^32-1 x 2^32-1 values in a 16-byte file
        path = tmp_path / "huge.dct1"
        path.write_bytes(b"DCT1" + (2).to_bytes(4, "little") + b"\xff" * 8)
        with pytest.raises(ValueError, match="truncated DCT1 payload"):
            T.read_dct1(path)

    @staticmethod
    def u32s(values) -> bytes:
        return b"".join(v.to_bytes(4, "little") for v in values)

    @given(raw=st.one_of(
        st.binary(max_size=48),
        st.builds(lambda tail: b"DCT1" + tail, st.binary(max_size=48)),
        # a rank, dims and a payload that may or may not agree with each other
        st.builds(lambda rank, dims, tail: b"DCT1" + TestDct1.u32s([rank, *dims]) + tail,
                  st.integers(0, 4) | st.integers(0, 2**32 - 1),
                  st.lists(st.integers(0, 3) | st.integers(0, 2**32 - 1), max_size=4),
                  st.binary(max_size=80)),
    ))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_any_bytes_read_whole_or_rejected_naming_the_file(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "any.dct1"
        path.write_bytes(raw)
        try:
            arr = T.read_dct1(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            return
        header = b"DCT1" + self.u32s([arr.ndim, *arr.shape])
        assert arr.dtype == np.float64
        assert raw == header + arr.astype("<f8").tobytes()


class TestBatchOps:
    def test_stack_and_its_gradient(self, rng):
        parts = [T.Tensor(rng.standard_normal((2, 3))) for _ in range(3)]
        assert np.array_equal(T.stack(parts).data, np.stack([p.data for p in parts]))
        probe = T.Tensor(rng.standard_normal((3, 2, 3)))
        report = T.grad_check(lambda a, b, c: T.tsum(T.mul(T.stack([a, b, c]), probe)), parts)
        assert report.passed

    def test_stack_rejects_mixed_shapes(self):
        with pytest.raises(T.ShapeError):
            T.stack([T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2)))])

    def test_block_matmul_t_matches_per_block_products(self, rng):
        a, b = rng.standard_normal((6, 4)), rng.standard_normal((9, 4))
        out = T.block_matmul_t(T.Tensor(a), T.Tensor(b), 3).data
        expected = np.concatenate([a[2 * i : 2 * i + 2] @ b[3 * i : 3 * i + 3].T for i in range(3)])
        assert np.allclose(out, expected, rtol=0, atol=1e-14)

    def test_mean_rows_per_block(self, rng):
        x = rng.standard_normal((6, 4))
        out = T.mean_rows(T.Tensor(x), 3).data
        assert np.allclose(out, x.reshape(3, 2, 4).mean(axis=1), rtol=0, atol=1e-15)
        with pytest.raises(T.ShapeError):
            T.mean_rows(T.Tensor(x), 4)


def _add_at(shape, idx, g):
    ref = np.zeros(shape)
    np.add.at(ref, idx, g)
    return ref


class TestScatterGradients:
    """take gradients equal the np.add.at sums bitwise."""

    @pytest.mark.parametrize("repeated", [False, True])
    def test_take_backward_matches_add_at(self, rng, repeated):
        idx = rng.integers(0, 5, size=200) if repeated else rng.permutation(5)[:4]
        x = T.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        g = rng.standard_normal((idx.size, 3))
        g[0] = -0.0  # add.at writes +0.0 for it
        with T.fresh_tape() as tape:
            T.backward(T.tsum(T.mul(T.take(x, idx), T.Tensor(g))))
            direct = tape[0].grad_fn(g)[0]  # before a leaf's zeros absorb -0.0
        assert x.grad.tobytes() == _add_at((5, 3), idx, g).tobytes()
        assert direct.tobytes() == _add_at((5, 3), idx, g).tobytes()


def _patch_index_loop(n, h, w, f):
    """Flat indices of every f x f patch of n stacked h x w x 3 images, one
    row per cell, image by image in row-major order, cut by slicing."""
    flat = np.arange(n * h * w * 3).reshape(n, h, w, 3)
    rows = []
    for i in range(n):
        for pr in range(h // f):
            for pc in range(w // f):
                rows.append(flat[i, pr * f : (pr + 1) * f, pc * f : (pc + 1) * f].reshape(-1))
    return np.stack(rows)


class TestPatchify:
    """patchify equals the slice loop's gather; its backward scatters back."""

    CASES = {
        "image": (None, 8, 8, 4),
        "batch": (3, 8, 8, 4),
        "h_ne_w": (2, 12, 8, 4),
        "f2": (2, 6, 4, 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_slice_loop(self, rng, case):
        n, h, w, f = self.CASES[case]
        x = rng.standard_normal((h, w, 3) if n is None else (n, h, w, 3))
        ref = x.reshape(-1)[_patch_index_loop(n or 1, h, w, f)]
        out = T.patchify(T.Tensor(x), f)
        assert out.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_backward_is_the_inverse_permutation(self, rng, case):
        n, h, w, f = self.CASES[case]
        x = T.Tensor(rng.standard_normal((h, w, 3) if n is None else (n, h, w, 3)),
                     requires_grad=True)
        g = rng.standard_normal(((n or 1) * (h // f) * (w // f), f * f * 3))
        g[0, :3] = -0.0  # a permutation keeps the sign of zero
        with T.fresh_tape() as tape:
            T.patchify(x, f)
        assert len(tape) == 1
        (grad,) = tape[0].grad_fn(g)
        ref = np.empty(x.size)
        ref[_patch_index_loop(n or 1, h, w, f)] = g
        assert grad.tobytes() == ref.reshape(x.shape).tobytes()


def _item_cross_entropy(x, rows, labels):
    """Plain-numpy mean cross-entropy of items whose logits are the rows
    `rows` of x, and its gradient with respect to x."""
    logp = x[rows] - x[rows].max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    items = np.arange(len(rows))
    g = np.exp(logp)
    g[items, labels] -= 1.0
    grad = np.zeros_like(x)
    np.add.at(grad, rows, g / len(rows))
    return -logp[items, labels].mean(), grad


class TestCountCrossEntropy:
    def test_matches_cross_entropy_over_repeated_rows(self, rng):
        counts = np.array([[2, 0, 1], [0, 0, 0], [1, 3, 0]])
        rows, labels = np.nonzero(counts)
        rows, labels = np.repeat(rows, counts[rows, labels]), np.repeat(labels, counts[rows, labels])
        x = T.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        with T.fresh_tape():
            cell = T.count_cross_entropy(x, counts)
            T.backward(cell)
        loss, grad = _item_cross_entropy(x.data, rows, labels)
        assert abs(cell.item() - loss) <= 4e-15 * loss
        assert np.max(np.abs(x.grad - grad)) <= 1e-15
        assert np.all(x.grad[1] == 0.0)

    def test_uniform_logits_gives_log_k(self):
        for k in (2, 8, 150):
            loss = T.count_cross_entropy(T.Tensor(np.zeros((4, k))), np.eye(k)[[0, 1, 1, 0]])
            assert abs(loss.item() - math.log(k)) < 1e-12
        # spot value quoted to 6 decimals for K=150
        loss = T.count_cross_entropy(T.Tensor(np.zeros((1, 150))), np.eye(150)[[0]])
        assert abs(loss.item() - 5.010635) < 1e-6

    def test_saturated_logit_is_zero_loss(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e4
        loss = T.count_cross_entropy(T.Tensor(logits), np.eye(5)[[2]])
        assert loss.item() < 1e-12

    def test_gradient_matches_central_differences(self, rng):
        counts = rng.integers(0, 3, size=(5, 4))
        report = T.grad_check(
            lambda a: T.count_cross_entropy(a, counts),
            [T.Tensor(rng.standard_normal((5, 4)))],
            tol=1e-6,
        )
        assert report.max_rel_err < 1e-6

    def test_rejects_bad_counts(self, rng):
        x = T.Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(T.ShapeError):
            T.count_cross_entropy(x, np.ones((2, 2)))
        with pytest.raises(T.ContractError, match="non-negative"):
            T.count_cross_entropy(x, [[1, -1, 0], [0, 0, 1]])
        with pytest.raises(T.ContractError, match="at least one"):
            T.count_cross_entropy(x, np.zeros((2, 3)))
