import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pixtext import tensor as T


def scalar_lists(n=4):
    return st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=n
    )


class TestMatmul:
    def test_identity(self):
        eye = T.Tensor(np.eye(2))
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(eye, b).data, b.data)

    def test_row_times_column(self):
        out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError) as exc:
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_gradient_matches_central_differences(self, rng):
        b = T.Tensor(rng.standard_normal((3, 2)))

        def f(a):
            return T.tsum(T.matmul(a, b))

        report = T.grad_check(f, [T.Tensor(rng.standard_normal((2, 3)))], step=1e-5, tol=1e-6)
        assert report.max_rel_err < 1e-6


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = T.softmax(T.Tensor([[0.0, 0.0, 0.0]]), axis=1)
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_two_logit_closed_form(self):
        # e/(1+e) evaluated independently of the implementation
        expected = math.exp(1.0) / (math.exp(1.0) + 1.0)
        out = T.softmax(T.Tensor([[1.0, 0.0]]), axis=1)
        assert abs(out.data[0, 0] - expected) < 1e-12
        assert abs(out.data[0, 1] - (1.0 - expected)) < 1e-12
        assert abs(out.data[0, 0] - 0.731059) < 1e-6

    @given(scalar_lists(), st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, xs, c):
        x = np.array([xs])
        a = T.softmax(T.Tensor(x), axis=1).data
        b = T.softmax(T.Tensor(x + c), axis=1).data
        assert np.allclose(a, b, atol=1e-12)

    @given(scalar_lists())
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_entries_in_unit_interval(self, xs):
        out = T.softmax(T.Tensor([xs]), axis=1).data
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out > 0.0) and np.all(out < 1.0 + 1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(T.ContractError):
            T.softmax(T.Tensor([[np.inf, 0.0]]), axis=1)


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


class TestCrossEntropy:
    def test_uniform_logits_gives_log_k(self):
        for k in (2, 8, 150):
            loss = T.cross_entropy(T.Tensor(np.zeros((4, k))), np.zeros(4, dtype=int))
            assert abs(loss.item() - math.log(k)) < 1e-12
        # spot value quoted to 6 decimals for K=150
        loss = T.cross_entropy(T.Tensor(np.zeros((1, 150))), [0])
        assert abs(loss.item() - 5.010635) < 1e-6

    def test_saturated_logit_is_zero_loss(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e4
        loss = T.cross_entropy(T.Tensor(logits), [2])
        assert loss.item() < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy(T.Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradient_matches_central_differences(self, rng):
        labels = rng.integers(0, 4, size=5)
        report = T.grad_check(
            lambda a: T.cross_entropy(a, labels),
            [T.Tensor(rng.standard_normal((5, 4)))],
            tol=1e-6,
        )
        assert report.max_rel_err < 1e-6


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

    def test_repeated_backward_accumulates(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        loss = T.tsum(x)
        T.backward(loss)
        T.backward(loss)
        assert np.array_equal(x.grad, 2 * np.ones(3))

    def test_composite_graph_matches_finite_differences(self, rng):
        b = T.Tensor(rng.standard_normal((3, 4)))
        labels = rng.integers(0, 4, size=2)

        def f(a):
            return T.cross_entropy(T.softmax(T.matmul(a, b), axis=1), labels)

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
                y = T.tsum(T.mul(T.softmax(T.matmul(x, T.transpose(x)), axis=1), 3.0))
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

    def test_narrow_bounds_checked(self):
        with pytest.raises(T.ShapeError):
            T.narrow(T.Tensor(np.zeros((2, 2))), 0, 0, 3)

    def test_take_gathers_rows_and_scatter_adds_grad(self):
        x = T.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = T.take(x, [0, 0, 2])
        assert np.array_equal(out.data, [[0, 1], [0, 1], [4, 5]])
        T.backward(T.tsum(out))
        assert np.array_equal(x.grad, [[2, 2], [0, 0], [1, 1]])

    def test_gather_flat_patchifies(self):
        img = T.Tensor(np.arange(12.0).reshape(2, 2, 3))
        idx = np.array([[0, 3], [6, 9]])
        out = T.gather_flat(img, idx)
        assert np.array_equal(out.data, [[0, 3], [6, 9]])

    def test_clamp_limits_and_grad_mask(self):
        x = T.Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        out = T.clamp(x, -1.0, 1.0)
        assert np.array_equal(out.data, [-1.0, 0.5, 1.0])
        T.backward(T.tsum(out))
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_rowvec_ops(self, rng):
        x = rng.standard_normal((3, 4))
        v = rng.standard_normal(4)
        assert np.allclose(T.add_rowvec(T.Tensor(x), T.Tensor(v)).data, x + v)
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

    def test_dims_checked_against_file_size_before_reading(self, tmp_path):
        # a header claiming 2^32-1 x 2^32-1 values in a 16-byte file
        path = tmp_path / "huge.dct1"
        path.write_bytes(b"DCT1" + (2).to_bytes(4, "little") + b"\xff" * 8)
        with pytest.raises(ValueError, match="truncated DCT1 payload"):
            T.read_dct1(path)


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
