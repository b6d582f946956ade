"""Autodiff engine tests: every op gradient-checked numerically."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Tensor, concat, stack


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f with respect to array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        x_plus = x.copy()
        x_plus[idx] += eps
        x_minus = x.copy()
        x_minus[idx] -= eps
        grad[idx] = (f(x_plus) - f(x_minus)) / (2 * eps)
        it.iternext()
    return grad


def check_grad(build, x, tol=1e-5):
    """build(Tensor) -> scalar Tensor; compares autodiff vs numerical."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    out.backward()
    numeric = numerical_grad(lambda arr: float(build(Tensor(arr)).item()), x)
    assert np.allclose(t.grad, numeric, atol=tol), f"grad mismatch: {t.grad} vs {numeric}"


RNG = np.random.default_rng(42)


class TestElementwiseGradients:
    def test_add_mul(self):
        x = RNG.normal(size=(3, 4))
        check_grad(lambda t: ((t * 2.0 + 1.0) * t).sum(), x)

    def test_sub_div(self):
        x = RNG.uniform(1.0, 2.0, size=(2, 3))
        check_grad(lambda t: ((t - 0.5) / (t + 1.0)).sum(), x)

    def test_pow(self):
        x = RNG.uniform(0.5, 2.0, size=(4,))
        check_grad(lambda t: (t**3).sum(), x)

    def test_exp_log(self):
        x = RNG.uniform(0.5, 2.0, size=(3,))
        check_grad(lambda t: (t.exp() + t.log()).sum(), x)

    def test_tanh_sigmoid(self):
        x = RNG.normal(size=(5,))
        check_grad(lambda t: (t.tanh() * t.sigmoid()).sum(), x)

    def test_relu(self):
        x = RNG.normal(size=(6,)) + 0.1  # avoid kink at exactly 0
        check_grad(lambda t: (t.relu() * 2.0).sum(), x)

    def test_softplus(self):
        x = RNG.normal(size=(4,))
        check_grad(lambda t: t.softplus().sum(), x)

    def test_abs(self):
        x = RNG.normal(size=(4,)) + 0.2
        check_grad(lambda t: t.abs().sum(), x)

    def test_neg(self):
        x = RNG.normal(size=(3,))
        check_grad(lambda t: (-t * t).sum(), x)

    def test_clip_min(self):
        x = RNG.normal(size=(5,))
        check_grad(lambda t: t.clip_min(0.25).sum(), x, tol=1e-4)


class TestMatmulGradients:
    def test_matmul_left(self):
        x = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(4, 2))
        check_grad(lambda t: (t @ Tensor(w)).sum(), x)

    def test_matmul_right(self):
        a = RNG.normal(size=(3, 4))
        x = RNG.normal(size=(4, 2))
        check_grad(lambda t: (Tensor(a) @ t).sum(), x)

    def test_chained(self):
        x = RNG.normal(size=(2, 3))
        w1 = RNG.normal(size=(3, 5))
        w2 = RNG.normal(size=(5, 1))
        check_grad(lambda t: ((t @ Tensor(w1)).tanh() @ Tensor(w2)).sum(), x)


class TestBroadcasting:
    def test_bias_broadcast(self):
        b = RNG.normal(size=(4,))
        x = RNG.normal(size=(3, 4))

        def build(t):
            return (Tensor(x) + t).sum()

        check_grad(build, b)

    def test_scalar_broadcast(self):
        x = RNG.normal(size=(2, 2))
        check_grad(lambda t: (t * 3.0 + 2.0).sum(), x)

    def test_row_times_matrix(self):
        r = RNG.normal(size=(1, 4))
        x = RNG.normal(size=(3, 4))
        check_grad(lambda t: (Tensor(x) * t).sum(), r)


class TestReductionsAndShape:
    def test_mean_axis(self):
        x = RNG.normal(size=(3, 4))
        check_grad(lambda t: (t.mean(axis=1) ** 2).sum(), x)

    def test_sum_axis_keepdims(self):
        x = RNG.normal(size=(2, 5))
        check_grad(lambda t: (t.sum(axis=0, keepdims=True) * 2.0).sum(), x)

    def test_reshape(self):
        x = RNG.normal(size=(2, 6))
        check_grad(lambda t: (t.reshape(3, 4) ** 2).sum(), x)

    def test_transpose(self):
        x = RNG.normal(size=(2, 3))
        w = RNG.normal(size=(2, 1))
        check_grad(lambda t: (t.T @ Tensor(w)).sum(), x)

    def test_getitem(self):
        x = RNG.normal(size=(4, 4))
        check_grad(lambda t: (t[1:3, :2] ** 2).sum(), x)

    def test_avg_pool(self):
        x = RNG.normal(size=(2, 8))
        check_grad(lambda t: (t.avg_pool1d(4) ** 2).sum(), x)

    def test_avg_pool_requires_divisible(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 7))).avg_pool1d(4)

    def test_concat(self):
        x = RNG.normal(size=(2, 3))
        y = RNG.normal(size=(2, 2))

        def build(t):
            return (concat([t, Tensor(y)], axis=1) ** 2).sum()

        check_grad(build, x)

    def test_stack(self):
        x = RNG.normal(size=(3,))

        def build(t):
            return (stack([t, t * 2.0], axis=0) ** 2).sum()

        check_grad(build, x)


class TestBackwardSemantics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = (t * t).sum()  # d/dt = 2t = 4
        out.backward()
        assert t.grad[0] == pytest.approx(4.0)

    def test_no_grad_for_constants(self):
        t = Tensor(np.array([1.0]))
        out = (t * 2.0).sum()
        out.backward()
        assert t.grad is None

    def test_backward_keeps_leaf_grads_and_releases_intermediate_ones(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = t * 3.0
        out = (hidden * hidden).sum()  # d/dt = 18 t
        out.backward()
        assert np.allclose(t.grad, [18.0, 36.0])
        assert hidden.grad is None and out.grad is None

    def test_second_backward_through_shared_node_counts_each_root_once(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        shared = t * 2.0
        (shared * 3.0).sum().backward()
        (shared * 5.0).sum().backward()
        assert t.grad[0] == pytest.approx(16.0)

    def test_diamond_graph(self):
        # f = (x*2) + (x*3): gradient must accumulate to 5.
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = (t * 2.0 + t * 3.0).sum()
        out.backward()
        assert t.grad[0] == pytest.approx(5.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
    def test_random_composite_graphs(self, rows, cols):
        x = np.random.default_rng(rows * 10 + cols).normal(size=(rows, cols)) + 0.1
        check_grad(lambda t: ((t.tanh() * t).softplus().mean() + (t**2).sum()), x)
