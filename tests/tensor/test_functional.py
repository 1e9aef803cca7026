"""Loss functions, classification helpers and the dense layer products."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    accuracy,
    check_gradients,
    cross_entropy,
    dense_products,
    log_softmax,
    masked_linear,
    one_hot,
    softmax,
)


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((4, 7)).astype(np.float32))
        probs = softmax(logits)
        assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-5)

    def test_log_softmax_stability_with_large_logits(self):
        logits = Tensor(np.array([[1000.0, 1001.0]], dtype=np.float32))
        out = log_softmax(logits)
        assert np.all(np.isfinite(out.data))

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: (log_softmax(logits) ** 2).sum(), [logits])


class TestCrossEntropy:
    def test_matches_manual_computation(self):
        logits = Tensor(np.array([[2.0, 1.0, 0.1]], dtype=np.float32))
        targets = np.array([0])
        loss = cross_entropy(logits, targets)
        z = logits.data[0]
        expected = -(z[0] - np.log(np.exp(z).sum()))
        assert np.isclose(float(loss.data), expected, atol=1e-5)

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
        targets = np.array([0, 1, 2, 1, 0])
        loss = cross_entropy(logits, targets)
        loss.backward()
        probs = softmax(Tensor(logits.data)).data
        expected = (probs - one_hot(targets, 3)) / 5
        assert np.allclose(logits.grad, expected, atol=1e-5)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.standard_normal((4, 5)).astype(np.float32), requires_grad=True)
        targets = np.array([1, 0, 4, 2])
        check_gradients(lambda: cross_entropy(logits, targets), [logits])

    def test_label_smoothing_increases_loss_on_confident_model(self):
        logits = Tensor(np.array([[10.0, -10.0]], dtype=np.float32))
        targets = np.array([0])
        plain = float(cross_entropy(logits, targets).data)
        smoothed = float(cross_entropy(logits, targets, label_smoothing=0.2).data)
        assert smoothed > plain

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3, 4), dtype=np.float32)), np.array([0, 1]))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3), dtype=np.float32)), np.array([0]))


class TestHelpers:
    def test_accuracy(self):
        logits = Tensor(np.array([[1.0, 2.0], [3.0, 0.0]], dtype=np.float32))
        assert accuracy(logits, np.array([1, 0])) == 1.0
        assert accuracy(logits, np.array([0, 0])) == 0.5

    def test_one_hot(self):
        out = one_hot(np.array([0, 2]), 3)
        assert np.allclose(out, [[1, 0, 0], [0, 0, 1]])
        assert out.dtype == np.float32


class TestDenseProducts:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.weight = rng.standard_normal((5, 7)).astype(np.float32)
        self.rows = rng.standard_normal((3, 7)).astype(np.float32)
        self.grad_rows = rng.standard_normal((3, 5)).astype(np.float32)

    def test_pair_is_the_two_row_products(self):
        forward, input_grad = dense_products(self.weight)
        assert forward(self.rows).tobytes() == (self.rows @ self.weight.T).tobytes()
        assert input_grad(self.grad_rows).tobytes() == (self.grad_rows @ self.weight).tobytes()

    def test_unmasked_linear_runs_the_dense_pair(self):
        bias = np.arange(5, dtype=np.float32)
        x = Tensor(self.rows, requires_grad=True)
        weight = Tensor(self.weight, requires_grad=True)
        b = Tensor(bias, requires_grad=True)
        out = masked_linear(x, weight, b, None)
        assert out.data.tobytes() == (self.rows @ self.weight.T + bias).tobytes()
        out.backward(self.grad_rows)
        assert x.grad.tobytes() == (self.grad_rows @ self.weight).tobytes()
        assert np.allclose(weight.grad, self.grad_rows.T @ self.rows, rtol=1e-6, atol=1e-6)
        assert np.allclose(b.grad, self.grad_rows.sum(axis=0))

    def test_linear_refuses_input_that_is_not_rows(self):
        with pytest.raises(ValueError, match="takes \\(N, in\\) rows"):
            masked_linear(Tensor(self.rows[None]), Tensor(self.weight), None, None)
