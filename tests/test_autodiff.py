import math

import numpy as np
import pytest

from phibal.autodiff import (
    Node,
    NonFiniteError,
    ShapeError,
    constant,
    linear,
    parameter,
    set_checked,
    weighted_sum,
)
from phibal.balancer import total_loss
from phibal.checks import build_gradcheck_instance, finite_diff_gradient, gradient_max_rel_error
from phibal.training import cross_entropy


def softmax_rows(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def product(a: Node, b: Node) -> Node:
    """a * b for nodes of one shape, with the product rule's VJPs: a test-local
    reference, built apart from the engine's fused nodes."""
    return Node(a.value * b.value, (a, b), (lambda g: g * b.value, lambda g: g * a.value))


def total(y: Node) -> Node:
    """The sum of y's entries; y's adjoint is the root's, broadcast."""
    return Node(y.value.sum(), (y,), (lambda g: np.broadcast_to(g, y.shape).copy(),))


def test_primitive_identities():
    # Equal logits: softmax is uniform, so the cross-entropy is log 2.
    assert float(cross_entropy(constant([[0.0, 0.0]]), np.array([0])).value) == pytest.approx(
        math.log(2.0)
    )
    np.testing.assert_allclose(softmax_rows(np.zeros((1, 2))), [[0.5, 0.5]])
    x = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(linear(constant(x), constant(np.eye(3))).value, x)


def test_softmax_cross_entropy_gradient_is_probs_minus_onehot():
    rng = np.random.default_rng(0)
    logits = parameter(rng.standard_normal((5, 4)))
    labels = rng.integers(0, 4, size=5)
    loss = cross_entropy(logits, labels)
    loss.backward()
    probs = softmax_rows(logits.value)
    onehot = np.zeros((5, 4))
    onehot[np.arange(5), labels] = 1.0
    np.testing.assert_allclose(logits.grad, (probs - onehot) / 5, atol=1e-12)


def test_first_adjoint_is_copied_not_shared():
    # total_loss's task VJP returns the child's own adjoint array; keeping it
    # as the parent's gradient would let the second contribution alias the
    # child.
    x = parameter(np.ones(()))
    z = total_loss(x, [x], 1.0, 1)
    z.backward()
    np.testing.assert_array_equal(z.grad, np.ones(()))
    np.testing.assert_array_equal(x.grad, np.full((), 2.0))


def test_leaf_out_receives_its_adjoint_in_place():
    # With `out` set, a leaf's first adjoint is written there and the second
    # added, with the bits of the same leaf without `out`, which gets a copy
    # of the first: the VJPs' arrays are never changed.
    rng = np.random.default_rng(4)
    c1, c2 = rng.standard_normal(5), rng.standard_normal(5)
    kept = c1.copy(), c2.copy()

    def grad_of(leaf):
        first = Node(0.0, (leaf,), (lambda g: c1,))
        second = Node(0.0, (leaf,), (lambda g: c2,))  # backward reaches it first
        total_loss(first, [second], 1.0, 1).backward()
        return leaf.grad

    plain, held = parameter(np.zeros(5)), parameter(np.zeros(5))
    out = np.full(5, np.nan)
    held.out = out
    want, got = grad_of(plain), grad_of(held)
    assert got is out and want is not c2
    assert got.tobytes() == want.tobytes() == (c2 + c1).tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip((c1, c2), kept))


def test_linear_matches_transpose_then_matmul_bitwise():
    # The plain-numpy reference: a contiguous transpose, then matrix products.
    rng = np.random.default_rng(3)
    x_arr, w_arr = rng.standard_normal((7, 5)), rng.standard_normal((4, 5))
    g = rng.standard_normal((7, 4))
    x, w = parameter(x_arr), parameter(w_arr)
    y = linear(x, w)
    weighted_sum(y, g).backward()
    wt = np.ascontiguousarray(w_arr.T)
    reference = (x_arr @ wt, g @ wt.T, (x_arr.T @ g).T)
    for a, b in zip((y.value, x.grad, w.grad), reference):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ShapeError, match=r"linear.*7, 5.*4, 6"):
        linear(constant(x_arr), constant(np.ones((4, 6))))


def test_backward_requires_scalar_root():
    with pytest.raises(ShapeError, match="scalar"):
        parameter(np.ones(3)).backward()


def test_aux_with_frozen_weights_differs_from_unfrozen():
    # <p, w(p)> with w frozen must gradient like a linear form in p; the
    # unfrozen variant picks up the extra dependency and must differ.
    rng = np.random.default_rng(2)
    logits = parameter(rng.standard_normal((1, 3)))

    def frozen():
        p = product(logits, logits)
        return total(product(p, constant(p.value)))

    def unfrozen():
        p = product(logits, logits)
        return total(product(p, p))

    frozen().backward()
    g_frozen = logits.grad.copy()
    logits.grad = None
    unfrozen().backward()
    g_unfrozen = logits.grad.copy()
    np.testing.assert_allclose(g_unfrozen, 2 * g_frozen, atol=1e-12)
    assert np.max(np.abs(g_frozen - g_unfrozen)) > 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_two_expert_model_loss_matches_finite_differences(seed):
    stack, x, labels = build_gradcheck_instance(seed, experts=2, top_k=1)
    params = stack.parameters()

    def loss():
        logits, _ = stack.forward(x, [None, None])
        return cross_entropy(logits, labels)

    root = loss()
    for p in params:
        p.grad = None
    root.backward()
    analytic = [p.grad if p.grad is not None else np.zeros(p.shape) for p in params]
    numeric = finite_diff_gradient(loss, params)
    assert gradient_max_rel_error(analytic, numeric) < 1e-4


def test_forward_and_gradients_are_deterministic():
    def build():
        rng = np.random.default_rng(123)
        w = parameter(rng.standard_normal((4, 4)))
        x = constant(rng.standard_normal((6, 4)))
        loss = cross_entropy(linear(x, w), rng.integers(0, 4, size=6))
        loss.backward()
        return loss.value.tobytes(), w.grad.tobytes()

    assert build() == build()


def test_checked_mode_rejects_non_finite():
    set_checked(True)
    try:
        with pytest.raises(NonFiniteError):
            Node([np.nan, 1.0])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            linear(constant([[1e300]]), constant([[1e300]]))
    finally:
        set_checked(False)
    # Unchecked mode lets the value through.
    assert np.isnan(Node([np.nan]).value[0])
