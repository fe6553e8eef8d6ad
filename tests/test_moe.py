import math
import threading

import numpy as np
import pytest

from phibal import autodiff, moe
from phibal.autodiff import _CHUNK, constant, linear, parameter, weighted_sum
from phibal.balancer import BalanceConfig, BalancerState, total_loss
from phibal.checks import finite_diff_gradient, gradient_max_rel_error
from phibal.moe import (
    MoeLayer,
    _selected_softmax,
    _softmax_rows,
    _stable_top_k,
    _sum_slots,
    _top_k,
)
from phibal.training import Optimizer, OptimizerConfig, cross_entropy


def make_layer(n_experts=4, top_k=2, dim=5, ffn_dim=6, seed=0) -> MoeLayer:
    return MoeLayer(n_experts, top_k, dim, ffn_dim, np.random.default_rng(seed))


def expert_forward(layer, e, u):
    """Expert e of the layer on a (n, dim) array of tokens in plain numpy:
    the reference the fused expert node is held to, bit for bit. The weights
    are multiplied as contiguous transposes. Returns the output and what the
    backward in `per_expert_reference` reads: (w1t, w2t, a, b, s, silu, act)."""
    ffn = layer.ffn_dim
    w1t = np.ascontiguousarray(layer.w1[e].value.T)
    w2t = np.ascontiguousarray(layer.w2[e].value.T)
    h = u @ w1t
    a, b = h[:, :ffn], h[:, ffn:]
    s = 0.5 * (1.0 + np.tanh(0.5 * a))
    silu = a * s
    act = silu * b
    return act @ w2t, (w1t, w2t, a, b, s, silu, act)


def route_with_logits(layer, logit_rows, bias=None):
    """Force exact router logits by feeding identity-ish inputs."""
    # x @ w_router.T = logits  <=>  x = logits @ pinv(w_router.T)
    target = np.asarray(logit_rows, dtype=np.float64)
    x = target @ np.linalg.pinv(layer.w_router.value.T)
    return layer.route(constant(x), bias), x


# -- routing -----------------------------------------------------------------------


def test_top2_weights_are_renormalized_softmax():
    layer = make_layer(n_experts=3, top_k=2, dim=3)
    routing, _ = route_with_logits(layer, [[2.0, 1.0, 0.0]])
    np.testing.assert_array_equal(routing.selections, [[0, 1]])
    e = math.e
    np.testing.assert_allclose(
        routing.weights.value[0],
        [e**2 / (e**2 + e), e / (e**2 + e), 0.0],
        atol=1e-9,
    )
    assert routing.weights.value[0, 2] == 0.0


def test_equal_logits_tie_break_by_ascending_index():
    layer = make_layer(n_experts=4, top_k=2, dim=4)
    routing, _ = route_with_logits(layer, [[0.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(routing.selections, [[0, 1]])
    np.testing.assert_allclose(routing.weights.value[0, :2], [0.5, 0.5], atol=1e-9)


def test_k1_frequencies():
    layer = make_layer(n_experts=2, top_k=1, dim=2)
    routing, _ = route_with_logits(layer, [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(routing.f, [0.5, 0.5])
    assert routing.f.sum() == pytest.approx(1.0)


def test_k1_weight_is_pre_topk_probability():
    layer = make_layer(n_experts=3, top_k=1, dim=3)
    routing, _ = route_with_logits(layer, [[1.0, 0.3, -0.5]])
    probs = routing.probs[0]
    np.testing.assert_allclose(routing.weights.value[0], [probs[0], 0.0, 0.0])


def test_topk_weights_form_simplex_rows():
    layer = make_layer(n_experts=6, top_k=3, dim=5, seed=3)
    rng = np.random.default_rng(4)
    routing = layer.route(constant(rng.standard_normal((40, 5))))
    w = routing.weights.value
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=1), np.ones(40), atol=1e-9)
    # Exactly k strictly positive weights per row.
    assert np.all((w > 0).sum(axis=1) == 3)


def test_probs_rows_sum_to_one_and_f_normalization():
    layer = make_layer(n_experts=5, top_k=2, dim=4, seed=5)
    rng = np.random.default_rng(6)
    routing = layer.route(constant(rng.standard_normal((33, 4))))
    np.testing.assert_allclose(routing.probs.sum(axis=1), np.ones(33), atol=1e-9)
    assert routing.f.sum() == pytest.approx(1.0, abs=1e-9)
    assert routing.f_per_token.sum() == pytest.approx(2.0, abs=1e-9)


def test_bias_steers_selection_but_not_weight_inputs():
    layer = make_layer(n_experts=3, top_k=1, dim=3)
    logits = [[1.0, 0.8, -2.0]]
    plain, _ = route_with_logits(layer, logits)
    bias = np.array([0.0, 10.0, 0.0])
    steered, _ = route_with_logits(layer, logits, bias=bias)
    assert plain.selections[0, 0] == 0
    assert steered.selections[0, 0] == 1
    # Probabilities (and hence weight inputs) never see the bias.
    np.testing.assert_allclose(steered.probs, plain.probs, atol=1e-12)


def _scores_with_ties_infs_and_nans(rng, n_rows, n_experts):
    """Score rows drawn from a few integers (so ties are common) or a normal,
    with +inf, -inf and NaN scattered in at random; about half the rows are
    mostly -inf, so that some hold fewer than k scores above it."""
    if rng.random() < 0.5:
        scores = rng.integers(-3, 4, size=(n_rows, n_experts)).astype(np.float64)
    else:
        scores = rng.standard_normal((n_rows, n_experts))
    shape = (n_rows, n_experts)
    scores[rng.random(shape) < rng.choice([0.08, 0.95], size=(n_rows, 1))] = -np.inf
    scores[rng.random(shape) < 0.04] = np.inf
    scores[rng.random(shape) < 0.003] = np.nan
    return scores


@pytest.mark.parametrize("n_experts", [3, 8, 15, 16, 31, 32, 33, 64])
def test_top_k_matches_stable_sort_on_ties_infs_and_nans(n_experts):
    # E is on both sides of the 8*k rule for some k; every k from 1 to E.
    rng = np.random.default_rng(n_experts)
    for k in range(1, n_experts + 1):
        for _ in range(4):
            scores = _scores_with_ties_infs_and_nans(rng, 40, n_experts)
            bias = rng.integers(-2, 3, size=n_experts) * 0.5
            for s in (scores, scores + bias):
                got, want = _top_k(s, k), _stable_top_k(s, k)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


def test_selected_softmax_keeps_the_bits_of_the_masked_softmax():
    # Logits of every scale, signed zeros, and huge or non-finite ones,
    # which take the masked softmax itself.
    rng = np.random.default_rng(29)
    for trial in range(400):
        n, width = int(rng.integers(1, 70)), int(rng.integers(2, 70))
        k = int(rng.integers(2, width + 1))
        lv = rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-3, 12)
        if trial % 4 == 1:
            lv[rng.random((n, width)) < 0.3] = -0.0
        if trial % 4 == 2:
            lv[rng.random((n, width)) < 0.05] = rng.choice([np.inf, -np.inf, np.nan, 1e20])
        selections = _stable_top_k(lv, k)
        chosen = np.zeros(lv.shape, dtype=bool)
        np.put_along_axis(chosen, selections, True, axis=1)
        with np.errstate(invalid="ignore"):
            want = _softmax_rows(lv + np.where(chosen, 0.0, -1e30))
            got = _selected_softmax(lv, np.arange(0, lv.size, width)[:, None] + selections)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_wide_route_falls_back_on_rows_without_k_scores_above_minus_inf():
    # (T, E, k) = (1024, 64, 4) takes the argmax passes. A token whose first
    # input is +inf gets +inf logits on experts 5 and 9 and -inf on the
    # rest: fewer than k scores above -inf, where argmax would pick a masked
    # expert twice. A NaN token gets NaN logits, which the sort ranks last.
    n_tokens, n_experts, top_k = 1024, 64, 4
    layer = make_layer(n_experts=n_experts, top_k=top_k, dim=64, ffn_dim=8, seed=27)
    w = layer.w_router.value
    w[:, 0] = -np.abs(w[:, 0]) - 0.1
    w[[5, 9], 0] = 1.0
    rng = np.random.default_rng(28)
    x = rng.standard_normal((n_tokens, 64))
    x[[3, 700], 0] = np.inf
    x[[10, 1023]] = np.nan
    with np.errstate(invalid="ignore"):
        routing = layer.route(constant(x))
        logits = x @ np.ascontiguousarray(w.T)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        order = np.argsort(-logits, axis=1, kind="stable")
        selections = np.sort(order[:, :top_k], axis=1)
        chosen = np.zeros(logits.shape, dtype=bool)
        np.put_along_axis(chosen, selections, True, axis=1)
        masked = logits + np.where(chosen, 0.0, -1e30)
        weights = np.exp(masked - masked.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
    assert (logits[3] > -np.inf).sum() == 2
    np.testing.assert_array_equal(routing.selections[3], [0, 1, 5, 9])
    np.testing.assert_array_equal(routing.selections, selections)
    np.testing.assert_array_equal(
        routing.counts, np.bincount(selections.ravel(), minlength=n_experts)
    )
    np.testing.assert_array_equal(routing.weights.value, weights)
    np.testing.assert_array_equal(routing.p_bar.value, probs.mean(axis=0))


@pytest.mark.parametrize("k", [1, 2, 4])
def test_sum_slots_adds_each_tokens_slots_to_zero_in_slot_order(k):
    # Per token, 0.0 + t0 + ... + t(k-1), term by term in Python floats.
    # 0.0 + -0.0 is +0.0, so a token whose slots are all -0.0 sums to +0.0;
    # assert_array_equal takes -0.0 for +0.0, so the signs are compared
    # apart, wherever the sum is not NaN (IEEE fixes no sign for a NaN).
    rng = np.random.default_rng(k)
    n_tokens, dim = 9, 5
    pairs = rng.standard_normal((n_tokens * k, dim))
    flat = pairs.ravel()
    at = rng.choice(flat.size, size=flat.size // 2, replace=False)
    flat[at] = rng.choice([-0.0, np.nan, np.inf, -np.inf, 1e308], size=at.size)
    pairs[:k] = -0.0
    terms = pairs.reshape(n_tokens, k, dim)
    want = np.empty((n_tokens, dim))
    for t in range(n_tokens):
        for d in range(dim):
            total = 0.0
            for j in range(k):
                total = total + float(terms[t, j, d])
            want[t, d] = total
    with np.errstate(invalid="ignore", over="ignore"):
        got = _sum_slots(pairs, n_tokens)
    np.testing.assert_array_equal(got, want)
    assert not np.signbit(got[0]).any()
    number = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[number]), np.signbit(want[number]))


def test_top_k_must_not_exceed_experts():
    with pytest.raises(ValueError):
        make_layer(n_experts=2, top_k=3)


# -- experts ------------------------------------------------------------------------


def test_zero_gate_matrix_gives_zero_output():
    layer = make_layer(n_experts=2, top_k=1, dim=3, ffn_dim=4)
    layer.w1[0].value[:] = 0.0
    out, _ = expert_forward(layer, 0, np.random.default_rng(0).standard_normal((5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 3)))


def test_expert_forward_one_dimensional_pin():
    layer = make_layer(n_experts=2, top_k=1, dim=1, ffn_dim=1)
    layer.w1[0].value = np.array([[1.0], [1.0]])
    layer.w2[0].value = np.array([[1.0]])
    out, _ = expert_forward(layer, 0, np.array([[2.0]]))
    sigma2 = 1.0 / (1.0 + math.exp(-2.0))
    assert float(out[0, 0]) == pytest.approx(2.0 * 2.0 * sigma2)
    assert float(out[0, 0]) == pytest.approx(3.523188, abs=1e-6)


# -- combination -------------------------------------------------------------------------


def test_single_expert_single_k_is_scaled_dense_ffn():
    layer = make_layer(n_experts=1, top_k=1, dim=4, ffn_dim=5, seed=9)
    x = constant(np.random.default_rng(10).standard_normal((6, 4)))
    routing = layer.route(x)
    # One expert: pre-top-k probability is exactly 1.
    np.testing.assert_allclose(routing.weights.value, np.ones((6, 1)))
    y = layer.forward(x, routing)
    expected, _ = expert_forward(layer, 0, x.value)
    np.testing.assert_array_equal(y.value, x.value + expected)


def test_identical_experts_make_weights_irrelevant():
    layer = make_layer(n_experts=2, top_k=2, dim=4, ffn_dim=5, seed=11)
    layer.w1[1].value = layer.w1[0].value.copy()
    layer.w2[1].value = layer.w2[0].value.copy()
    x = constant(np.random.default_rng(12).standard_normal((5, 4)))
    routing = layer.route(x)
    y = layer.forward(x, routing)
    expected, _ = expert_forward(layer, 0, x.value)
    np.testing.assert_allclose(y.value, x.value + expected, atol=1e-12)


def test_sparse_equals_masked_dense_bitwise():
    rng = np.random.default_rng(13)
    for seed in range(5):
        layer = make_layer(n_experts=4, top_k=2, dim=5, ffn_dim=6, seed=20 + seed)
        x = constant(rng.standard_normal((9, 5)))
        routing = layer.route(x)
        y = layer.forward(x, routing)
        dense = np.zeros((9, 5))
        for e in range(4):
            dense += routing.weights.value[:, [e]] * expert_forward(layer, e, x.value)[0]
        np.testing.assert_array_equal(y.value, x.value + dense)


def test_permutation_equivariance():
    rng = np.random.default_rng(14)
    layer = make_layer(n_experts=5, top_k=2, dim=4, ffn_dim=6, seed=15)
    x_arr = rng.standard_normal((12, 4))
    x = constant(x_arr)
    routing = layer.route(x)
    y = layer.forward(x, routing).value

    perm = rng.permutation(5)
    permuted = make_layer(n_experts=5, top_k=2, dim=4, ffn_dim=6, seed=15)
    permuted.w_router.value = layer.w_router.value[perm]
    permuted.w1 = [layer.w1[e] for e in perm]
    permuted.w2 = [layer.w2[e] for e in perm]
    routing_p = permuted.route(x)
    y_p = permuted.forward(x, routing_p).value

    # Expert i of the permuted layer is original expert perm[i].
    np.testing.assert_array_equal(
        np.sort(perm[routing_p.selections], axis=1), routing.selections
    )
    np.testing.assert_allclose(y_p, y, atol=1e-12)


def test_unselected_experts_receive_no_gradient():
    layer = make_layer(n_experts=4, top_k=1, dim=3, ffn_dim=4, seed=16)
    routing, x = route_with_logits(
        layer, [[5.0, 0.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0]]
    )
    y = layer.forward(constant(x), routing)
    weighted_sum(y, np.random.default_rng(17).standard_normal(y.shape)).backward()
    assert layer.w1[0].grad is not None
    for e in (1, 2, 3):
        assert layer.w1[e].grad is None
        assert layer.w2[e].grad is None


# -- the fused expert node ---------------------------------------------------------------


@pytest.mark.parametrize("top_k", [1, 2, 3])
def test_fused_forward_gradient_matches_finite_differences(top_k):
    layer = make_layer(n_experts=4, top_k=top_k, dim=3, ffn_dim=4, seed=17)
    x_arr = np.random.default_rng(18).standard_normal((7, 3))
    x = parameter(x_arr)
    ordered = np.sort(layer.route(x).probs, axis=1)
    assert np.min(ordered[:, -top_k] - ordered[:, -top_k - 1]) > 1e-3  # no selection flips
    params = [x, layer.w_router, *layer.w1, *layer.w2]
    g = np.random.default_rng(19).standard_normal(x_arr.shape)

    def loss():
        return weighted_sum(layer.forward(x, layer.route(x)), g)

    root = loss()
    for p in params:
        p.grad = None
    root.backward()
    analytic = [np.zeros(p.shape) if p.grad is None else p.grad for p in params]
    numeric = finite_diff_gradient(loss, params)
    assert gradient_max_rel_error(analytic, numeric) < 1e-6


def test_forward_node_count_does_not_grow_with_experts():
    added = []
    for n_experts in (2, 8, 32):
        layer = make_layer(n_experts=n_experts, top_k=2, dim=4, ffn_dim=4, seed=21)
        x = constant(np.random.default_rng(22).standard_normal((40, 4)))
        routing = layer.route(x)
        before = constant(0.0).uid
        layer.forward(x, routing)
        added.append(constant(0.0).uid - before)
    assert added == [added[0]] * 3



def textbook_gate_grad(a, s, silu):
    """d silu(a) / da = s (1 + a (1 - s)), with s = sigmoid(a)."""
    return s * (1.0 + a * (1.0 - s))


def saved_silu_gate_grad(a, s, silu):
    """The same derivative from the saved SiLU: s + silu (1 - s)."""
    return s + silu * (1.0 - s)


def per_expert_reference(layer, xv, wv, selections, g, gate_grad=saved_silu_gate_grad):
    """The expert node as a plain-numpy loop over active experts, with its
    adjoint g: each expert's token-ascending rows run through
    `expert_forward` and are added into the output in ascending expert
    order, and x is added last (the residual). Returns the output and the
    gradients of x (g, the residual's share, plus the experts'), the
    weights and each active expert's w1 and w2. ``gate_grad(a, s, silu)``
    is the SiLU's derivative."""
    ffn = layer.ffn_dim
    out, dx, dw = np.zeros_like(xv), np.zeros_like(xv), np.zeros_like(wv)
    d_w1, d_w2 = {}, {}
    for e in range(layer.n_experts):
        rows = np.flatnonzero((selections == e).any(axis=1))
        if rows.size == 0:
            continue
        u = xv[rows]
        y, (w1t, w2t, a, b, s, silu, act) = expert_forward(layer, e, u)
        out[rows] += wv[rows, e, None] * y
        gr = g[rows]
        dw[rows, e] = (gr * y).sum(axis=1)
        dy = gr * wv[rows, e, None]
        d_w2[e] = (act.T @ dy).T
        d_act = dy @ w2t.T
        dh = np.empty((rows.size, 2 * ffn))
        dh[:, :ffn] = d_act * b * gate_grad(a, s, silu)
        dh[:, ffn:] = d_act * silu
        d_w1[e] = (u.T @ dh).T
        dx[rows] += dh @ w1t.T
    return xv + out, g + dx, dw, d_w1, d_w2


_EVERY_THIRD_OFF = np.where(np.arange(12) % 3 == 1, -1e3, 0.0)
_LAYOUTS = pytest.mark.parametrize(
    "layout,n_experts,top_k,dim,ffn_dim,n_tokens,bias",
    [
        ("one-group", 8, 2, 16, 32, 64, None),
        ("many-groups", 64, 4, 64, 128, 1024, None),
        ("expert-over-budget", 4, 2, 8, 64, 300, np.array([10.0, 0.0, 0.0, 0.0])),
        ("inactive-between", 12, 1, 16, 64, 512, _EVERY_THIRD_OFF),
        ("inactive-between", 12, 2, 16, 64, 512, _EVERY_THIRD_OFF),
        ("inactive-between", 12, 3, 16, 64, 512, _EVERY_THIRD_OFF),
    ],
)


@pytest.mark.parametrize("x_requires_grad", [True, False])
@_LAYOUTS
def test_expert_node_matches_per_expert_loop_bitwise(
    layout, n_experts, top_k, dim, ffn_dim, n_tokens, bias, x_requires_grad
):
    layer = make_layer(n_experts=n_experts, top_k=top_k, dim=dim, ffn_dim=ffn_dim, seed=25)
    rng = np.random.default_rng(26)
    x_arr = rng.standard_normal((n_tokens, dim))
    g = rng.standard_normal((n_tokens, dim))
    routing = layer.route(constant(x_arr), bias)
    counts = routing.counts
    slab_elements = counts * 2 * ffn_dim
    if layout == "one-group":
        assert slab_elements.sum() <= _CHUNK
    elif layout == "many-groups":
        assert slab_elements.sum() > 8 * _CHUNK
    elif layout == "expert-over-budget":
        assert slab_elements[0] > _CHUNK and np.all(slab_elements[1:] < _CHUNK)
    else:
        assert np.all((counts == 0) == (bias < 0))
        assert slab_elements.sum() > _CHUNK
    out, dx, dw, d_w1, d_w2 = per_expert_reference(
        layer, x_arr, routing.weights.value, routing.selections, g
    )

    # Then again with the weights moved into an optimizer's column-major
    # arena: the forward uses their transposes uncopied, and each weight
    # gradient is written into the weight's `out`, with the same bits.
    for held in (False, True):
        if held:
            Optimizer(OptimizerConfig(), layer.parameters(), 1)
            routing = layer.route(constant(x_arr), bias)
        x = parameter(x_arr.copy()) if x_requires_grad else constant(x_arr.copy())
        for p in layer.parameters():
            p.grad = None
        y = layer.forward(x, routing)
        weighted_sum(y, g).backward()

        np.testing.assert_array_equal(y.value, out)
        if x_requires_grad:
            np.testing.assert_array_equal(x.grad, dx)
        else:
            assert x.grad is None
        np.testing.assert_array_equal(routing.weights.grad, dw)
        for e in range(n_experts):
            w1, w2 = layer.w1[e], layer.w2[e]
            if counts[e] == 0:
                assert w1.grad is None and w2.grad is None
            else:
                np.testing.assert_array_equal(w1.grad, d_w1[e])
                np.testing.assert_array_equal(w2.grad, d_w2[e])
                assert (w1.grad is w1.out) == (w2.grad is w2.out) == held


@_LAYOUTS
def test_expert_node_adjoints_match_the_textbook_gate_derivative(
    layout, n_experts, top_k, dim, ffn_dim, n_tokens, bias
):
    # The derivative from the saved SiLU moves only rounding: the x, w1 and
    # w2 adjoints stay within 1e-12 of each array's largest magnitude of the
    # textbook form's.
    layer = make_layer(n_experts=n_experts, top_k=top_k, dim=dim, ffn_dim=ffn_dim, seed=25)
    rng = np.random.default_rng(26)
    x_arr = rng.standard_normal((n_tokens, dim))
    g = rng.standard_normal((n_tokens, dim))
    x = parameter(x_arr.copy())
    routing = layer.route(constant(x_arr), bias)
    weighted_sum(layer.forward(x, routing), g).backward()
    _, dx, _, d_w1, d_w2 = per_expert_reference(
        layer, x_arr, routing.weights.value, routing.selections, g, textbook_gate_grad
    )
    pairs = [(x.grad, dx)]
    pairs += [(layer.w1[e].grad, d_w1[e]) for e in d_w1]
    pairs += [(layer.w2[e].grad, d_w2[e]) for e in d_w2]
    assert len(pairs) == 1 + 2 * np.count_nonzero(routing.counts)
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@_LAYOUTS
def test_forward_only_expert_pass_keeps_the_bits_in_grown_scratch(
    monkeypatch, layout, n_experts, top_k, dim, ffn_dim, n_tokens, bias
):
    # Fresh scratch, first sized by a three-token pass: the layout's pass
    # then grows it, past `_CHUNK` where one expert is a group of its own.
    monkeypatch.setattr(moe, "_scratch", threading.local())
    layer = make_layer(n_experts=n_experts, top_k=top_k, dim=dim, ffn_dim=ffn_dim, seed=25)
    x_arr = np.random.default_rng(26).standard_normal((n_tokens, dim))
    few = constant(x_arr[:3])
    layer.forward(few, layer.route(few, bias), forward_only=True)
    small = moe._scratch.h.size
    routing = layer.route(constant(x_arr), bias)
    want = per_expert_reference(
        layer, x_arr, routing.weights.value, routing.selections, np.zeros_like(x_arr)
    )[0]
    for x in (constant(x_arr.copy()), parameter(x_arr.copy())):
        y = layer.forward(x, routing, forward_only=True)
        assert y.op == "leaf" and not y.requires_grad
        np.testing.assert_array_equal(y.value, want)
        np.testing.assert_array_equal(y.value, layer.forward(x, routing).value)
    assert moe._scratch.h.size > small
    if layout == "expert-over-budget":
        assert moe._scratch.h.size > _CHUNK


def _wide_expert_pass(layer, x_arr, g):
    """The expert node's value and every parent's gradient at one input."""
    for p in layer.parameters():
        p.grad = None
    x = parameter(x_arr.copy())
    routing = layer.route(x, None)
    y = layer.forward(x, routing)
    weighted_sum(y, g).backward()
    grads = [x.grad, routing.weights.grad]
    grads += [p.grad for p in (*layer.w1, *layer.w2) if p.grad is not None]
    return y.value, grads


@pytest.mark.parametrize("workers", [1, 3])
def test_expert_node_split_across_threads_keeps_bits(monkeypatch, workers):
    layer = make_layer(n_experts=64, top_k=4, dim=64, ffn_dim=128, seed=27)
    Optimizer(OptimizerConfig(), layer.parameters(), 1)
    rng = np.random.default_rng(28)
    x_arr = rng.standard_normal((1024, 64))
    g = rng.standard_normal((1024, 64))
    monkeypatch.setattr(autodiff, "_WORKERS", 0)
    serial = _wide_expert_pass(layer, x_arr, g)
    serial = serial[0], [a.copy() for a in serial[1]]  # w1/w2 grads live in the arena
    monkeypatch.setattr(autodiff, "_WORKERS", workers)
    value, grads = _wide_expert_pass(layer, x_arr, g)
    assert any(w.thread.is_alive() for w in autodiff._workers)
    np.testing.assert_array_equal(value, serial[0])
    assert len(grads) == len(serial[1]) > 2
    for got, want in zip(grads, serial[1]):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("workers", [0, 1])
def test_overflow_in_a_split_forward_raises_in_the_caller(monkeypatch, workers):
    # Only the last expert overflows; with a worker, its group is in the
    # worker's slice, which must run under the caller's error state.
    monkeypatch.setattr(autodiff, "_WORKERS", workers)
    layer = make_layer(n_experts=64, top_k=4, dim=64, ffn_dim=128, seed=27)
    layer.w1[-1].value *= 1e160
    x = constant(np.random.default_rng(28).standard_normal((1024, 64)))
    routing = layer.route(x, None)
    assert routing.counts[-1] > 0
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        layer.forward(x, routing)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(layer.forward(x, routing).value))


# -- the fused router and loss nodes ------------------------------------------------------


def composed_reference(layer, x, head, labels, price, k_aux):
    """The router, a head on the weights, cross-entropy and one price loss,
    forward and backward in plain numpy in the op order of the graph the
    fused nodes replace (transpose + matmul, row softmaxes, mean, one-hot
    cross-entropy, scaled sum). Returns (values, grads of x, router, head)."""

    def softmax(a):
        shifted = a - a.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    def softmax_vjp(y, g):
        return y * (g - (g * y).sum(axis=1, keepdims=True))

    n = x.shape[0]
    wt = np.ascontiguousarray(layer.w_router.value.T)
    logits = x @ wt
    probs = softmax(logits)
    order = np.argsort(-logits, axis=1, kind="stable")
    selections = np.sort(order[:, : layer.top_k], axis=1)
    chosen = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(chosen, selections, True, axis=1)
    weights = softmax(logits + np.where(chosen, 0.0, -1e30))
    p_bar = probs.mean(axis=0)
    ht = np.ascontiguousarray(head.T)
    out = weights @ ht
    c = out.shape[1]
    row_max = out.max(axis=1, keepdims=True)
    shifted = out - row_max
    e = np.exp(shifted)
    s = e.sum(axis=1, keepdims=True)
    lse = np.log(s)
    log_probs = shifted - lse
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    task = (log_probs * onehot).sum() * (-1.0 / n)
    aux = (p_bar * price).sum()
    total = task + aux * k_aux

    g = np.ones(())
    d_log_probs = np.broadcast_to(g * (-1.0 / n), (n, c)).copy() * onehot
    d_lse = (-d_log_probs).sum(axis=1, keepdims=True)
    d_e = np.broadcast_to(d_lse / s, (n, c)).copy()
    d_out = d_log_probs + d_e * e
    d_weights = d_out @ ht.T
    d_head = (weights.T @ d_out).T
    d_p_bar = np.broadcast_to(g * k_aux, p_bar.shape).copy() * price
    d_probs = np.broadcast_to(d_p_bar / n, probs.shape).copy()
    d_logits = softmax_vjp(weights, d_weights) + softmax_vjp(probs, d_probs)
    d_x = d_logits @ wt.T
    d_router = (x.T @ d_logits).T
    values = (probs, p_bar, weights, out, task, aux, total)
    return values, (d_x, d_router, d_head)


@pytest.mark.parametrize("top_k", [2, 3])
def test_fused_router_and_losses_match_numpy_reference_bitwise(top_k):
    layer = make_layer(n_experts=8, top_k=top_k, dim=6, ffn_dim=4, seed=23)
    rng = np.random.default_rng(24)
    x_arr = rng.standard_normal((16, 6))
    labels = rng.integers(0, 3, size=16)
    head_arr = rng.standard_normal((3, 8))
    state = BalancerState(BalanceConfig(phi="neg_shannon"), 8)
    state.m = rng.dirichlet(np.ones(8))
    k_aux = 0.01 * 8

    x, head = parameter(x_arr.copy()), parameter(head_arr.copy())
    layer.w_router.grad = None
    routing = layer.route(x)
    out = linear(routing.weights, head)
    task = cross_entropy(out, labels)
    aux = state.phi_aux_loss(routing.p_bar)
    total = total_loss(task, [aux], 0.01, 8)
    total.backward()

    values, grads = composed_reference(
        layer, x_arr, head_arr, labels, state.price_vector(), k_aux
    )
    fused = (routing.probs, routing.p_bar.value, routing.weights.value, out.value,
             task.value, aux.value, total.value)
    for got, want in zip(fused, values):
        np.testing.assert_array_equal(got, want)
    for got, want in zip((x.grad, layer.w_router.grad, head.grad), grads):
        np.testing.assert_array_equal(got, want)
