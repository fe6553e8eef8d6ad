import math

import numpy as np
import pytest

from phibal.autodiff import Node, constant, parameter
from phibal.balancer import BalancerState, stmoe_aux_loss, total_loss
from phibal.checks import MIRROR_TOL, check_mirror_step, mirror_step_numeric
from phibal.moe import MoeLayer
from phibal.potentials import PotentialSpec, default_catalog, link
from phibal.training import BalanceConfig


def router_p_bar(logits: Node) -> Node:
    """The router's p_bar node for these logits: a layer whose router
    weights are the identity maps its input to its logits unchanged."""
    n_experts = logits.shape[1]
    layer = MoeLayer(n_experts, 1, n_experts, 1, np.random.default_rng(0))
    layer.w_router.value = np.eye(n_experts)
    return layer.route(logits).p_bar


def softmax_mean(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).mean(axis=0)


def make_state(n_experts=2, potential=PotentialSpec("neg_shannon"), **knobs) -> BalancerState:
    phi = potential.token() if potential else None
    return BalancerState(BalanceConfig(phi=phi, **knobs), n_experts)


# -- EMA ----------------------------------------------------------------------------


def test_ema_eta_one_copies_batch():
    state = make_state(eta=1.0)
    state.ema_update(np.array([0.3, 0.7]))
    np.testing.assert_allclose(state.m, [0.3, 0.7])


def test_ema_midpoint():
    state = make_state(eta=0.5)
    state.m = np.array([0.5, 0.5])
    state.ema_update(np.array([0.3, 0.7]))
    np.testing.assert_allclose(state.m, [0.4, 0.6])


def test_ema_converges_geometrically():
    state = make_state(eta=0.3)
    target = np.array([0.2, 0.8])
    for _ in range(50):
        state.ema_update(target)
    # Geometric-series oracle: after t steps the gap is (1 - eta)^t.
    expected = target * (1.0 - 0.7**50)
    np.testing.assert_allclose(state.m, expected, atol=1e-12)
    np.testing.assert_allclose(state.m, target, atol=1e-7)


def test_ema_mass_identity():
    rng = np.random.default_rng(0)
    state = make_state(n_experts=4, eta=0.37)
    for t in range(1, 30):
        state.ema_update(rng.dirichlet(np.ones(4)))
        assert state.m.sum() == pytest.approx(1.0 - 0.63**t, abs=1e-9)


def test_ema_rejects_length_mismatch():
    state = make_state()
    with pytest.raises(ValueError):
        state.ema_update(np.ones(3))


def test_eta_and_alpha_ranges_enforced():
    with pytest.raises(ValueError):
        make_state(eta=0.0)
    with pytest.raises(ValueError):
        make_state(eta=1.5)
    with pytest.raises(ValueError):
        BalanceConfig(alpha=-0.1)


@pytest.mark.parametrize(
    "knobs",
    [
        {"eta": 0.0},
        {"eta": 1.5},
        {"mechanism": "bogus"},
        {"statistic": "x"},
        {"mechanism": "phi", "phi": None},
        {"alpha": math.nan},
        {"mechanism": "loss_free", "bias_step": math.nan},
        {"mechanism": "loss_free", "bias_step": math.inf},
        {"mechanism": "loss_free", "bias_step": -1e-3},
    ],
    ids=[
        "eta=0",
        "eta=1.5",
        "mechanism",
        "statistic",
        "phi_missing",
        "alpha=nan",
        "bias_step=nan",
        "bias_step=inf",
        "bias_step<0",
    ],
)
def test_balance_config_rejects_bad_knobs_when_built(knobs):
    with pytest.raises(ValueError):
        BalanceConfig(**knobs)


# -- price-weighted loss -------------------------------------------------------------


def test_phi_aux_loss_pins():
    state = make_state()
    state.m = np.array([0.5, 0.5])
    p = constant(np.array([0.5, 0.5]))
    assert float(state.phi_aux_loss(p).value) == pytest.approx(1.0 - math.log(2.0))

    state = make_state(potential=PotentialSpec("euclidean"))
    state.m = np.array([0.9, 0.1])
    p = constant(np.array([0.9, 0.1]))
    assert float(state.phi_aux_loss(p).value) == pytest.approx(0.82)


def test_phi_aux_loss_gradient_reaches_only_probabilities():
    # d<p, w>/d logits must equal sum_e w_e dp_e/d logits with w frozen.
    rng = np.random.default_rng(1)
    logits = parameter(rng.standard_normal((4, 3)))
    state = make_state(n_experts=3)
    state.m = np.array([0.5, 0.3, 0.2])

    p_bar = router_p_bar(logits)
    state.phi_aux_loss(p_bar).backward()
    analytic = logits.grad.copy()

    w = state.price_vector()
    h = 1e-6
    fd = np.zeros_like(logits.value)
    for i in range(4):
        for j in range(3):
            for sign in (1.0, -1.0):
                logits.value[i, j] += sign * h
                p = softmax_mean(logits.value)
                fd[i, j] += sign * float(p @ w) / (2 * h)
                logits.value[i, j] -= sign * h
    np.testing.assert_allclose(analytic, fd, atol=1e-6)


def test_phi_aux_loss_entropic_floor_handles_fresh_state():
    state = make_state()  # m is all zeros
    p = constant(np.array([0.5, 0.5]))
    assert np.isfinite(float(state.phi_aux_loss(p).value))


@pytest.mark.parametrize("spec", default_catalog(), ids=lambda s: s.token())
def test_price_direction_overloaded_experts_cost_more(spec):
    # Renyi included: its link a m_e^(a-1) / ((a-1) S) shares S across
    # coordinates, so for a in (0, 1) prices follow m's order on any positive m.
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.dirichlet(np.ones(5))
        m = np.clip(m, 1e-3, None)
        m /= m.sum()
        w = link(spec, m)
        order = np.argsort(m)
        for a, b in zip(order[1:], order[:-1]):
            if m[a] > m[b]:
                assert w[a] > w[b]


@pytest.mark.parametrize("spec", default_catalog(), ids=lambda s: s.token())
def test_aux_gradient_pushes_most_loaded_logit_down(spec):
    rng = np.random.default_rng(3)
    for _ in range(5):
        logits = parameter(rng.standard_normal((6, 4)) * 1.5)
        p_bar = router_p_bar(logits)
        state = BalancerState(BalanceConfig(phi=spec.token()), 4)
        state.m = p_bar.value.copy()  # EMA equals the skewed batch mean
        state.phi_aux_loss(p_bar).backward()
        heaviest = int(np.argmax(p_bar.value))
        # A descent step moves along -grad; the most-loaded expert's logits
        # must strictly decrease for every token.
        assert np.all(logits.grad[:, heaviest] > 0.0)


# -- frequency/probability dot product --------------------------------------------------


def test_stmoe_pins():
    assert float(
        stmoe_aux_loss(np.array([0.5, 0.5]), constant([0.5, 0.5])).value
    ) == pytest.approx(0.5)
    assert float(
        stmoe_aux_loss(np.array([1.0, 0.0]), constant([0.9, 0.1])).value
    ) == pytest.approx(0.9)


def test_stmoe_uniform_is_one_over_e():
    e = 8
    f = np.full(e, 1.0 / e)
    p = constant(np.full(e, 1.0 / e))
    assert float(stmoe_aux_loss(f, p).value) == pytest.approx(1.0 / e)


def test_stmoe_length_mismatch():
    with pytest.raises(ValueError):
        stmoe_aux_loss(np.ones(3), constant([0.5, 0.5]))


def test_stmoe_frequencies_carry_no_gradient():
    logits = parameter(np.array([[0.2, -0.1]]))
    p_bar = router_p_bar(logits)
    loss = stmoe_aux_loss(np.array([0.75, 0.25]), p_bar)
    loss.backward()
    w = np.array([0.75, 0.25])
    p = p_bar.value
    expected = p * (w - float(p @ w))  # softmax jacobian against constant w
    np.testing.assert_allclose(logits.grad[0], expected, atol=1e-12)


# -- loss-free bias -----------------------------------------------------------------------


def test_loss_free_step_pins():
    state = make_state(mechanism="loss_free", potential=None, bias_step=0.01)
    bias = state.loss_free_step(np.array([0.75, 0.25]))
    np.testing.assert_allclose(bias, [-0.01, 0.01])


def test_loss_free_uniform_is_fixed_point():
    state = make_state(n_experts=4, mechanism="loss_free", potential=None)
    bias = state.loss_free_step(np.full(4, 0.25))
    np.testing.assert_allclose(bias, np.zeros(4))


def test_loss_free_bias_monotone_under_constant_skew():
    state = make_state(n_experts=3, mechanism="loss_free", potential=None)
    f = np.array([0.6, 0.3, 0.1])
    previous = state.bias.copy()
    for _ in range(100):
        bias = state.loss_free_step(f)
        assert bias[0] < previous[0]
        assert bias[2] > previous[2]
        previous = bias.copy()


@pytest.mark.parametrize("f", [0.5, np.full(3, 1 / 3), np.full((1, 2), 0.5)])
def test_loss_free_step_rejects_shape_mismatch(f):
    state = make_state(mechanism="loss_free", potential=None)
    with pytest.raises(ValueError, match="does not match 2 experts"):
        state.loss_free_step(f)
    np.testing.assert_array_equal(state.bias, np.zeros(2))


def test_loss_free_step_requires_mechanism():
    with pytest.raises(ValueError):
        make_state().loss_free_step(np.array([0.5, 0.5]))


# -- total loss ---------------------------------------------------------------------------


def test_total_loss_pins():
    task = constant(np.array(2.0))
    aux = [constant(np.array(0.1))]
    assert float(total_loss(task, aux, 0.01, 16).value) == pytest.approx(2.016)
    assert float(total_loss(task, [], 0.01, 16).value) == pytest.approx(2.0)
    assert float(total_loss(task, aux, 0.0, 16).value) == pytest.approx(2.0)


def test_total_loss_gradient_weights_aux_by_alpha_times_experts():
    task, aux = parameter(np.array(2.0)), [parameter(np.array(0.1)), parameter(np.array(0.3))]
    total_loss(task, aux, 0.01, 16).backward()
    assert float(task.grad) == 1.0
    assert [float(a.grad) for a in aux] == [pytest.approx(0.16)] * 2


# -- mirror step equivalence -----------------------------------------------------------


def test_mirror_step_matches_closed_form_ema():
    rng = np.random.default_rng(5)
    for spec in (PotentialSpec("neg_shannon"), PotentialSpec("euclidean")):
        for _ in range(20):
            m = np.clip(rng.dirichlet(np.ones(4)), 1e-3, None)
            m /= m.sum()
            p = rng.dirichlet(np.ones(4))
            eta = rng.uniform(0.05, 1.0)
            numeric = mirror_step_numeric(spec, m, p, eta)
            closed = link(spec, (1.0 - eta) * m + eta * p)
            assert np.max(np.abs(numeric - closed)) < MIRROR_TOL


def test_mirror_step_suite_passes():
    result = check_mirror_step()
    assert result.passed, result.detail
