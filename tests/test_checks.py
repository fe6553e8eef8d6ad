import hashlib

import numpy as np
import pytest

from phibal import checks
from phibal.autodiff import parameter, weighted_sum
from phibal.balancer import stmoe_aux_loss
from phibal.checks import (
    build_gradcheck_instance,
    check_duality,
    check_gradients,
    check_mirror_step,
    check_uniform_minimizer,
    estimation_bias_gaps,
    finite_diff_gradient,
    finite_diff_sweep,
    gradient_max_rel_error,
)
from phibal.cli import EXIT_CONFIG, EXIT_OK, main
from phibal.potentials import PotentialSpec, inverse_link, link
from phibal.training import MoeStack, cross_entropy


def test_uniform_minimizer_suite():
    res = check_uniform_minimizer()
    assert res.passed, res.detail


def test_duality_suite():
    res = check_duality()
    assert res.passed, res.detail


def test_mirror_step_suite():
    res = check_mirror_step()
    assert res.passed, res.detail


@pytest.mark.parametrize("seed", range(50))
def test_mirror_step_suite_passes_across_seeds(seed):
    res = check_mirror_step(seed=seed)
    assert res.passed, res.detail


def test_mirror_step_solve_uses_link_only_for_its_start(monkeypatch):
    # The Newton solve must not reach the closed form through `link`.
    calls = []

    def counting_link(spec, m):
        calls.append(m)
        return link(spec, m)

    monkeypatch.setattr(checks, "link", counting_link)
    rng = np.random.default_rng(0)
    for spec in (PotentialSpec("neg_shannon"), PotentialSpec("euclidean")):
        m, p = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        eta = 0.3
        calls.clear()
        q = checks.mirror_step_numeric(spec, m, p, eta)
        assert len(calls) == 1 and calls[0] is m
        grad = (p - m) - (inverse_link(spec, q) - m) / eta
        assert np.max(np.abs(grad)) <= 1e-10


def test_gradient_suite(monkeypatch):
    # One sweep per instance: 2 x 324 perturbed forwards, 12 analytic, one
    # for the EMA and one for the margin guard (both seed-0 instances pass
    # it at the first attempt); one sweep per comparison made 3580 in all.
    calls = []
    forward = MoeStack.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(MoeStack, "forward", counted)
    res = check_gradients(instances=2, seed=0)
    assert res.passed, res.detail
    assert len(calls) == 1324


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_check_rejects_tolerance_that_is_not_finite_and_positive(tolerance, capsys):
    assert main(["check", "--check-tolerance", tolerance]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_run_all_reports_every_suite(capsys):
    assert main(["check", "--check-tolerance", "1e-4"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    names = ["uniform-minimizer", "duality", "mirror-step", "gradients"]
    assert [line.split(" ", 2)[:2] for line in lines] == [["PASS", name] for name in names]


def test_gradient_rel_error_helper():
    a = [np.array([1.0, 0.0])]
    b = [np.array([1.0 + 1e-6, 1e-9])]
    assert gradient_max_rel_error(a, b) < 1e-5
    assert gradient_max_rel_error(a, [np.array([2.0, 0.0])]) > 0.4
    # A non-finite entry on either side fails any tolerance.
    assert gradient_max_rel_error([np.array([np.nan])], [np.array([1.0])]) == np.inf
    assert gradient_max_rel_error([np.array([1.0])], [np.array([np.inf])]) == np.inf


def test_gradient_rel_error_refuses_unmatched_gradients():
    # zip dropped the unmatched gradient and broadcasting hid the shape
    # mismatch: both cases scored 0.0.
    with pytest.raises(ValueError, match="index 1"):
        gradient_max_rel_error([np.zeros(2), np.ones(2)], [np.zeros(2)])
    with pytest.raises(ValueError, match="index 1"):
        gradient_max_rel_error([np.zeros(2)], [np.zeros(2), np.ones(2)])
    shapes = r"gradient 0: analytic shape \(3, 2\) != numeric shape \(2,\)"
    with pytest.raises(ValueError, match=shapes):
        gradient_max_rel_error([np.ones((3, 2))], [np.ones(2)])


def test_sweep_refuses_a_parameter_that_ravels_to_a_copy():
    # A perturbation of the copy never reached the loss: the numeric
    # gradient read all zeros.
    p = parameter(np.zeros(3))
    p.value = np.arange(6.0)[::2]
    with pytest.raises(ValueError, match=r"shape \(3,\) and strides \(16,\)"):
        finite_diff_gradient(lambda: weighted_sum(p, np.ones(3)), [p])


def test_sweep_reads_each_loss_as_it_reads_alone():
    stack, x, labels = build_gradcheck_instance(0)
    params = stack.parameters()
    routers = [layer.w_router for layer in stack.layers]
    prices = np.array([0.5, -1.0, 2.0])

    def forward():
        return stack.forward(x, [None] * len(stack.layers))

    def task():
        return cross_entropy(forward()[0], labels)

    def freq():
        routing = forward()[1][1]
        return stmoe_aux_loss(routing.f, routing.p_bar)

    def priced():
        return weighted_sum(forward()[1][0].p_bar, prices)

    def losses(p):
        logits, routings = forward()
        out = [cross_entropy(logits, labels), stmoe_aux_loss(routings[1].f, routings[1].p_bar)]
        if p in routers:
            out.append(weighted_sum(routings[0].p_bar, prices))
        return out

    swept = finite_diff_sweep(losses, params)
    assert [len(grads) for grads in swept] == [3 if p in routers else 2 for p in params]
    alone = [finite_diff_gradient(task, params), finite_diff_gradient(freq, params)]
    alone.append(finite_diff_gradient(priced, routers))
    at_routers = [grads for p, grads in zip(params, swept) if p in routers]
    for j, expected in enumerate(alone):
        got = [grads[j] for grads in (at_routers if j == 2 else swept)]
        assert [g.tobytes() for g in got] == [g.tobytes() for g in expected]
        assert any(np.any(g != 0.0) for g in got)


def test_gradient_suite_compares_the_same_bits(monkeypatch, numeric_build):
    # Every (analytic, numeric) pair the suite compares, over four seeds of
    # five instances, hashed as it is passed: the bytes of one sweep per
    # comparison.
    digest = hashlib.sha256()
    pairs = []
    compare = checks.gradient_max_rel_error

    def recorded(analytic, numeric):
        pairs.append(len(analytic))
        for g in (*analytic, *numeric):
            digest.update(repr(g.shape).encode())
            digest.update(np.ascontiguousarray(g).tobytes())
        return compare(analytic, numeric)

    monkeypatch.setattr(checks, "gradient_max_rel_error", recorded)
    for seed in (0, 1, 7, 419):
        assert check_gradients(seed=seed).passed
    assert len(pairs) == 240
    assert digest.hexdigest()[:16] == "9b6fbc7e66b232a9", numeric_build


def test_estimation_bias_structure():
    gaps = estimation_bias_gaps(batch_sizes=(1, 4), n_batches=200)
    assert [b for b, _, _ in gaps] == [1, 4]
    for _, gap, se in gaps:
        assert gap > 0.0
        assert se > 0.0
    assert gaps[0][1] > gaps[1][1]
