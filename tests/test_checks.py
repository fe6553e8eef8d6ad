import numpy as np
import pytest

from phibal import checks
from phibal.checks import (
    check_duality,
    check_gradients,
    check_mirror_step,
    check_uniform_minimizer,
    estimation_bias_gaps,
    gradient_max_rel_error,
)
from phibal.cli import EXIT_CONFIG, EXIT_OK, main
from phibal.potentials import PotentialSpec, inverse_link, link


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


def test_gradient_suite():
    res = check_gradients(instances=2)
    assert res.passed, res.detail


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


def test_estimation_bias_structure():
    gaps = estimation_bias_gaps(batch_sizes=(1, 4), n_batches=200)
    assert [b for b, _, _ in gaps] == [1, 4]
    for _, gap, se in gaps:
        assert gap > 0.0
        assert se > 0.0
    assert gaps[0][1] > gaps[1][1]
