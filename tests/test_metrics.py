import numpy as np
import pytest

from phibal.metrics import accuracy, gini, max_vio, routed_token_ratio


def test_max_vio_pins():
    assert max_vio([3.0, 1.0]) == pytest.approx(0.5)
    assert max_vio([2.0, 2.0, 2.0]) == 0.0
    # One-hot loads over E experts hit the worst case E - 1.
    assert max_vio([10.0, 0.0, 0.0, 0.0]) == pytest.approx(3.0)


def test_gini_pins():
    assert gini([5.0, 5.0, 5.0]) == 0.0
    assert gini([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.75)
    # Brute-force pairwise oracle for (2, 1, 1).
    loads = np.array([2.0, 1.0, 1.0])
    brute = sum(abs(a - b) for a in loads for b in loads)
    expected = brute / (2 * 9 * loads.mean())
    assert gini(loads) == pytest.approx(expected)
    assert gini(loads) == pytest.approx(1.0 / 6.0)


def test_metrics_reject_all_zero_loads():
    with pytest.raises(ValueError):
        max_vio([0.0, 0.0])
    with pytest.raises(ValueError):
        gini([0.0, 0.0])


@pytest.mark.parametrize("metric", [max_vio, gini])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_reject_non_finite_loads(metric, bad):
    with pytest.raises(ValueError, match="finite"):
        metric([1.0, bad])


@pytest.mark.parametrize("metric", [max_vio, gini])
def test_scale_and_permutation_invariance(metric):
    rng = np.random.default_rng(0)
    for _ in range(30):
        loads = rng.uniform(0.1, 5.0, size=8)
        base = metric(loads)
        for c in (0.5, 3.0, 1e6):
            assert metric(c * loads) == pytest.approx(base, rel=1e-12)
        for _ in range(5):
            assert metric(rng.permutation(loads)) == base


def test_gini_strictly_positive_off_uniform():
    rng = np.random.default_rng(1)
    for _ in range(30):
        loads = rng.uniform(0.1, 5.0, size=6)
        if np.ptp(loads) > 1e-12:
            assert gini(loads) > 0.0


def test_routed_token_ratio_uniform():
    rng = np.random.default_rng(2)
    sel = rng.integers(0, 8, size=10_000)
    dom = np.zeros(10_000, dtype=int)
    ratio = routed_token_ratio(sel, dom, n_experts=8, n_domains=1)
    assert np.max(np.abs(ratio[0] - 1.0 / 8.0)) < 0.02


def test_routed_token_ratio_one_hot_domain():
    sel = np.full(50, 3)
    dom = np.zeros(50, dtype=int)
    ratio = routed_token_ratio(sel, dom, n_experts=5, n_domains=1)
    np.testing.assert_allclose(ratio[0], [0, 0, 0, 1.0, 0])


def test_routed_token_ratio_rows_are_simplex():
    rng = np.random.default_rng(3)
    sel = rng.integers(0, 6, size=(400, 2))
    dom = rng.integers(0, 3, size=400)
    ratio = routed_token_ratio(sel, dom, n_experts=6, n_domains=3)
    np.testing.assert_allclose(ratio.sum(axis=1), np.ones(3), atol=1e-9)
    assert np.all(ratio >= 0.0)


def test_routed_token_ratio_absent_domain_is_nan_row():
    sel = np.array([0, 1, 0])
    dom = np.array([0, 0, 0])
    ratio = routed_token_ratio(sel, dom, n_experts=2, n_domains=2)
    assert np.all(np.isnan(ratio[1]))
    np.testing.assert_allclose(ratio[0], [2 / 3, 1 / 3])


@pytest.mark.parametrize("expert", [-1, 2, 7])
def test_routed_token_ratio_rejects_selection_out_of_range(expert):
    sel = np.array([[0, 1], [1, expert]])
    with pytest.raises(ValueError, match=f"selection {expert} outside"):
        routed_token_ratio(sel, [0, 0], n_experts=2, n_domains=1)


@pytest.mark.parametrize("domain", [-1, 2])
def test_routed_token_ratio_rejects_domain_out_of_range(domain):
    with pytest.raises(ValueError, match=f"domain id {domain} outside"):
        routed_token_ratio([0, 1, 0], [0, 1, domain], n_experts=2, n_domains=2)


def test_accuracy_pins():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 2, 3], [3, 1, 2]) == 0.0
    assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        accuracy([], [])
