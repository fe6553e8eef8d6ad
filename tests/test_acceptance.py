"""Acceptance gate: one test per shipped criterion, each printing a verdict.

The trend criteria pull full-length runs from the session run bank (see
conftest); the identity criteria call the check suites directly at their
stated tolerances.
"""

import numpy as np
import pytest
import yaml

from conftest import SEEDS

from phibal.autodiff import Node
from phibal.balancer import total_loss
from phibal.checks import (
    check_duality,
    check_gradients,
    check_mirror_step,
    check_uniform_minimizer,
    estimation_bias_gaps,
)
from phibal.config import with_seed
from phibal.corpus import sample_batch
from phibal.experiments import run_plan
from phibal.metrics import gini, max_vio, routed_token_ratio
from phibal.potentials import default_catalog
from phibal.training import TrainConfig, Trainer, compute_token_budget, cross_entropy


def verdict(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})")


def test_01_uniform_minimizer_suite():
    res = check_uniform_minimizer()
    assert res.passed, res.detail
    assert res.seconds < 5.0
    verdict(1, "uniform-minimizer", f"{res.detail}; {res.seconds:.2f}s")


def test_02_duality_suite():
    res = check_duality()
    assert res.passed, res.detail
    assert res.seconds < 10.0
    verdict(2, "duality", f"{res.detail}; {res.seconds:.2f}s")


def test_03_mirror_step_suite():
    res = check_mirror_step()
    assert res.passed, res.detail
    assert res.seconds < 5.0
    verdict(3, "mirror-step", f"{res.detail}; {res.seconds:.2f}s")


def test_04_gradient_suite():
    res = check_gradients()
    assert res.passed, res.detail
    assert res.seconds < 30.0
    verdict(4, "gradients", f"{res.detail}; {res.seconds:.2f}s")


def test_05_stop_gradient_system_check():
    cfg = with_seed(TrainConfig(steps=5, eval_every=5), 3)
    x, labels, _ = sample_batch(cfg.corpus, cfg.batch_tokens, 1)

    production = Trainer(cfg)
    logits, routings = production.model.forward(x, [None, None])
    task = cross_entropy(logits, labels)
    for bal, routing in zip(production.balancers, routings):
        bal.ema_update(routing.p_bar.value)
    aux = [b.phi_aux_loss(r.p_bar) for b, r in zip(production.balancers, routings)]
    loss = total_loss(task, aux, cfg.balance.alpha, cfg.model.experts)
    for p in production.params:
        p.grad = None
    loss.backward()
    frozen_prices = [b.price_vector() for b in production.balancers]
    grads_production = [layer.w_router.grad.copy() for layer in production.model.layers]

    frozen = Trainer(cfg)
    logits2, routings2 = frozen.model.forward(x, [None, None])
    task2 = cross_entropy(logits2, labels)
    # Built here in the op order of (p_bar * w).sum(), not through the
    # production node: p_bar's adjoint is the root's, broadcast, times w.
    aux2 = [
        Node((r.p_bar.value * w).sum(), (r.p_bar,),
             (lambda g, w=w: np.broadcast_to(g, w.shape).copy() * w,))
        for r, w in zip(routings2, frozen_prices)
    ]
    loss2 = total_loss(task2, aux2, cfg.balance.alpha, cfg.model.experts)
    for p in frozen.params:
        p.grad = None
    loss2.backward()
    grads_frozen = [layer.w_router.grad.copy() for layer in frozen.model.layers]

    for a, b in zip(grads_production, grads_frozen):
        assert a.tobytes() == b.tobytes()
    verdict(5, "stop-gradient", "production path == frozen-price path bit-for-bit")


def test_06_balance_trend_across_mechanisms(run_bank):
    seconds = 0.0
    margins = []
    for seed in SEEDS:
        phi, t1 = run_bank[("neg_shannon", seed)]
        st, t2 = run_bank[("st_moe", seed)]
        none, t3 = run_bank[("none", seed)]
        seconds += t1 + t2 + t3
        assert phi.terminal_max_vio() < st.terminal_max_vio()
        assert st.terminal_max_vio() < none.terminal_max_vio()
        baseline = none.terminal_task_loss()
        for rec in (phi, st):
            assert abs(rec.terminal_task_loss() - baseline) <= 0.10 * baseline
        margins.append(
            f"seed{seed}: {phi.terminal_max_vio():.3f} < {st.terminal_max_vio():.3f}"
            f" < {none.terminal_max_vio():.3f}"
        )
    assert seconds < 300.0
    verdict(6, "balance-trend", "; ".join(margins) + f"; {seconds:.0f}s for 9 runs")


def test_07_catalog_ranking(run_bank):
    means = {}
    for spec in default_catalog():
        token = spec.token()
        means[token] = np.mean(
            [run_bank[(token, seed)][0].terminal_max_vio() for seed in SEEDS]
        )
    ranked = sorted(means, key=means.get)
    position = ranked.index("neg_shannon") + 1
    assert position <= 3, f"neg_shannon ranked {position} of 9: {ranked}"
    verdict(7, "catalog-ranking", f"neg_shannon rank {position}; order {ranked[:3]}")


def test_08_frequency_vs_probability_statistic(run_bank):
    diffs = []
    for seed in SEEDS:
        prob, _ = run_bank[("neg_shannon", seed)]
        freq, _ = run_bank[("freq:neg_shannon", seed)]
        lp, lf = prob.terminal_task_loss(), freq.terminal_task_loss()
        rel = abs(lp - lf) / min(lp, lf)
        assert rel <= 0.05, f"seed {seed}: {lp} vs {lf}"
        diffs.append(rel)
    verdict(8, "statistic-choice", f"max rel task-loss gap {max(diffs):.3%}")


def test_09_batch_estimation_bias():
    gaps = estimation_bias_gaps(batch_sizes=(1, 4, 16, 64), n_batches=1000)
    for _, gap, _ in gaps:
        assert gap > 0.0
    inversions = 0
    for (b1, g1, s1), (b2, g2, s2) in zip(gaps, gaps[1:]):
        if g2 > g1:
            inversions += 1
            assert g2 - g1 <= 2.0 * np.hypot(s1, s2), f"B={b1}->{b2}"
    assert inversions <= 1
    detail = ", ".join(f"B={b}: {g:.4f}" for b, g, _ in gaps)
    verdict(9, "estimation-bias", detail)


def test_10_metric_identities():
    assert max_vio([3.0, 1.0]) == 0.5
    assert gini([1.0, 0.0, 0.0, 0.0]) == 0.75
    rng = np.random.default_rng(0)
    sel = rng.integers(0, 6, size=(500, 2))
    dom = rng.integers(0, 3, size=500)
    ratio = routed_token_ratio(sel, dom, 6, 3)
    np.testing.assert_allclose(ratio.sum(axis=1), np.ones(3), atol=1e-9)
    for _ in range(20):
        loads = rng.uniform(0.1, 4.0, size=8)
        for c in (0.5, 7.0):
            assert max_vio(c * loads) == pytest.approx(max_vio(loads), rel=1e-12)
            assert gini(c * loads) == pytest.approx(gini(loads), rel=1e-12)
        shuffled = rng.permutation(loads)
        assert max_vio(shuffled) == max_vio(loads)
        assert gini(shuffled) == gini(loads)
    verdict(10, "metric-identities", "pinned values exact; invariances hold")


def test_11_token_budget_calculator():
    tpp = compute_token_budget(1.0).tokens_per_param
    assert abs(tpp - 27.27) < 0.05
    ratios = []
    for c in (1.0, 1e12, 1e18):
        b = compute_token_budget(c)
        ratio = b.compute_per_token * b.train_tokens / c
        assert 0.999 <= ratio <= 1.002
        ratios.append(ratio)
    verdict(11, "token-budget", f"tpp(1)={tpp:.4f}; size*tokens/C={ratios[0]:.5f}")


def test_12_sweep_determinism(tmp_path):
    raw = {
        "model": {"layers": 1, "experts": 4, "top_k": 2, "dim": 6, "ffn_dim": 8},
        "balance": {"mechanism": "phi", "phi": "neg_shannon"},
        "corpus": {"domains": 3, "seed": 0},
        "train": {
            "batch_tokens": 16,
            "steps": 40,
            "eval_every": 10,
            "eval_tokens": 64,
            "load_window": 20,
        },
        "sweep": {"axis": "eta", "values": [0.3, 0.7], "seeds": [0, 1]},
    }
    from phibal.config import plan_from_dict

    plan = plan_from_dict(yaml.safe_load(yaml.safe_dump(raw)))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_plan(plan, out_a, jobs=4)
    run_plan(plan, out_b, jobs=4)
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    verdict(12, "sweep-determinism", f"{len(names)} files byte-identical on rerun")


def test_balanced_catalog_members_beat_no_balancing(run_bank):
    # Balance must improve over alpha=0 for the headline potentials while
    # leaving the task intact.
    for token in ("neg_shannon", "euclidean", "renyi:alpha=0.95"):
        for seed in SEEDS:
            balanced, _ = run_bank[(token, seed)]
            baseline, _ = run_bank[("none", seed)]
            assert balanced.terminal_max_vio() < baseline.terminal_max_vio()
            assert (
                abs(balanced.terminal_task_loss() - baseline.terminal_task_loss())
                <= 0.10 * baseline.terminal_task_loss()
            )
