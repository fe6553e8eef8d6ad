import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import phibal
from phibal import autodiff, moe
from phibal.autodiff import _CHUNK, constant, linear, parameter
from phibal.balancer import total_loss
from phibal.checks import finite_diff_gradient, gradient_max_rel_error
from phibal.config import with_seed
from phibal.corpus import CorpusSpec, sample_batch
from phibal.metrics import accuracy
from phibal.training import (
    BalanceConfig,
    ModelConfig,
    NumericalError,
    OptimizerConfig,
    TrainConfig,
    Trainer,
    compute_token_budget,
    cross_entropy,
    Optimizer,
    squared_error,
    train,
)

SHORT = dict(steps=60, eval_every=20)


def short_config(**kwargs) -> TrainConfig:
    merged = {**SHORT, **kwargs}
    return TrainConfig(**merged)


# -- config validation ----------------------------------------------------------------


def test_zero_steps_rejected():
    with pytest.raises(ValueError):
        TrainConfig(steps=0)


def test_eval_every_bounded_by_steps():
    with pytest.raises(ValueError):
        TrainConfig(steps=10, eval_every=20)


def test_top_k_bounded_by_experts():
    with pytest.raises(ValueError):
        ModelConfig(experts=4, top_k=5)


def test_corpus_dim_must_match_model():
    with pytest.raises(ValueError):
        TrainConfig(corpus=CorpusSpec(n_domains=4, dim=8))


def test_bad_mechanism_fails_at_config_time():
    with pytest.raises(ValueError):
        TrainConfig(balance=BalanceConfig(mechanism="bogus"))


def test_load_window_must_be_positive():
    with pytest.raises(ValueError, match="load_window"):
        TrainConfig(load_window=0)


@pytest.mark.parametrize("value", [1.0, -0.1])
@pytest.mark.parametrize("name", ["beta1", "beta2"])
def test_adam_betas_must_lie_in_unit_interval(name, value):
    with pytest.raises(ValueError, match=name):
        OptimizerConfig(**{name: value})


def test_nan_learning_rate_rejected():
    with pytest.raises(ValueError, match="'lr'"):
        OptimizerConfig(lr=math.nan)


@pytest.mark.parametrize(
    "name,value",
    [
        ("eps", -1.0),
        ("eps", math.nan),
        ("weight_decay", math.nan),
        ("weight_decay", -1),
        ("warmup_steps", -5),
    ],
)
def test_optimizer_knobs_out_of_range_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        OptimizerConfig(**{name: value})


def test_sgd_rejects_weight_decay():
    # Accepted, SGD ignored it: a parameter with a zero gradient stayed put,
    # under a config digest of its own.
    with pytest.raises(ValueError, match="'weight_decay' applies to kind 'adamw' only.*'sgd'"):
        OptimizerConfig(kind="sgd", weight_decay=0.5)
    assert OptimizerConfig(kind="sgd", weight_decay=0.0).weight_decay == 0.0


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: ModelConfig(layers=True), "model 'layers' must be an integer"),
        (lambda: OptimizerConfig(cosine="no"), "optimizer 'cosine' must be a bool"),
        (lambda: BalanceConfig(eta=True), "balance 'eta' must be a number"),
        (lambda: CorpusSpec(n_domains=2.5, dim=4), "corpus 'n_domains' must be an integer"),
    ],
    ids=["layers=True", "cosine='no'", "eta=True", "n_domains=2.5"],
)
def test_python_built_config_is_checked(build, name):
    # Accepted, `layers=True` failed only later, in `config_to_dict`.
    with pytest.raises(ValueError, match=name):
        build()


@pytest.mark.parametrize(
    "cls", [ModelConfig, OptimizerConfig, TrainConfig, BalanceConfig, CorpusSpec]
)
def test_every_number_field_declares_a_range(cls):
    # `top_k` is checked against `experts` by hand; a new knob may not land unchecked.
    numbers = [f for f in fields(cls) if f.type in ("int", "float")]
    unchecked = [f.name for f in numbers if "test" not in f.metadata]
    assert unchecked == (["top_k"] if cls is ModelConfig else [])


def test_number_fields_are_coerced_to_their_annotation():
    cfg = TrainConfig(steps=300.0, balance=BalanceConfig(eta=1), optimizer=OptimizerConfig(lr=1))
    assert type(cfg.steps) is int and type(cfg.balance.eta) is float
    assert type(cfg.optimizer.lr) is float


# -- optimizers ------------------------------------------------------------------------


def test_sgd_pin():
    p = parameter(np.array(0.0))
    opt = Optimizer(OptimizerConfig(kind="sgd", lr=0.1, warmup_steps=0), [p], 10)
    p.grad = np.array(1.0)
    opt.step()
    assert float(p.value) == pytest.approx(-0.1)


def test_adamw_first_step_magnitude_is_lr():
    p = parameter(np.array(0.0))
    cfg = OptimizerConfig(kind="adamw", lr=0.01, warmup_steps=0, weight_decay=0.0)
    opt = Optimizer(cfg, [p], 10)
    p.grad = np.array(1.0)
    opt.step()
    # Bias-corrected first step: lr * g / (|g| + eps) = lr up to eps.
    assert float(p.value) == pytest.approx(-0.01, rel=1e-6)


def test_adamw_zero_weight_decay_equals_adam():
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(3) for _ in range(5)]

    def run(wd):
        p = parameter(np.zeros(3))
        cfg = OptimizerConfig(kind="adamw", lr=0.05, warmup_steps=0, weight_decay=wd)
        opt = Optimizer(cfg, [p], 10)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        return p.value.copy()

    def adam_reference():
        p = np.zeros(3)
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            p -= 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        return p

    np.testing.assert_allclose(run(0.0), adam_reference(), atol=1e-12)
    assert np.max(np.abs(run(0.01) - run(0.0))) > 0.0


def test_warmup_schedule_ramps_linearly():
    p = parameter(np.array(0.0))
    cfg = OptimizerConfig(kind="sgd", lr=1.0, warmup_steps=4)
    opt = Optimizer(cfg, [p], 10)
    seen = []
    for _ in range(6):
        opt.t += 1
        seen.append(opt.learning_rate())
        opt.t -= 1
        p.grad = np.array(0.0)
        opt.step()
    assert seen == pytest.approx([0.25, 0.5, 0.75, 1.0, 1.0, 1.0])


def _reference_optimizer(cfg, values, grads, total_steps, textbook=False):
    """The per-array update formula, one parameter at a time; yields the
    parameter values after each step. AdamW takes Kingma & Ba's efficient
    form, the optimizer's, or with ``textbook`` the bias-corrected moments
    as written: lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)."""
    values = [np.array(v, dtype=np.float64) for v in values]
    m = [np.zeros_like(v) for v in values]
    v = [np.zeros_like(v) for v in values]
    schedule = Optimizer(cfg, [], total_steps)
    for t, step_grads in enumerate(grads, start=1):
        schedule.t = t
        lr = schedule.learning_rate()
        for i, g in enumerate(step_grads):
            g = np.zeros(values[i].shape) if g is None else g
            if cfg.kind == "sgd":
                values[i] -= lr * g
                continue
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g
            v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * g * g
            c1, c2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
            if textbook:
                m_hat, v_hat = m[i] / c1, v[i] / c2
                values[i] -= lr * (
                    m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * values[i]
                )
                continue
            step_size = lr * math.sqrt(c2) / c1
            update = step_size * (m[i] / (np.sqrt(v[i]) + cfg.eps * math.sqrt(c2)))
            if cfg.weight_decay != 0.0:
                update = update + (lr * cfg.weight_decay) * values[i]
            values[i] -= update
        yield values


def _four_chunk_steps(kind, weight_decay, textbook=False):
    """Seven steps of an optimizer over four chunks beside
    `_reference_optimizer`: yields (parameter, reference value) pairs after
    each step. The chunks: a 0-d parameter; one larger than a chunk; a run
    of two; a last one. Parameter 3 has no gradient on alternate steps,
    between parameters that have one."""
    shapes = [(), (_CHUNK + 7,), (_CHUNK // 4, 2), (8, 16), (3, _CHUNK // 3)]
    rng = np.random.default_rng(12)
    values = [rng.standard_normal(s) for s in shapes]
    steps = 7
    grads = [
        [None if (i == 3 and t % 2) else rng.standard_normal(s) for i, s in enumerate(shapes)]
        for t in range(steps)
    ]
    cfg = OptimizerConfig(kind=kind, lr=0.05, weight_decay=weight_decay, warmup_steps=2, cosine=True)
    params = [parameter(v.copy()) for v in values]
    opt = Optimizer(cfg, params, steps)
    assert len(opt._chunks) == 4
    reference = _reference_optimizer(cfg, values, grads, steps, textbook)
    for step_grads, expected in zip(grads, reference):
        for p, g in zip(params, step_grads):
            p.grad = None if g is None else g.copy()
        opt.step()
        for p, want in zip(params, expected):
            assert p.value.shape == want.shape
            yield p.value, want


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_flat_optimizer_matches_per_array_formula_bitwise(kind):
    # A zero weight decay skips the decay passes; SGD takes none.
    for weight_decay in (0.01, 0.0) if kind == "adamw" else (0.0,):
        for got, want in _four_chunk_steps(kind, weight_decay):
            assert got.tobytes() == want.tobytes()


def test_adamw_matches_the_textbook_formula_to_rounding():
    # The efficient form moves only rounding: every parameter stays within
    # 1e-12 of its largest magnitude of the textbook per-array AdamW.
    for weight_decay in (0.01, 0.0):
        for got, want in _four_chunk_steps("adamw", weight_decay, textbook=True):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_optimizer_split_across_threads_keeps_bits(monkeypatch, kind):
    cfg = TrainConfig(
        model=ModelConfig(layers=1, experts=64, top_k=4, dim=64, ffn_dim=128),
        corpus=CorpusSpec(n_domains=4, dim=64),
        optimizer=OptimizerConfig(kind=kind, warmup_steps=0),
        batch_tokens=1024,
        steps=3,
        eval_every=3,
        eval_tokens=64,
    )
    arenas = {}
    for workers in (0, 1):
        monkeypatch.setattr(autodiff, "_WORKERS", workers)
        trainer = Trainer(cfg)
        assert len(trainer.optimizer._chunks) >= 4
        trainer.run()
        opt = trainer.optimizer
        arenas[workers] = [opt.flat] + ([opt.m, opt.v] if kind == "adamw" else [])
    for split, serial in zip(arenas[1], arenas[0]):
        np.testing.assert_array_equal(split, serial)


def test_parameters_are_views_of_the_arena(tmp_path):
    # Matrices are stored column-major, so each `.value.T` is the arena
    # itself, and backward leaves every gradient in the gradient arena.
    def check_storage(trainer):
        for p in trainer.params:
            assert np.shares_memory(p.value, trainer.optimizer.flat)
            if p.ndim == 2:
                assert p.value.T.flags["C_CONTIGUOUS"]

    cfg = with_seed(short_config(), 2)
    trainer = Trainer(cfg)
    check_storage(trainer)
    for _ in range(3):
        trainer.step()
    check_storage(trainer)
    for p in trainer.params:
        assert p.grad is None or np.shares_memory(p.grad, trainer.optimizer.grad)
    slot = (trainer.step_index - 1) % cfg.load_window
    for layer, window in zip(trainer.model.layers, trainer._window):
        counts = window[slot]  # the last step's selections
        assert layer.w_router.grad is not None
        for e, (w1, w2) in enumerate(zip(layer.w1, layer.w2)):
            if counts[e]:
                assert w1.grad is w1.out and w2.grad is w2.out
            else:
                assert w1.grad is None and w2.grad is None
    trainer.save_snapshot(tmp_path / "snap.npz")
    resumed = Trainer.load_snapshot(cfg, tmp_path / "snap.npz")
    check_storage(resumed)
    for p, q in zip(resumed.params, trainer.params):
        assert p.value.tobytes() == q.value.tobytes()


def test_linear_writes_router_and_head_gradients_in_place():
    # linear's weight VJP writes into the weight's `out` and returns it, so
    # backward takes it without a copy, with the bits of (x.T @ g).T.
    trainer = Trainer(with_seed(short_config(), 3))
    trainer.step()
    weights = [layer.w_router for layer in trainer.model.layers] + [trainer.model.head]
    for w in weights:
        assert w.grad is w.out
    rng = np.random.default_rng(0)
    for w in weights:
        x = rng.standard_normal((5, w.shape[1]))
        g = rng.standard_normal((5, w.shape[0]))
        w.grad = None
        contrib = linear(constant(x), w)._vjp(g)[1]
        assert contrib is w.out
        assert contrib.tobytes() == (x.T @ g).T.tobytes()


# -- training loop -----------------------------------------------------------------------


def test_runs_are_deterministic():
    cfg = with_seed(short_config(), 11)
    assert train(cfg).digest() == train(cfg).digest()


def test_record_steps_strictly_increase():
    record = train(with_seed(short_config(), 4))
    steps = [r.step for r in record.rows]
    layer_count = 2
    assert steps == sorted(steps)
    assert len(set(steps)) * layer_count == len(steps)


@pytest.mark.parametrize("label_rule", ["domain_id", "linear_teacher"])
def test_acceptance_step_builds_14_nodes(label_rule):
    # Per step: the input, per layer the router logits, p_bar, weights and
    # the experts (residual included), then the head, the task loss
    # (cross-entropy or squared error), one price loss per layer and their
    # total.
    corpus = CorpusSpec(n_domains=4, dim=16, label_rule=label_rule)
    trainer = Trainer(TrainConfig(corpus=corpus))
    trainer.step()
    before = constant(0.0).uid
    trainer.step()
    assert constant(0.0).uid - before - 1 == 14


_PIN_BASE = TrainConfig(steps=300)


@pytest.mark.parametrize(
    "config,digest",
    [
        (_PIN_BASE, "9941400632c1"),
        (replace(_PIN_BASE, balance=BalanceConfig(mechanism="loss_free")), "1801173676ca"),
        (replace(_PIN_BASE, balance=BalanceConfig(mechanism="st_moe")), "f4185314017c"),
        (replace(_PIN_BASE, model=ModelConfig(top_k=1)), "dd22de911f15"),
        (replace(_PIN_BASE, model=ModelConfig(top_k=3)), "1aebf7df2534"),
        (
            replace(_PIN_BASE, corpus=CorpusSpec(n_domains=4, dim=16, label_rule="linear_teacher")),
            "c46d75a76f73",
        ),
    ],
    ids=["default", "loss_free", "st_moe", "top_k=1", "top_k=3", "linear_teacher"],
)
def test_run_digest_pins(config, digest, numeric_build):
    """300-step runs keep their exact bits: the first 12 hex digits of
    `RunRecord.digest()`. The pins were measured with numpy 2.4.6 on
    OpenBLAS 0.3.31 (x86-64 Linux); another numpy build or BLAS may round
    the matrix products differently and move them."""
    assert train(config).digest()[:12] == digest, numeric_build


def test_squared_error_matches_numpy_chain_bitwise():
    # The reference is the chain d = pred - targets, (d * d).mean() in plain
    # numpy: the mean passes broadcast(g / n) back, each factor of the square
    # multiplies it by d, and the second product is added to a copy of the
    # first.
    rng = np.random.default_rng(31)
    pred_arr = rng.standard_normal((9, 1))
    targets = rng.standard_normal(9)
    pred = parameter(pred_arr.copy())
    loss = squared_error(pred, targets)
    loss.backward()

    d = pred_arr - targets.reshape(9, 1)
    g_mean = np.broadcast_to(np.ones(()) / d.size, d.shape).copy()
    d_pred = np.array(g_mean * d)
    d_pred += g_mean * d
    np.testing.assert_array_equal(loss.value, (d * d).mean())
    np.testing.assert_array_equal(pred.grad, d_pred)
    numeric = finite_diff_gradient(lambda: squared_error(pred, targets), [pred])
    assert gradient_max_rel_error([pred.grad], numeric) < 1e-8


def test_alpha_zero_total_gradients_match_pure_task_bitwise():
    cfg = with_seed(
        short_config(balance=BalanceConfig(mechanism="phi", phi="neg_shannon", alpha=0.0)),
        3,
    )
    x, labels, _ = sample_batch(cfg.corpus, cfg.batch_tokens, 1)

    with_aux = Trainer(cfg)
    logits, routings = with_aux.model.forward(x, [None, None])
    task = cross_entropy(logits, labels)
    for bal, routing in zip(with_aux.balancers, routings):
        bal.ema_update(routing.p_bar.value)
    aux = [b.phi_aux_loss(r.p_bar) for b, r in zip(with_aux.balancers, routings)]
    loss = total_loss(task, aux, 0.0, cfg.model.experts)
    for p in with_aux.params:
        p.grad = None
    loss.backward()
    grads_aux = [
        p.grad.copy() if p.grad is not None else np.zeros(p.shape)
        for p in with_aux.params
    ]

    task_only = Trainer(cfg)
    logits2, _ = task_only.model.forward(x, [None, None])
    task2 = cross_entropy(logits2, labels)
    for p in task_only.params:
        p.grad = None
    task2.backward()
    grads_task = [
        p.grad.copy() if p.grad is not None else np.zeros(p.shape)
        for p in task_only.params
    ]

    for a, b in zip(grads_aux, grads_task):
        assert a.tobytes() == b.tobytes()


def test_alpha_zero_still_tracks_ema():
    cfg = with_seed(
        short_config(balance=BalanceConfig(mechanism="phi", phi="neg_shannon", alpha=0.0)),
        5,
    )
    trainer = Trainer(cfg)
    trainer.run()
    for bal in trainer.balancers:
        assert bal.m.sum() == pytest.approx(1.0 - 0.3**cfg.steps, abs=1e-9)


def test_mechanism_none_tracks_ema_too():
    cfg = with_seed(
        short_config(balance=BalanceConfig(mechanism="none", phi=None, alpha=0.0)), 5
    )
    trainer = Trainer(cfg)
    trainer.run()
    for bal in trainer.balancers:
        assert bal.m.sum() > 0.99


def test_loss_free_biases_move_and_stay_out_of_probs():
    cfg = with_seed(
        short_config(balance=BalanceConfig(mechanism="loss_free", phi=None)), 6
    )
    trainer = Trainer(cfg)
    trainer.run()
    for bal in trainer.balancers:
        assert bal.bias is not None
        assert np.max(np.abs(bal.bias)) > 0.0


def test_nan_loss_aborts_with_step_and_snapshot():
    cfg = with_seed(
        short_config(optimizer=OptimizerConfig(kind="sgd", lr=1e9, warmup_steps=0)), 7
    )
    trainer = Trainer(cfg)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError) as err:
            trainer.run()
    assert err.value.step > 0
    assert "params" in err.value.snapshot

    # The snapshot is the consistent state after the last good step.
    snap = err.value.snapshot
    assert snap["step"] == err.value.step - 1
    fresh = Trainer(cfg)
    with np.errstate(all="ignore"):
        for _ in range(err.value.step - 1):
            fresh.step()
    for stored, bal in zip(snap["ema"], fresh.balancers):
        assert stored.tobytes() == bal.m.tobytes()
    resumed = Trainer.restore(cfg, snap)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError) as again:
            resumed.step()
    assert again.value.step == err.value.step


def test_numerical_error_snapshot_resumes_through_a_file(tmp_path):
    cfg = with_seed(
        short_config(optimizer=OptimizerConfig(kind="sgd", lr=1e9, warmup_steps=0)), 7
    )
    trainer = Trainer(cfg)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError) as err:
            trainer.run()
    # The rolled-back trainer saves exactly the error's snapshot.
    path = tmp_path / "failed_snapshot.json"
    trainer.save_snapshot(path)
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data) == sorted(err.value.snapshot)
        for key, value in err.value.snapshot.items():
            assert data[key].tobytes() == np.asarray(value).tobytes()
    resumed = Trainer.load_snapshot(cfg, path)
    assert resumed.step_index == resumed.optimizer.t == err.value.step - 1
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError) as again:
            resumed.step()
    assert again.value.step == err.value.step
    assert again.value.snapshot["params"].tobytes() == err.value.snapshot["params"].tobytes()


def test_live_trainer_retries_the_failing_step():
    cfg = with_seed(
        short_config(optimizer=OptimizerConfig(kind="sgd", lr=1e9, warmup_steps=0)), 7
    )
    trainer = Trainer(cfg)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError) as err:
            trainer.run()
        assert trainer.step_index == err.value.step - 1
        with pytest.raises(NumericalError) as again:
            trainer.step()
    assert again.value.step == err.value.step


@pytest.mark.parametrize("mechanism", ["phi", "loss_free"])
def test_snapshot_resume_is_bit_exact(mechanism, tmp_path):
    balance = BalanceConfig(mechanism=mechanism)
    cfg = with_seed(TrainConfig(steps=120, eval_every=20, balance=balance), 5)
    full = Trainer(cfg)
    full.run()

    half = Trainer(cfg)
    while half.step_index < 60:
        half.step()
    path = tmp_path / "half_snapshot.json"  # .npz whatever the suffix
    half.save_snapshot(path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    resumed = Trainer.load_snapshot(cfg, path)
    resumed.run()
    assert resumed.record.digest() == full.record.digest()
    for a, b in zip(resumed.params, full.params):
        assert a.value.tobytes() == b.value.tobytes()
    for a, b in zip(resumed.balancers, full.balancers):
        assert a.m.tobytes() == b.m.tobytes()
        assert (a.bias is None) == (b.bias is None) == (mechanism != "loss_free")
        if a.bias is not None:
            assert a.bias.tobytes() == b.bias.tobytes()


def test_restore_rejects_snapshot_of_another_config():
    two_layers = with_seed(short_config(), 1)
    one_layer = with_seed(short_config(model=ModelConfig(layers=1)), 1)
    snap = Trainer(two_layers).snapshot()
    with pytest.raises(ValueError, match=r"shapes has shape \(35, 2\), the config builds \(18,"):
        Trainer.restore(one_layer, snap)

    loss_free = with_seed(short_config(balance=BalanceConfig(mechanism="loss_free")), 1)
    with pytest.raises(ValueError, match="loss_free mechanism keep .*'bias'"):
        Trainer.restore(loss_free, snap)

    sgd = with_seed(short_config(optimizer=OptimizerConfig(kind="sgd")), 1)
    with pytest.raises(ValueError, match="sgd optimizer"):
        Trainer.restore(sgd, snap)


def test_restore_rejects_malformed_moments():
    cfg = with_seed(short_config(), 1)
    trainer = Trainer(cfg)
    trainer.step()
    snap = trainer.snapshot()
    assert snap["moment2"].shape == snap["params"].shape
    assert tuple(snap["shapes"][0]) == (8, 16)

    bad_shape = dict(snap, moment2=snap["moment2"][:-1])
    with pytest.raises(ValueError, match="moment2 has shape"):
        Trainer.restore(cfg, bad_shape)

    short = dict(snap, shapes=snap["shapes"][:3])
    with pytest.raises(ValueError, match=r"shapes has shape \(3, 2\), the config builds \(35, 2\)"):
        Trainer.restore(cfg, short)

    swapped = dict(snap, shapes=snap["shapes"].copy())
    swapped["shapes"][3] = swapped["shapes"][9]  # a w2, not a w1
    named = r"parameter 3 has shape \[16, 32\], the config builds \[64, 16\]"
    with pytest.raises(ValueError, match=named):
        Trainer.restore(cfg, swapped)


def test_restore_rejects_malformed_window():
    cfg = with_seed(short_config(), 1)
    trainer = Trainer(cfg)
    for _ in range(5):
        trainer.step()
    snap = trainer.snapshot()
    assert snap["window"].shape == (2, cfg.load_window, 8)
    assert (snap["window"][:, :5].sum(axis=2) == cfg.batch_tokens * cfg.model.top_k).all()
    assert not snap["window"][:, 5:].any()  # slots not yet written

    few_experts = dict(snap, window=snap["window"][:, :, :2])
    with pytest.raises(ValueError, match=r"window has shape \(2, 200, 2\)"):
        Trainer.restore(cfg, few_experts)

    one_layer = dict(snap, window=snap["window"][:1])
    with pytest.raises(ValueError, match=r"window has shape \(1, 200, 8\)"):
        Trainer.restore(cfg, one_layer)

    too_long = dict(snap, window=np.zeros((2, cfg.load_window + 8, 8), dtype=np.int64))
    with pytest.raises(ValueError, match=r"window has shape \(2, 208, 8\)"):
        Trainer.restore(cfg, too_long)


def test_restore_rejects_another_load_window():
    cfg = with_seed(short_config(), 1)
    trainer = Trainer(cfg)
    for _ in range(5):
        trainer.step()
    snap = trainer.snapshot()
    built = r"the config builds \(2, 10, 8\)"
    with pytest.raises(ValueError, match=r"window has shape \(2, 200, 8\), " + built):
        Trainer.restore(replace(cfg, load_window=10), snap)


@pytest.mark.parametrize("step", [10**6, 21, -5])
def test_restore_rejects_a_step_outside_the_run(step):
    # Accepted, a negative step handed the optimizer a negative t.
    cfg = with_seed(short_config(steps=20, eval_every=10), 1)
    snap = dict(Trainer(cfg).snapshot(), step=np.int64(step))
    with pytest.raises(ValueError, match=rf"snapshot step {step} is outside .*\[0, 20\]"):
        Trainer.restore(cfg, snap)
    for edge in (0, 20):
        assert Trainer.restore(cfg, dict(snap, step=np.int64(edge))).step_index == edge


@pytest.mark.parametrize("cells", [6, 8, 0])
def test_restore_rejects_an_eval_row_of_another_length(cells):
    # Accepted a longer row; a shorter one raised a bare TypeError from EvalRow.
    cfg = with_seed(short_config(steps=20, eval_every=10), 1)
    trainer = Trainer(cfg)
    trainer.run()
    snap = trainer.snapshot()
    rows = json.loads(str(snap["rows"]))
    assert len(rows) == 4 and all(len(row) == 7 for row in rows)
    rows[2] = (rows[2] + ["extra"])[:cells]
    with pytest.raises(ValueError, match=r"snapshot rows: row 2 is .*, not 7 cells"):
        Trainer.restore(cfg, dict(snap, rows=json.dumps(rows)))
    with pytest.raises(ValueError, match=r"snapshot rows: row 0 is 3, not 7 cells"):
        Trainer.restore(cfg, dict(snap, rows=json.dumps([3])))


def test_square_expert_weights_resume_bit_exact(tmp_path, numeric_build):
    # With ffn_dim == dim, w2 is square: a snapshot that mixed up logical and
    # storage layout would still restore, silently transposed.
    cfg = replace(_PIN_BASE, model=ModelConfig(ffn_dim=16))
    full = train(cfg)
    assert full.digest()[:12] == "b2a00ac45b48", numeric_build
    half = Trainer(cfg)
    while half.step_index < 150:
        half.step()
    half.save_snapshot(tmp_path / "snap.npz")
    resumed = Trainer.load_snapshot(cfg, tmp_path / "snap.npz")
    assert resumed.run().digest() == full.digest()


def test_snapshot_rejects_unknown_version():
    cfg = with_seed(short_config(), 1)
    trainer = Trainer(cfg)
    snap = trainer.snapshot()
    snap["version"] = 99
    with pytest.raises(ValueError):
        Trainer.restore(cfg, snap)


def test_load_snapshot_rejects_a_v2_json_file(tmp_path):
    cfg = with_seed(short_config(), 1)
    path = tmp_path / "old_snapshot.json"
    v2 = {"version": 2, "step": 0, "params": [], "optimizer": {"t": 0}, "balancers": [],
          "window": [], "rows": []}
    path.write_text(json.dumps(v2))
    with pytest.raises(ValueError, match="v3") as err:
        Trainer.load_snapshot(cfg, path)
    assert str(path) in str(err.value)
    assert err.value.__suppress_context__  # numpy's "load it unsafely" hint stays out
    assert "unsafe" not in str(err.value)


def test_dense_baseline_learns_domains():
    # Sanity anchor: a dense model (single always-on expert) must crack the
    # domain classification task quickly at low cluster noise.
    cfg = TrainConfig(
        model=ModelConfig(layers=2, experts=1, top_k=1, dim=16, ffn_dim=32),
        balance=BalanceConfig(mechanism="none", phi=None, alpha=0.0),
        corpus=CorpusSpec(n_domains=4, dim=16, cluster_scale=0.3, seed=0),
        steps=500,
        eval_every=100,
    )
    record = train(cfg)
    assert record.terminal()["accuracy"] > 0.9


def test_regression_task_trains():
    cfg = short_config(
        corpus=CorpusSpec(n_domains=4, dim=16, label_rule="linear_teacher", seed=2)
    )
    record = train(with_seed(cfg, 2))
    assert np.isnan(record.terminal()["accuracy"])
    assert record.rows[-1].task_loss < record.rows[0].task_loss


def test_domain_specialization_observable_from_eval_routing():
    from phibal.metrics import routed_token_ratio

    cfg = with_seed(short_config(), 8)
    trainer = Trainer(cfg)
    trainer.run()
    _, _, routings = trainer.evaluate()
    domain_ids = trainer._eval_batch[2]
    ratio = routed_token_ratio(
        routings[0].selections, domain_ids, cfg.model.experts, cfg.corpus.n_domains
    )
    present = ~np.isnan(ratio[:, 0])
    np.testing.assert_allclose(ratio[present].sum(axis=1), 1.0, atol=1e-9)
    assert np.all(ratio[present] >= 0.0)


# -- evaluation ------------------------------------------------------------------------------


def _graph_eval(trainer):
    """`Trainer.evaluate` through the graph forward: logits, task loss,
    accuracy and routings."""
    x, labels, _ = trainer._eval_batch
    logits, routings = trainer.model.forward(x, [b.bias for b in trainer.balancers])
    if trainer.config.corpus.label_rule == "domain_id":
        acc = accuracy(np.argmax(logits.value, axis=1), labels)
    else:
        acc = float("nan")
    return logits.value, float(trainer._task_loss(logits, labels).value), acc, routings


def _assert_same_routings(got, want):
    assert len(got) == len(want)
    for r, w in zip(got, want):
        np.testing.assert_array_equal(r.selections, w.selections)
        np.testing.assert_array_equal(r.counts, w.counts)
        np.testing.assert_array_equal(r.weights.value, w.weights.value)
        np.testing.assert_array_equal(r.p_bar.value, w.p_bar.value)


_TEACHER = CorpusSpec(n_domains=4, dim=16, label_rule="linear_teacher")
_WIDE_EVAL = TrainConfig(
    model=ModelConfig(experts=64, top_k=4, dim=64, ffn_dim=128),
    corpus=CorpusSpec(n_domains=4, dim=64),
    batch_tokens=1024,
    steps=16,
    eval_every=16,
)


@pytest.mark.parametrize(
    "config,steps,workers,split_per_layer",
    [
        (TrainConfig(), 20, None, [(3, False), (3, False)]),
        (_WIDE_EVAL, 0, 0, [(20, False), (19, False)]),
        (_WIDE_EVAL, 0, 1, [(20, True), (19, True)]),
        (TrainConfig(model=ModelConfig(top_k=1)), 20, None, None),
        (TrainConfig(balance=BalanceConfig(mechanism="loss_free")), 20, None, None),
        (TrainConfig(corpus=_TEACHER), 20, None, None),
    ],
    ids=["acceptance", "wide-serial", "wide-split", "top_k=1", "loss_free", "linear_teacher"],
)
def test_forward_only_eval_keeps_the_graph_forwards_bits(
    monkeypatch, config, steps, workers, split_per_layer
):
    # The reference is the graph forward on one thread; the forward-only
    # eval runs on ``workers`` workers, or as many as the machine gives.
    monkeypatch.setattr(autodiff, "_WORKERS", 0)
    split = []  # per layer: expert groups, and whether they were split across threads

    def spy(fn, items, *args):
        split.append((len(items), autodiff._parts(len(items)) >= 2))
        return autodiff._split(fn, items, *args)

    trainer = Trainer(config)
    for _ in range(steps):
        trainer.step()
    if config.balance.mechanism == "loss_free":
        assert all(np.any(b.bias != 0.0) for b in trainer.balancers)
    logits, task_loss, acc, routings = _graph_eval(trainer)
    if workers is None:
        workers = autodiff._worker_count()
    monkeypatch.setattr(autodiff, "_WORKERS", workers)
    monkeypatch.setattr(moe, "_split", spy)
    x, _, _ = trainer._eval_batch
    biases = [b.bias for b in trainer.balancers]
    only, _ = trainer.model.forward(x, biases, forward_only=True)
    np.testing.assert_array_equal(only.value, logits)
    split.clear()
    got_loss, got_acc, got_routings = trainer.evaluate()
    assert got_loss == task_loss
    np.testing.assert_array_equal(got_acc, acc)  # NaN for the linear teacher
    _assert_same_routings(got_routings, routings)
    if split_per_layer is not None:
        assert split == split_per_layer


@pytest.mark.parametrize("mechanism", ["phi", "loss_free"])
def test_evals_between_steps_leave_training_alone(mechanism):
    cfg = short_config(balance=BalanceConfig(mechanism=mechanism))
    plain, probed = Trainer(cfg), Trainer(cfg)
    plain.run()
    while probed.step_index < cfg.steps:
        probed.step()
        first, second = probed.evaluate(), probed.evaluate()
        assert first[:2] == second[:2]
        _assert_same_routings(second[2], first[2])
    assert probed.record.digest() == plain.record.digest()
    for name in ("flat", "m", "v"):
        got, want = getattr(probed.optimizer, name), getattr(plain.optimizer, name)
        np.testing.assert_array_equal(got, want)
    for got, want in zip(probed.balancers, plain.balancers):
        np.testing.assert_array_equal(got.m, want.m)
        np.testing.assert_array_equal(got.bias, want.bias)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_a_repeated_eval_faults_in_no_pages():
    # An eval that freed its activations had the allocator hand the top of
    # the heap back to the OS, and the next eval faulted it in again: about
    # 700 minor faults per eval at the acceptance config. The allocator's
    # trim threshold rises with the blocks a process has freed, so this
    # counts in a fresh interpreter.
    probe = (
        "import resource; from phibal.training import TrainConfig, Trainer; "
        "trainer = Trainer(TrainConfig()); [trainer.step() for _ in range(20)]; "
        "trainer.evaluate(); before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        "trainer.evaluate(); print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    src = str(Path(phibal.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert int(out) <= 50


# -- token budget ----------------------------------------------------------------------------


def test_budget_tokens_per_param_pin():
    budget = compute_token_budget(1.0)
    assert budget.tokens_per_param == pytest.approx(27.2751958224543, abs=1e-10)
    assert abs(budget.tokens_per_param - 27.27) < 0.05


def test_budget_exponents_sum_to_one():
    for c in (1.0, 1e12, 1e18):
        budget = compute_token_budget(c)
        product = budget.compute_per_token * budget.train_tokens / c
        assert 0.999 <= product <= 1.002


def test_budget_large_compute_pin():
    budget = compute_token_budget(1e18)
    assert budget.compute_per_token == pytest.approx(283902213.30545011, rel=1e-12)
    assert budget.train_tokens == pytest.approx(3523194794.2717860, rel=1e-12)


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        compute_token_budget(0.0)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_budget_rejects_non_finite(c):
    with pytest.raises(ValueError, match="finite"):
        compute_token_budget(c)
