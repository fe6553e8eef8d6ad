import math
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from phibal import autodiff
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
    return Node(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def total(y: Node) -> Node:
    """The sum of y's entries; y's adjoint is the root's, broadcast."""
    return Node(y.value.sum(), (y,), lambda g: (np.broadcast_to(g, y.shape).copy(),))


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
        first = Node(0.0, (leaf,), lambda g: (c1,))
        second = Node(0.0, (leaf,), lambda g: (c2,))  # backward reaches it first
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


def test_node_keeps_a_float64_c_array_and_converts_anything_else():
    a = np.arange(6.0).reshape(2, 3)
    assert Node(a).value is a

    class Sub(np.ndarray):
        pass

    for data in ([[1, 2], [3, 4]], 3, np.arange(4, dtype=np.float32), a[:, ::2], a.view(Sub)):
        value = Node(data).value
        assert type(value) is np.ndarray and value is not data
        assert value.dtype == np.float64 and value.flags.c_contiguous
        np.testing.assert_array_equal(value, np.asarray(data))
    set_checked(True)
    try:
        with pytest.raises(NonFiniteError):
            Node(np.array([1.0, np.nan]))
    finally:
        set_checked(False)


# -- splitting work across threads ---------------------------------------------------


def _in_thread(call, timeout=30.0):
    """Run call() on a daemon thread; return its result or exception, failing
    the test if it has not returned within the timeout."""
    box = []

    def target():
        try:
            box.append(call())
        except BaseException as exc:
            box.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "the call hung"
    return box[0]


@pytest.mark.parametrize("workers", [0, 1, 5])
def test_split_keeps_item_order_and_writes_disjoint_slots(monkeypatch, workers):
    # More workers than cores, switched often: every item's write must land
    # and every result come back in its place.
    monkeypatch.setattr(autodiff, "_WORKERS", workers)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (0, 1, 2, 7, 40):
            slots = np.zeros(n)

            def work(i, scale):
                slots[i] += scale * (i + 1)
                return i

            results = _in_thread(lambda: autodiff._split(work, list(range(n)), 2.0))
            assert results == list(range(n))
            np.testing.assert_array_equal(slots, 2.0 * np.arange(1, n + 1))
    finally:
        sys.setswitchinterval(switch)


def test_split_raises_a_workers_exception_in_the_caller(monkeypatch):
    monkeypatch.setattr(autodiff, "_WORKERS", 1)
    done = []

    def work(i):
        if i == 3:  # in the worker's slice
            raise KeyError(f"item {i}")
        done.append(i)
        return i

    err = _in_thread(lambda: autodiff._split(work, [0, 1, 2, 3]))
    assert isinstance(err, KeyError) and "item 3" in str(err)
    assert sorted(done) == [0, 1, 2]  # every other item ran before it was raised
    # The worker survives its task's exception.
    assert _in_thread(lambda: autodiff._split(abs, [-1, -2, -3])) == [1, 2, 3]


def test_split_inside_a_slice_runs_as_a_plain_loop(monkeypatch):
    # The workers are busy with the outer call, so the inner one must not
    # wait for them.
    monkeypatch.setattr(autodiff, "_WORKERS", 1)

    def inner(i):
        return autodiff._split(abs, [-i] * 4)

    nested = _in_thread(lambda: autodiff._split(inner, [1, 2, 3, 4]))
    assert nested == [[i] * 4 for i in (1, 2, 3, 4)]


def test_split_runs_tasks_under_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(autodiff, "_WORKERS", 1)
    big = np.array([1e300])

    def square(i):
        return (big * big)[0] if i else 0.0

    def split_under(over):  # only the last item, in the worker's slice, overflows
        with np.errstate(over=over):
            return autodiff._split(square, [0, 0, 0, 1])

    assert isinstance(_in_thread(lambda: split_under("raise")), FloatingPointError)
    assert _in_thread(lambda: split_under("ignore")) == [0.0, 0.0, 0.0, np.inf]


def test_split_workers_keep_nothing_of_a_finished_call(monkeypatch):
    # A worker waiting for its next task must not hold the last call's
    # arguments or results: on the wide shape that kept the expert
    # activations alive and raised peak memory by 23 MB.
    monkeypatch.setattr(autodiff, "_WORKERS", 1)
    arena = np.zeros(8)
    ref = weakref.ref(arena)

    def work(i, out):
        out[i] = i
        return out[i : i + 1]  # a view: the result holds the arena too

    assert _in_thread(lambda: len(autodiff._split(work, list(range(8)), arena))) == 8
    del arena
    for _ in range(200):  # the worker lets go just after handing back its result
        if ref() is None:
            break
        time.sleep(0.005)
    assert ref() is None


class _Interrupt(BaseException):
    """Stands for KeyboardInterrupt, which pytest itself would act on."""


def _slow_worker_slice(written):
    """Items 0 and 1 run on the caller, 2 and 3 (slowly) on the worker."""

    def work(i):
        if i >= 2:
            time.sleep(0.2)
        written[i] = i + 1
        return i

    return work


def _assert_workers_in_step():
    # The next call gets its own results, not a leftover of the last one.
    for _ in range(3):
        assert autodiff._split(lambda i: -i, [0, 1, 2, 3, 4]) == [0, -1, -2, -3, -4]
    assert all(w.outbox.empty() for w in autodiff._workers)


@pytest.mark.skipif(
    not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread(),
    reason="needs SIGALRM on the main thread",
)
def test_split_interrupted_while_waiting_returns_only_after_every_slice(monkeypatch):
    # A signal handler's exception (Ctrl-C, a timeout) lands while the caller
    # waits for the worker, and twice more while it waits for the worker to
    # finish. The first is raised, only once the worker's slice has written
    # everything, and the workers stay in step for the next call.
    monkeypatch.setattr(autodiff, "_WORKERS", 1)
    written = np.zeros(4)
    fired = []

    def interrupt(signum, frame):
        fired.append(time.perf_counter())
        if len(fired) == 3:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        raise _Interrupt(len(fired))

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
        with pytest.raises(_Interrupt) as caught:
            autodiff._split(_slow_worker_slice(written), [0, 1, 2, 3])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert caught.value.args == (1,) and len(fired) == 3
    np.testing.assert_array_equal(written, [1, 2, 3, 4])
    _assert_workers_in_step()


def test_split_raising_in_the_callers_slice_waits_for_the_workers(monkeypatch):
    monkeypatch.setattr(autodiff, "_WORKERS", 1)
    written = np.zeros(4)
    work = _slow_worker_slice(written)

    def failing(i):
        if i == 1:
            raise _Interrupt
        return work(i)

    assert isinstance(_in_thread(lambda: autodiff._split(failing, [0, 1, 2, 3])), _Interrupt)
    np.testing.assert_array_equal(written, [1, 0, 3, 4])
    _in_thread(_assert_workers_in_step)


def test_cpu_quota_is_the_tightest_cgroup_limit(monkeypatch):
    files = {}
    monkeypatch.setattr(autodiff, "_read_words", lambda path: files.get(path, "").split())
    assert autodiff._cpu_quota() == math.inf  # no cgroups at all
    files.update({
        "/proc/self/cgroup": "0::/a/b\n",
        "/sys/fs/cgroup/a/b/cpu.max": "max 100000\n",
        "/sys/fs/cgroup/a/cpu.max": "150000 100000\n",
        "/sys/fs/cgroup/cpu.max": "400000 100000\n",
    })
    assert autodiff._cpu_quota() == 1.5  # on an ancestor
    files.clear()
    files.update({
        "/proc/self/cgroup": "4:memory:/x\n3:cpu,cpuacct:/job\n0::/\n",
        "/sys/fs/cgroup/cpu/job/cpu.cfs_quota_us": "-1\n",
        "/sys/fs/cgroup/cpu/job/cpu.cfs_period_us": "100000\n",
        "/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "250000\n",
        "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000\n",
    })
    assert autodiff._cpu_quota() == 2.5  # cgroup v1
    assert 0 <= autodiff._worker_count() <= autodiff._MAX_WORKERS
