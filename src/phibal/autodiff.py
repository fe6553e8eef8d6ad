"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every operation builds a `Node` holding the forward value (a numpy array),
references to its parent nodes, and one vector-Jacobian closure that returns
all their adjoints. `backward()` replays the graph in reverse topological
order and accumulates adjoints via the chain rule. The engine is deliberately
small: first-order gradients only, float64 only. Graphs are built and walked
on one thread; only `_split` hands disjoint slabs of one node's work (or
of an optimizer step) to the threads of a `concurrent.futures` pool, which
loads only on the first split into two or more slices. The rules of that
split live here alone: `_pack` cuts the work into cache-sized runs, `_split`
runs them and `_scratch_array` gives each thread its own reusable work arrays.

There is no generic arithmetic. Besides `linear` and `weighted_sum`, the
one reduction (<x, c> with c constant), each op of a training step (the
router, a layer's experts with its residual, the losses) is one fused node
with a hand-written VJP, held by the tests to a plain-numpy reference. What
must not be differentiated, such as the balancing prices, enters as a plain
array or a `constant`, which receives no adjoint.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from typing import Callable

import numpy as np

__all__ = [
    "Node",
    "ShapeError",
    "constant",
    "parameter",
    "linear",
    "weighted_sum",
]


class ShapeError(ValueError):
    """Operand shapes do not conform for the primitive that raised."""


# Most float64 elements in one cache-sized block of work: an optimizer chunk
# (its arena, gradient and moment slices and two temporaries) or a group of
# the expert node's slabs then stays in cache while it is worked on.
_CHUNK = 1 << 15


def _pack(items, starts, ends, width: int = 1) -> list[list]:
    """``items`` in order, packed greedily into runs of consecutive items:
    item i spans rows ``starts[i]:ends[i]`` of ``width`` elements, and a run
    spans from its first item's start to its last item's end, at most
    `_CHUNK` elements; a larger item is a run of its own."""
    runs: list[list] = []
    for i in items:
        if runs and (ends[i] - starts[runs[-1][0]]) * width <= _CHUNK:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


# Each thread's grow-only work arrays, by name.
_scratch = threading.local()


def _scratch_array(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous view of the calling thread's scratch array ``name``,
    grown (never shrunk) to hold ``shape``; its contents are left over."""
    size = math.prod(shape)
    have = getattr(_scratch, name, None)
    if have is None or have.size < size:
        have = np.empty(size)
        setattr(_scratch, name, have)
    return have[:size].reshape(shape)


def _read_words(path: str) -> list[str]:
    try:
        with open(path) as fh:
            return fh.read().split()
    except OSError:
        return []


def _cpu_quota() -> float:
    """Cores' worth of CPU time that the tightest cgroup quota (v2
    ``cpu.max`` or v1 ``cpu.cfs_quota_us``) on this process's cgroup or an
    ancestor grants it; infinite without one, or where there are no cgroups."""
    quota = math.inf
    for entry in _read_words("/proc/self/cgroup"):  # "id:controllers:path"
        _, controllers, path = (entry.split(":", 2) + ["", ""])[:3]
        if controllers == "":
            files = ("/sys/fs/cgroup{}/cpu.max",)
        elif "cpu" in controllers.split(","):
            v1 = "/sys/fs/cgroup/cpu{}/cpu.cfs_"
            files = (v1 + "quota_us", v1 + "period_us")
        else:
            continue
        path = path.rstrip("/")
        while True:
            limit = [word for f in files for word in _read_words(f.format(path))]
            try:
                cores = float(limit[0]) / float(limit[1])
            except (IndexError, ValueError):  # no such file, or "max"
                cores = math.inf
            if cores > 0:  # v1 writes -1 for no quota
                quota = min(quota, cores)
            if not path:
                break
            path = path.rpartition("/")[0]
    return quota


# At most this many workers: the benchmark measured one beside the caller,
# and each keeps its own BLAS buffer and allocator arena.
_MAX_WORKERS = 3


def _worker_count() -> int:
    """Worker threads `_split` may use besides the caller: one per core this
    process may use but the caller's own, where its affinity mask (where the
    OS has one) and a CPU quota, rounded down, both count; at most
    `_MAX_WORKERS`."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(_MAX_WORKERS, max(1, int(min(cores or 1, _cpu_quota()))) - 1)


_WORKERS: int | None = None  # `_worker_count()`, worked out on the first split
# Fewest items a slice gets. Handing a worker one cache-sized item costs
# more than it saves: the two-group expert node of a 512-token eval at the
# acceptance shape ran slower split than on one thread.
_MIN_SLICE = 2
_pool = None  # the `ThreadPoolExecutor` that runs the workers' slices
_pool_threads = 0  # its ``max_workers``
_busy = threading.Lock()  # held by the one caller the pool serves


def _forget_pool() -> None:
    """In a forked child the pool's threads do not exist: start afresh."""
    global _pool, _pool_threads, _busy
    _pool, _pool_threads, _busy = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):  # there is no fork where it is missing
    os.register_at_fork(after_in_child=_forget_pool)


def _parts(n_items: int) -> int:
    """Into how many slices `_split` cuts ``n_items`` items; below two, it
    runs them as a plain loop on the caller."""
    global _WORKERS
    parts = n_items // _MIN_SLICE
    if parts < 2:
        return parts
    if _WORKERS is None:
        _WORKERS = _worker_count()
    return min(_WORKERS + 1, parts)


def _run_slice(fn: Callable, items: list, args: tuple, err: dict) -> list:
    with np.errstate(**err):
        return [fn(item, *args) for item in items]


def _split(fn: Callable, items: list, *args) -> list:
    """``[fn(item, *args) for item in items]``, the items split across threads.

    The first of `_parts` contiguous slices runs on the calling thread, each
    other on a thread of a `concurrent.futures.ThreadPoolExecutor`, loaded
    and started on the first call with two or more slices, under the
    caller's `np.geterr()`. Results come back in item order, and a worker's
    exception is raised here once every slice has finished. Whatever
    exception leaves the call, an interrupt included, it leaves only after
    every worker has finished its slice. With fewer than two parts, or the
    pool serving another call (a call from another thread, or from inside
    a slice), it is the plain loop. Each ``fn`` call must write only memory
    no item on another thread touches (its own rows of a shared output, or
    its thread's own scratch) and build no `Node`, so the result cannot
    depend on scheduling.
    """
    global _pool, _pool_threads
    parts = _parts(len(items))
    if parts < 2 or not _busy.acquire(blocking=False):
        return [fn(item, *args) for item in items]
    try:
        if _pool_threads < parts - 1:  # a thread for each slice but the caller's
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None:
                _pool.shutdown()
            _pool, _pool_threads = ThreadPoolExecutor(parts - 1), parts - 1
        bounds = [len(items) * i // parts for i in range(parts + 1)]
        err, futures = np.geterr(), []
        try:
            for lo, hi in zip(bounds[1:], bounds[2:]):
                futures.append(_pool.submit(_run_slice, fn, items[lo:hi], args, err))
            results = [fn(item, *args) for item in items[: bounds[1]]]
            for future in futures:
                future.exception()  # waits for it; raised below
        except BaseException:
            # A slice left running would write into this call's arrays after
            # it has returned, and so race with the caller's next call: wait
            # for every one, through any further exception (an interrupt,
            # say), and raise the first.
            while True:
                try:
                    for future in futures:
                        future.exception()
                    break
                except BaseException:
                    pass
            raise
    finally:
        _busy.release()
    for future in futures:
        results.extend(future.result())
    return results


_UID = itertools.count()
_F64 = np.dtype(np.float64)

# The ufuncs' own reductions: the arithmetic of `a.max(axis=1)`,
# `a.sum(axis=1)` and the like without their Python wrappers.
_max, _min, _add = np.maximum.reduce, np.minimum.reduce, np.add.reduce

# Largest output `_mm` computes by `ndarray.dot` (the measured crossover):
# dot makes the same BLAS call as matmul without the gufunc's setup, which
# outweighs a tiny GEMM's arithmetic, but it runs slower on larger outputs.
_DOT_MAX = 4096
# Widest rows `_row_max` reduces from a transposed copy: on narrow rows the
# column-wise reduce beats the per-row one, on wide ones the copy costs more.
_NARROW = 16


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b, out=out)``, with its bits, for 2-D float64 operands:
    by `ndarray.dot` where ``out`` is C-contiguous (as dot requires) and
    holds at most `_DOT_MAX` elements."""
    if out.size <= _DOT_MAX and out.flags.c_contiguous:
        return a.dot(b, out=out)
    return np.matmul(a, b, out=out)


def _row_max(a: np.ndarray) -> np.ndarray:
    """Each row's maximum of a 2-D array, as an (n, 1) column: the values of
    ``_max(a, axis=1, keepdims=True)``. Rows of at most `_NARROW` columns
    reduce a transposed copy down its columns instead. The two reduces meet
    the elements in another order, so a row whose maximum is a zero or a NaN
    may get it with the other sign. A caller that only exponentiates the
    rows shifted by their maximum, as the softmaxes do, gets the same bits
    from either, but for the sign of a NaN."""
    if a.shape[1] <= _NARROW:
        return _max(a.T.copy(), axis=0)[:, None]
    return _max(a, axis=1, keepdims=True)


class Node:
    """One value in the computation graph.

    Attributes:
        value: forward result, float64 numpy array (scalars have shape ()).
        grad: adjoint accumulated by backward(), or None before any backward.
        out: where backward writes a leaf's first adjoint, if an optimizer set it.
        requires_grad: False for constants and nodes built only from them.

    ``vjp(g)`` maps the node's adjoint g to its parents' adjoints, a tuple in
    parent order; the entry of a parent that needs no gradient may be None.
    A C-contiguous float64 ndarray value is kept as given; any other becomes one.

    Nodes carry a creation counter; backward replays reachable nodes in
    descending creation order, which is a valid reverse topological order
    because parents always exist before their children. Using creation order
    (rather than a traversal-dependent sort) keeps gradient accumulation
    order, and therefore bit patterns, independent of unrelated graph parts.
    """

    __slots__ = ("value", "grad", "out", "op", "requires_grad", "uid", "_parents", "_vjp")

    def __init__(
        self,
        value,
        parents: tuple[Node, ...] = (),
        vjp: Callable[[np.ndarray], tuple] | None = None,
        requires_grad: bool | None = None,
        op: str = "leaf",
    ) -> None:
        if type(value) is not np.ndarray or value.dtype is not _F64 or not value.flags.c_contiguous:
            value = np.asarray(value, dtype=np.float64, order="C")
        self.value = value
        self.grad: np.ndarray | None = None
        self.out: np.ndarray | None = None
        self.op = op
        self.uid = next(_UID)
        # A parent that cannot receive gradients is kept as None, so backward
        # never walks into dead subgraphs; with none left, no parent is kept.
        kept, live = [], False
        for p in parents:
            kept.append(p if p.requires_grad else None)
            live = live or p.requires_grad
        self._parents = kept if live else ()
        self._vjp = vjp
        if requires_grad is None:
            requires_grad = live
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def __repr__(self) -> str:
        return f"Node(op={self.op}, shape={self.shape})"

    def backward(self) -> None:
        """Accumulate adjoints into `.grad` for every reachable grad node.

        The root must be a scalar; traversal is in descending creation order
        over the reachable subgraph. A parent's first contribution is copied
        in, to its `out` if set (a VJP may return the child's own adjoint, or
        the `out` it wrote itself), later ones are added.
        """
        if self.value.size != 1:
            raise ShapeError(
                f"backward: root must be a scalar node, got shape {self.shape}"
            )
        order = _reachable(self)
        order.sort(key=lambda n: n.uid, reverse=True)
        self.grad = np.ones(self.value.shape)
        for node in order:
            g = node.grad
            if g is None:
                continue
            for parent, contrib in zip(node._parents, node._vjp(g)):
                if parent is None:
                    continue
                if parent.grad is not None:
                    parent.grad += contrib
                elif parent.out is None:
                    parent.grad = np.array(contrib, dtype=np.float64)
                else:
                    if contrib is not parent.out:
                        parent.out[...] = contrib
                    parent.grad = parent.out


def _reachable(root: Node) -> list[Node]:
    """The nodes with parents that backward reaches from ``root``. Leaves
    pass no adjoint on, so they are left out; their parents' VJPs still
    hand them theirs."""
    if not root._parents:
        return []
    seen: set[int] = {id(root)}
    out = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent is not None and parent._parents and id(parent) not in seen:
                seen.add(id(parent))
                out.append(parent)
                stack.append(parent)
    return out


# -- constructors -------------------------------------------------------------


def constant(data) -> Node:
    """A node that never receives gradients."""
    return Node(data, requires_grad=False, op="const")


def parameter(data) -> Node:
    """A trainable leaf."""
    return Node(data, requires_grad=True, op="param")


# -- primitives ---------------------------------------------------------------


def _weight_grad(w: Node, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(u.T @ d).T, written into w.out when w has one and no gradient yet."""
    if w.out is None or w.grad is not None:
        return (u.T @ d).T
    _mm(u.T, d, w.out.T)
    return w.out


def linear(x: Node, w: Node) -> Node:
    """x @ w.T as one node, for a (n, d) input and a (m, d) weight.

    The forward multiplies by a C-contiguous w.T, as the tests' plain-numpy
    references do (BLAS rounds a transposed view differently): the arena
    itself for a weight in an optimizer, a copy of any other weight. The
    weight's adjoint is written into its `out`, as the expert node's are.
    Each adjoint is computed only when its parent needs one.
    """
    xv, wv = x.value, w.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1]:
        raise ShapeError(f"linear: {xv.shape} @ {wv.shape}.T")
    wt = np.ascontiguousarray(wv.T)
    need_dx, need_dw = x.requires_grad, w.requires_grad

    def vjp(g: np.ndarray) -> tuple:
        dx = _mm(g, wt.T, np.empty(xv.shape)) if need_dx else None
        return (dx, _weight_grad(w, xv, g) if need_dw else None)

    return Node(_mm(xv, wt, np.empty((xv.shape[0], wt.shape[1]))), (x, w), vjp, op="linear")


def weighted_sum(x: Node, c: np.ndarray) -> Node:
    """<x, c> with c held constant, as one scalar node; x's adjoint is g * c."""
    return Node(_add(x.value * c, axis=None), (x,), lambda g: (g * c,), op="weighted_sum")
