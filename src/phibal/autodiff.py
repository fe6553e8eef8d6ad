"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every operation builds a `Node` holding the forward value (a numpy array),
references to its parent nodes, and one vector-Jacobian closure per parent.
`backward()` replays the graph in reverse topological order and accumulates
adjoints via the chain rule. The engine is deliberately small: first-order
gradients only, float64 only, single-threaded per graph.

There is no generic arithmetic. Besides `linear` and `weighted_sum`, the
one reduction (<x, c> with c constant), each op of a training step (the
router, a layer's experts with its residual, the losses) is one fused node
with a hand-written VJP, held by the tests to a plain-numpy reference. What
must not be differentiated, such as the balancing prices, enters as a plain
array or a `constant`, which receives no adjoint.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

__all__ = [
    "Node",
    "ShapeError",
    "NonFiniteError",
    "set_checked",
    "is_checked",
    "constant",
    "parameter",
    "linear",
    "weighted_sum",
]


class ShapeError(ValueError):
    """Operand shapes do not conform for the primitive that raised."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf value was produced while checked mode is enabled."""


_CHECKED = False

# Most float64 elements in one cache-sized block of work: an optimizer chunk
# (its arena, gradient and moment slices and two temporaries) or a group of
# the expert node's slabs then stays in cache while it is worked on.
_CHUNK = 1 << 15


def set_checked(enabled: bool) -> None:
    """Toggle NaN/Inf guards on node construction and every primitive output."""
    global _CHECKED
    _CHECKED = bool(enabled)


def is_checked() -> bool:
    return _CHECKED


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


def _guard(value: np.ndarray, op: str) -> None:
    if _CHECKED and not np.all(np.isfinite(value)):
        raise NonFiniteError(f"{op} produced a non-finite value")


_UID = itertools.count()


class Node:
    """One value in the computation graph.

    Attributes:
        value: forward result, float64 numpy array (scalars have shape ()).
        grad: adjoint accumulated by backward(), or None before any backward.
        out: where backward writes a leaf's first adjoint, if an optimizer set it.
        requires_grad: False for constants and nodes built only from them.

    Nodes carry a creation counter; backward replays reachable nodes in
    descending creation order, which is a valid reverse topological order
    because parents always exist before their children. Using creation order
    (rather than a traversal-dependent sort) keeps gradient accumulation
    order, and therefore bit patterns, independent of unrelated graph parts.
    """

    __slots__ = ("value", "grad", "out", "op", "requires_grad", "uid", "_parents", "_vjps")

    def __init__(
        self,
        value,
        parents: tuple[Node, ...] = (),
        vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] = (),
        requires_grad: bool | None = None,
        op: str = "leaf",
    ) -> None:
        self.value = _as_array(value)
        _guard(self.value, op)
        self.grad: np.ndarray | None = None
        self.out: np.ndarray | None = None
        self.op = op
        self.uid = next(_UID)
        # Parents that cannot receive gradients are dropped so backward never
        # walks into dead subgraphs.
        kept = tuple(
            (p, vjp) for p, vjp in zip(parents, vjps) if p.requires_grad
        ) if parents else ()
        self._parents = tuple(p for p, _ in kept)
        self._vjps = tuple(v for _, v in kept)
        if requires_grad is None:
            requires_grad = bool(self._parents)
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
        self.grad = np.ones_like(self.value)
        for node in order:
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                contrib = vjp(g)
                if parent.grad is not None:
                    parent.grad += contrib
                elif parent.out is None:
                    parent.grad = np.array(contrib, dtype=np.float64)
                else:
                    if contrib is not parent.out:
                        parent.out[...] = contrib
                    parent.grad = parent.out


def _reachable(root: Node) -> list[Node]:
    seen: set[int] = {id(root)}
    out = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
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
    np.matmul(u.T, d, out=w.out.T)
    return w.out


def linear(x: Node, w: Node) -> Node:
    """x @ w.T as one node, for a (n, d) input and a (m, d) weight.

    The forward multiplies by a C-contiguous w.T, as the tests' plain-numpy
    references do (BLAS rounds a transposed view differently): the arena
    itself for a weight in an optimizer, a copy of any other weight. The
    weight's adjoint is written into its `out`, as the expert node's are.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: {x.shape} @ {w.shape}.T")
    wt = np.ascontiguousarray(w.value.T)
    xv = x.value
    return Node(
        xv @ wt,
        (x, w),
        (lambda g: g @ wt.T, lambda g: _weight_grad(w, xv, g)),
        op="linear",
    )


def weighted_sum(x: Node, c: np.ndarray) -> Node:
    """<x, c> with c held constant, as one scalar node; x's adjoint is g * c."""
    return Node((x.value * c).sum(), (x,), (lambda g: g * c,), op="weighted_sum")
