"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every operation builds a `Node` holding the forward value (a numpy array),
references to its parent nodes, and one vector-Jacobian closure per parent.
`backward()` replays the graph in reverse topological order and accumulates
adjoints via the chain rule. The engine is deliberately small: first-order
gradients only, float64 only, single-threaded per graph.

Besides arithmetic, sums and `linear`, each op of a training step (the
router, a layer's experts, the losses) is one fused node with a hand-written
VJP, held by the tests to a plain-numpy reference. What must not be
differentiated, such as the balancing prices, enters as a plain array or a
`constant`, which receives no adjoint.
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
]


class ShapeError(ValueError):
    """Operand shapes do not conform for the primitive that raised."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf value was produced while checked mode is enabled."""


_CHECKED = False

# Most float64 elements in one cache-sized block of work: an optimizer chunk
# (its arena, moment and scratch slices) or a group of the expert node's
# slabs then stays in cache while it is worked on.
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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


_UID = itertools.count()


class Node:
    """One value in the computation graph.

    Attributes:
        value: forward result, float64 numpy array (scalars have shape ()).
        grad: adjoint accumulated by backward(), or None before any backward.
        requires_grad: False for constants and nodes built only from them.

    Nodes carry a creation counter; backward replays reachable nodes in
    descending creation order, which is a valid reverse topological order
    because parents always exist before their children. Using creation order
    (rather than a traversal-dependent sort) keeps gradient accumulation
    order, and therefore bit patterns, independent of unrelated graph parts.
    """

    __slots__ = ("value", "grad", "op", "requires_grad", "uid", "_parents", "_vjps")

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

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> Node:
        other = _wrap(other)
        out = self.value + other.value
        return Node(
            out,
            (self, other),
            (
                lambda g, s=self.shape: _unbroadcast(g, s),
                lambda g, s=other.shape: _unbroadcast(g, s),
            ),
            op="add",
        )

    __radd__ = __add__

    def __sub__(self, other) -> Node:
        other = _wrap(other)
        out = self.value - other.value
        return Node(
            out,
            (self, other),
            (
                lambda g, s=self.shape: _unbroadcast(g, s),
                lambda g, s=other.shape: _unbroadcast(-g, s),
            ),
            op="sub",
        )

    def __rsub__(self, other) -> Node:
        return _wrap(other) - self

    def __mul__(self, other) -> Node:
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        other = _wrap(other)
        out = self.value * other.value
        return Node(
            out,
            (self, other),
            (
                lambda g, o=other.value, s=self.shape: _unbroadcast(g * o, s),
                lambda g, o=self.value, s=other.shape: _unbroadcast(g * o, s),
            ),
            op="mul",
        )

    __rmul__ = __mul__

    def __neg__(self) -> Node:
        return self.scale(-1.0)

    def scale(self, c: float) -> Node:
        """Multiply by a python scalar (the scalar is never differentiated)."""
        return Node(self.value * c, (self,), (lambda g: g * c,), op="scalar_mul")

    # -- reductions ----------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> Node:
        out = self.value.sum(axis=axis, keepdims=keepdims)

        def vjp(g, shape=self.shape):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape).copy()

        return Node(out, (self,), (vjp,), op="sum")

    def mean(self, axis: int | None = None, keepdims: bool = False) -> Node:
        n = self.value.size if axis is None else self.value.shape[axis]
        out = self.value.mean(axis=axis, keepdims=keepdims)

        def vjp(g, shape=self.shape, n=n):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g / n, shape).copy()

        return Node(out, (self,), (vjp,), op="mean")

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate adjoints into `.grad` for every reachable grad node.

        The root must be a scalar; traversal is in descending creation order
        over the reachable subgraph. A parent's first contribution is copied
        in (a VJP may return the child's own adjoint), later ones are added.
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
                if parent.grad is None:
                    parent.grad = np.array(contrib, dtype=np.float64)
                else:
                    parent.grad += contrib


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


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else Node(x, requires_grad=False, op="const")


# -- constructors -------------------------------------------------------------


def constant(data) -> Node:
    """A node that never receives gradients."""
    return Node(data, requires_grad=False, op="const")


def parameter(data) -> Node:
    """A trainable leaf."""
    return Node(data, requires_grad=True, op="param")


# -- non-method primitives -----------------------------------------------------


def linear(x: Node, w: Node) -> Node:
    """x @ w.T as one node, for a (n, d) input and a (m, d) weight.

    The forward multiplies by a contiguous copy of w.T, as the tests'
    plain-numpy references do: BLAS rounds a transposed view differently.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: {x.shape} @ {w.shape}.T")
    wt = np.ascontiguousarray(w.value.T)
    xv = x.value
    return Node(
        xv @ wt,
        (x, w),
        (lambda g: g @ wt.T, lambda g: (xv.T @ g).T),
        op="linear",
    )
