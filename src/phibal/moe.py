"""Toy sparse expert layer on the gradient engine.

A layer is a linear router over E experts plus E independent gated
feed-forward experts. Each token activates its top-k experts; their outputs
are combined with weights renormalized over the selected set. Non-selected
experts are never evaluated.

`MoeLayer.route` builds three graph nodes (router logits, mean probabilities
and combination weights) and `MoeLayer.forward` runs all of a layer's experts
and adds the residual input as one more, each with a hand-written backward
pass. As in grouped-GEMM MoE kernels, the experts dispatch tokens by a
single sort and loop per expert only for the matrix products; the
elementwise gate, the weighting and the scatter run once per cache-sized
group of experts, and the groups are split across threads. A group runs one
op sequence, in new arrays in training, which the backward reads, or in
views of reused per-thread scratch arrays in a forward-only pass (the
trainer's eval), which returns the layer's output as a leaf. The tests
hold the node bit for bit to a plain-numpy per-expert reference, and to
itself run on one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .autodiff import (
    Node,
    _add,
    _max,
    _min,
    _mm,
    _pack,
    _row_max,
    _scratch_array,
    _split,
    _weight_grad,
    linear,
    parameter,
)

__all__ = ["RoutingBatch", "MoeLayer"]

# Added to non-selected logits before the renormalizing softmax; large enough
# that their probabilities underflow to exactly zero.
_MASK_VALUE = -1e30
# Logits below this in magnitude, added to the mask, round to within an ulp
# of it, far below every selected logit.
_INSIDE_MASK = 1e13


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by row-max subtraction."""
    e = np.exp(a - _row_max(a))
    return e / _add(e, axis=1, keepdims=True)


def _softmax_rows_vjp(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of the logits of y = softmax_rows(logits) for adjoint g of y."""
    return y * (g - _add(g * y, axis=1, keepdims=True))


def _selected_softmax(lv: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Row softmax of the logits at flat positions ``at``, exactly zero
    elsewhere: the bits of ``_softmax_rows`` of the logits with
    ``_MASK_VALUE`` added off ``at``.

    Where every logit is finite and far inside the mask, each masked entry
    exponentiates to 0.0 and the row max is the selected logits' max, so
    only the selected logits go through exp (one that underflows is several
    times slower); the row sums still run over the full rows, in the same
    order. Other logits take the masked softmax itself.
    """
    if _max(lv, axis=None) < _INSIDE_MASK and _min(lv, axis=None) > -_INSIDE_MASK:
        picked = lv.ravel()[at]
        e = np.zeros(lv.size)
        e[at] = np.exp(picked - _row_max(picked))
        e = e.reshape(lv.shape)
        return e / _add(e, axis=1, keepdims=True)
    mask = np.full(lv.size, _MASK_VALUE)
    mask[at] = 0.0
    return _softmax_rows(lv + mask.reshape(lv.shape))


def _stable_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """(T, k) indices of each row's k largest scores, ascending by index, by
    a stable argsort on the negated scores: equal scores keep ascending
    index, and NaN sorts last."""
    picks = (-scores).argsort(axis=1, kind="stable")[:, :k].copy()
    picks.sort(axis=1)
    return picks


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """`_stable_top_k`'s selections; on wide rows without its full sort.

    A row of at least 8*k scores (the measured crossover) takes k argmax
    passes over a copy, each pick masked to -inf; argmax takes the first
    maximum, the sort's rule of ties to the lower index. A pick that comes
    out NaN or -inf, where argmax and the sort part ways (the row holds a
    NaN, or fewer than k scores above -inf), sends its row to the sort.
    """
    n_rows, width = scores.shape
    if width < 8 * k:
        return _stable_top_k(scores, k)
    work = scores.copy()
    flat = work.ravel()
    offsets = np.arange(0, scores.size, width)
    picks = np.empty((n_rows, k), dtype=np.intp)
    ok = np.ones(n_rows, dtype=bool)
    for j in range(k):
        idx = work.argmax(axis=1)
        at = offsets + idx
        ok &= flat[at] > -np.inf
        flat[at] = -np.inf
        picks[:, j] = idx
    picks.sort(axis=1)
    if not ok.all():
        redo = np.flatnonzero(~ok)
        picks[redo] = _stable_top_k(scores[redo], k)
    return picks


def _sum_slots(pairs: np.ndarray, n_tokens: int) -> np.ndarray:
    """Per token, 0.0 plus its k rows of a (T*k, D) pair array in slot order."""
    terms = pairs.reshape(n_tokens, -1, pairs.shape[1])
    out = 0.0 + terms[:, 0]
    for j in range(1, terms.shape[1]):
        out += terms[:, j]
    return out


@dataclass
class RoutingBatch:
    """Routing decisions for one batch of tokens.

    probs:      (T, E) pre-top-k softmax probabilities (a plain array).
    p_bar:      (E,) column means of probs (a graph node).
    weights:    (T, E) combination weights, exactly zero off the top-k (a node).
    selections: (T, k) chosen expert indices, ascending by index per token.
    counts:     (E,) how many tokens selected each expert.
    """

    probs: np.ndarray
    p_bar: Node
    weights: Node
    selections: np.ndarray
    counts: np.ndarray
    top_k: int

    @property
    def n_tokens(self) -> int:
        return self.selections.shape[0]

    @property
    def f(self) -> np.ndarray:
        """Realized frequencies normalized by k*T (sums to 1)."""
        return self.counts / (self.top_k * self.n_tokens)

    @property
    def f_per_token(self) -> np.ndarray:
        """Realized frequencies normalized by T alone (sums to k)."""
        return self.counts / self.n_tokens


class MoeLayer:
    """Router + E gated feed-forward experts.

    Expert e computes W2 (silu(a) * b) where (a, b) are the halves of
    W1 u; W1 therefore has 2*ffn_dim rows (gate stream and value stream).
    """

    def __init__(
        self,
        n_experts: int,
        top_k: int,
        dim: int,
        ffn_dim: int,
        rng: np.random.Generator,
    ) -> None:
        if n_experts < 1:
            raise ValueError(f"need at least 1 expert, got {n_experts}")
        if not 1 <= top_k <= n_experts:
            raise ValueError(f"top_k={top_k} must lie in [1, {n_experts}]")
        self.n_experts = n_experts
        self.top_k = top_k
        self.dim = dim
        self.ffn_dim = ffn_dim
        self.w_router = parameter(rng.normal(0.0, dim**-0.5, size=(n_experts, dim)))
        self.w1 = [
            parameter(rng.normal(0.0, dim**-0.5, size=(2 * ffn_dim, dim)))
            for _ in range(n_experts)
        ]
        self.w2 = [
            parameter(rng.normal(0.0, ffn_dim**-0.5, size=(dim, ffn_dim)))
            for _ in range(n_experts)
        ]

    def parameters(self) -> list[Node]:
        return [self.w_router, *self.w1, *self.w2]

    # -- routing -------------------------------------------------------------

    def route(self, x: Node, bias: np.ndarray | None = None) -> RoutingBatch:
        """Pick top-k experts per token and build their combination weights.

        The optional bias (loss-free balancing) shifts logits for the top-k
        choice only; probabilities and weights always come from the unbiased
        logits. Each token selects its k largest scores, ties going to the
        lower expert index and NaN ranking last: a stable sort on short rows,
        k argmax passes on rows of at least 8*k experts (`_top_k`). For k=1
        the weight is the pre-top-k probability of the chosen expert, so the
        router still receives a gradient.

        Three graph nodes: the logits, p_bar and the weights, each with a
        hand-written VJP (the softmax VJP, fed g / T for p_bar).
        p_bar is created before the weights, so the logits receive the
        weights' adjoint first.
        """
        logits = linear(x, self.w_router)
        lv = logits.value
        probs = _softmax_rows(lv)
        n_tokens = lv.shape[0]

        selections = _top_k(lv if bias is None else lv + bias, self.top_k)
        counts = np.bincount(selections.ravel(), minlength=self.n_experts)

        p_bar = Node(
            _add(probs, axis=0) / n_tokens,  # np.mean's arithmetic, without its wrapper
            (logits,),
            lambda g: (_softmax_rows_vjp(probs, g / n_tokens),),
            op="p_bar",
        )
        # Flat positions of the selected (token, expert) entries.
        at = np.arange(0, lv.size, self.n_experts)[:, None] + selections
        if self.top_k == 1:
            keep = np.zeros(lv.size)
            keep[at] = 1.0
            keep = keep.reshape(lv.shape)
            wv = probs * keep
            vjp = lambda g: (_softmax_rows_vjp(probs, g * keep),)
        else:
            wv = _selected_softmax(lv, at)
            vjp = lambda g: (_softmax_rows_vjp(wv, g),)
        weights = Node(wv, (logits,), vjp, op="route_weights")

        return RoutingBatch(probs, p_bar, weights, selections, counts, self.top_k)

    # -- experts -------------------------------------------------------------

    def forward(self, x: Node, routing: RoutingBatch, *, forward_only: bool = False) -> Node:
        """x plus the router-weighted sum of the selected experts, as one
        graph node: the layer's residual add is part of it, so x's adjoint
        is the output's adjoint plus what flows back through the experts.

        The (token, expert) pairs are sorted once by expert, so each active
        expert's rows form one token-ascending slab. `autodiff._pack` packs
        consecutive active experts into cache-sized groups of the
        (rows, 2*ffn_dim) activations; a larger expert is a group of its
        own. Only the GEMMs run per expert; the gather, the gate, the
        weighting and the scatter to (token, slot) positions run once per
        group. Each token then sums its k terms from 0.0 in slot order,
        which is ascending expert order, so the sum keeps the bits of a
        dense masked combination; x is added to it last. Parents are x, the
        routing weights and the active experts' w1/w2 only, so experts with
        no tokens receive no gradient; one hand-written backward pass serves
        every parent.

        The groups, forward and backward, are split across the machine's
        cores by `autodiff._split` (one worker thread per usable core but
        the caller's, at most three); the first slice runs on the caller,
        and too few groups for two slices run there as a plain loop. Each
        group writes only its own rows of the scatter buffers, its own
        (token, expert) entries of the weights' adjoint and its own
        experts' gradient arenas; every group does the same arithmetic
        whichever thread runs it, the node is built on the caller and the
        weight gradients are collected in group order, so no bit depends on
        scheduling.

        ``forward_only`` returns the same value as a leaf that no backward
        reaches. The groups run the same ops in their thread's scratch
        arrays and keep nothing, and the scatter buffer is the caller's
        scratch, so a repeated forward of one shape allocates no activations
        (an eval that freed them would have the allocator hand their pages
        back to the OS, and fault them in again on the next eval).
        """
        ffn, k = self.ffn_dim, self.top_k
        xv, wv = x.value, routing.weights.value
        n_tokens, dim = xv.shape
        flat = routing.selections.ravel()
        order = flat.argsort(kind="stable")
        tokens = order // k
        experts = flat[order]
        pair_w = wv[tokens, experts][:, None]
        counts = routing.counts.tolist()
        ends = list(accumulate(counts))
        starts = [end - c for end, c in zip(ends, counts)]
        active = [e for e, c in enumerate(counts) if c]
        groups = _pack(active, starts, ends, 2 * ffn)

        keep = not forward_only
        buf = np.empty((n_tokens * k, dim)) if keep else _scratch_array("buf", (n_tokens * k, dim))
        dispatch = (xv, tokens, order, pair_w, starts, ends)
        # Per group, what its backward reads (None in a forward-only pass).
        saved = _split(self._group_forward, groups, *dispatch, buf, keep)
        out = xv + _sum_slots(buf, n_tokens)
        if forward_only:
            return Node(out)

        parents = (x, routing.weights, *[self.w1[e] for e in active], *[self.w2[e] for e in active])
        need_dx = x.requires_grad

        def vjp(g: np.ndarray) -> tuple:
            dbuf = np.empty((n_tokens * k, dim)) if need_dx else None
            dw = np.zeros(wv.shape)
            per_group = _split(
                self._group_backward, saved, g, xv, tokens, experts, order, pair_w, dw, dbuf
            )
            d_w1 = [d for w1s, _ in per_group for d in w1s]
            d_w2 = [d for _, w2s in per_group for d in w2s]
            # dx is summed back like the forward output, then added to g, the
            # residual's share.
            dx = g + _sum_slots(dbuf, n_tokens) if need_dx else None
            return (dx, dw, *d_w1, *d_w2)

        return Node(out, parents, vjp, op="moe_experts")

    def _group_forward(
        self, group, xv, tokens, order, pair_w, starts, ends, buf, keep
    ) -> tuple | None:
        """One group's experts: writes the group's rows of ``buf`` by one op
        sequence; ``keep`` picks only where its arrays live. With it, each is
        new (h and y, filled an expert at a time, up front; each other one
        allocated by its op, given out=None) and the group returns what its
        backward reads. Without, each is a view of the calling thread's
        scratch array of its name (s, silu and act share "act": each op reads
        it only where it writes) and the group keeps nothing."""
        fresh = (lambda _, shape: np.empty(shape), lambda *_: None)
        new, out = fresh if keep else (_scratch_array, _scratch_array)
        lo, hi = starts[group[0]], ends[group[-1]]
        ffn, n, dim = self.ffn_dim, hi - lo, xv.shape[1]
        # In this order: gathering u first made small forwards about 2 %
        # slower (where the allocator places the arrays; ROADMAP).
        h, y = new("h", (n, 2 * ffn)), new("y", (n, dim))
        # The method skips np.take's Python wrapper; the rows are in range,
        # so "clip" skips "raise"'s buffered copy of u.
        u = xv.take(tokens[lo:hi], axis=0, out=out("u", (n, dim)), mode="clip")
        spans = []
        for e in group:
            sl = slice(starts[e] - lo, ends[e] - lo)
            # C-contiguous like the reference expert's (BLAS rounds a
            # transposed view differently): an optimizer's arena itself.
            w1t = np.ascontiguousarray(self.w1[e].value.T)
            w2t = np.ascontiguousarray(self.w2[e].value.T)
            _mm(u[sl], w1t, h[sl])
            spans.append((sl, e, w1t, w2t))
        a, b = h[:, :ffn], h[:, ffn:]
        s = np.multiply(0.5, a, out=out("act", (n, ffn)))  # s = 0.5 (1 + tanh(0.5 a))
        np.tanh(s, out=s)
        np.add(1.0, s, out=s)
        np.multiply(0.5, s, out=s)
        silu = np.multiply(a, s, out=out("act", (n, ffn)))
        act = np.multiply(silu, b, out=out("act", (n, ffn)))
        for sl, _, _, w2t in spans:
            _mm(act[sl], w2t, y[sl])
        # u is dead once the first GEMMs have run; y is what the backward reads.
        buf[order[lo:hi]] = np.multiply(pair_w[lo:hi], y, out=u)
        return (lo, hi, spans, a, b, s, silu, act, y) if keep else None

    def _group_backward(
        self, saved, g, xv, tokens, experts, order, pair_w, dw, dbuf
    ) -> tuple[list, list]:
        """One group's share of the backward: writes its (token, expert)
        entries of ``dw`` and, unless ``dbuf`` is None, its rows of ``dbuf``;
        returns its w1 and w2 gradients. The matmuls take the forms of the
        tests' plain-numpy expert reference, so the weight gradients keep
        its bits."""
        lo, hi, spans, a, b, s, silu, act, y = saved
        rows = tokens[lo:hi]
        gr = g[rows]
        dw[rows, experts[lo:hi]] = _add(gr * y, axis=1)
        dy = gr * pair_w[lo:hi]
        d_act = np.empty((hi - lo, self.ffn_dim))
        d_w1, d_w2 = [], []
        for sl, e, _, w2t in spans:
            d_w2.append(_weight_grad(self.w2[e], act[sl], dy[sl]))
            _mm(dy[sl], w2t.T, d_act[sl])
        dh = np.empty((hi - lo, 2 * self.ffn_dim))
        # silu'(a) = s (1 + a (1 - s)) = s + silu (1 - s), from the saved silu.
        np.multiply(d_act * b, s + silu * (1.0 - s), out=dh[:, : self.ffn_dim])
        np.multiply(d_act, silu, out=dh[:, self.ffn_dim :])
        u = xv[rows]  # gathered again: kept, it would raise peak memory
        du = None if dbuf is None else np.empty((hi - lo, xv.shape[1]))
        for sl, e, w1t, _ in spans:
            d_w1.append(_weight_grad(self.w1[e], u[sl], dh[sl]))
            if du is not None:
                _mm(dh[sl], w1t.T, du[sl])
        if du is not None:
            dbuf[order[lo:hi]] = du
        return d_w1, d_w2
