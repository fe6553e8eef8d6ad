"""Expert-balance and task-quality metrics."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["max_vio", "gini", "routed_token_ratio", "accuracy"]


def _check_loads(loads) -> np.ndarray:
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 1:
        raise ValueError(f"loads must be a vector, got shape {loads.shape}")
    if not np.all(np.isfinite(loads)):
        raise ValueError(f"loads must be finite, got {loads}")
    if np.any(loads < 0.0):
        raise ValueError("loads must be nonnegative")
    if float(loads.sum()) <= 0.0:
        raise ValueError("loads are all zero; no tokens were routed")
    return loads


def max_vio(loads) -> float:
    """(max load - mean load) / mean load; zero iff perfectly balanced."""
    loads = _check_loads(loads)
    # fsum keeps the metric bit-identical under expert permutations.
    mean = math.fsum(loads.tolist()) / loads.size
    return (float(loads.max()) - mean) / mean


def gini(loads) -> float:
    """Mean absolute pairwise difference over twice the mean, in [0, 1).

    sum_ij |x_i - x_j| / (2 E^2 mu). Zero for uniform loads, approaching
    1 - 1/E when one expert takes everything.
    """
    loads = _check_loads(loads)
    n = loads.size
    diffs = math.fsum(np.abs(loads[:, None] - loads[None, :]).ravel().tolist())
    mean = math.fsum(loads.tolist()) / n
    return diffs / (2.0 * n * n * mean)


def routed_token_ratio(
    selections, domain_ids, n_experts: int, n_domains: int
) -> np.ndarray:
    """Per-domain expert assignment frequencies, one simplex row per domain.

    ``selections`` is (T,) or (T, k); with k > 1 every selected expert counts
    once and rows are normalized by k * |domain| so they still sum to 1.
    Domains with no tokens get a row of NaN (absent, not zero).
    """
    sel = np.asarray(selections)
    if sel.ndim == 1:
        sel = sel[:, None]
    domain_ids = np.asarray(domain_ids)
    if sel.shape[0] != domain_ids.shape[0]:
        raise ValueError(
            f"{sel.shape[0]} selection rows vs {domain_ids.shape[0]} domain ids"
        )
    for name, ids, bound in (("selection", sel, n_experts), ("domain id", domain_ids, n_domains)):
        bad = ids[(ids < 0) | (ids >= bound)]
        if bad.size:
            raise ValueError(f"{name} {bad.flat[0]} outside [0, {bound})")
    k = sel.shape[1]
    ratio = np.full((n_domains, n_experts), np.nan)
    for d in range(n_domains):
        rows = domain_ids == d
        n_tok = int(rows.sum())
        if n_tok == 0:
            continue
        counts = np.bincount(sel[rows].ravel(), minlength=n_experts)
        ratio[d] = counts / (k * n_tok)
    return ratio


def accuracy(predictions, labels) -> float:
    """Fraction of predictions equal to their labels."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"{predictions.shape} predictions vs {labels.shape} labels")
    if predictions.size == 0:
        raise ValueError("accuracy of an empty batch is undefined")
    return float(np.mean(predictions == labels))
