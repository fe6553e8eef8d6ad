"""Deterministic multi-domain token generator.

Tokens are Gaussian clusters, one per domain, mixed according to per-batch
mixture weights. Labels are either the domain index (classification) or the
output of a seeded linear teacher (regression). Sampling is a pure function
of (seed, step): the same pair always yields the same batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .schema import check_fields, one_of, within

__all__ = ["CorpusSpec", "sample_batch", "domain_centers"]

LABEL_RULES = ("domain_id", "linear_teacher")

# Stream tags keep center/teacher/batch draws independent under one seed.
_BATCH_STREAM = 0
_CENTER_STREAM = 1
_TEACHER_STREAM = 2


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of the synthetic corpus.

    ``mixture`` gives the expected fraction of each domain per batch.
    ``centers`` may be provided explicitly; by default they are unit-norm
    directions drawn from the spec seed. The center and teacher arrays and
    the mixture's CDF are built on first use and kept by the spec; they are
    not fields, so equality and the serialized config ignore them.
    """

    n_domains: int = field(metadata=within("[2, inf)"))
    dim: int = field(metadata=within("[1, inf)"))
    mixture: tuple[float, ...] | None = None
    cluster_scale: float = field(default=0.5, metadata=within("[0, inf)"))
    label_rule: str = field(default="domain_id", metadata=one_of(LABEL_RULES))
    seed: int = field(default=0, metadata=within("[0, inf)"))
    centers: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        check_fields(self, "corpus")
        if self.mixture is None:
            object.__setattr__(
                self, "mixture", tuple([1.0 / self.n_domains] * self.n_domains)
            )
        w, n = np.asarray(self.mixture), self.n_domains
        if w.shape != (n,):
            raise ValueError(f"mixture must have length {n}, got shape {w.shape}")
        # Negated positive tests: NaN and infinite weights fail them.
        if not (np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= 1e-9):
            raise ValueError(f"mixture must be finite, nonnegative and sum to 1, got {w.tolist()}")
        if self.centers is not None:
            arr = np.asarray(self.centers)
            if arr.shape != (self.n_domains, self.dim):
                raise ValueError(
                    f"centers shape {arr.shape} != ({self.n_domains}, {self.dim})"
                )

    @cached_property
    def _center_array(self) -> np.ndarray:
        if self.centers is not None:
            centers = np.array(self.centers, dtype=np.float64)
        else:
            rng = np.random.default_rng((self.seed, _CENTER_STREAM))
            raw = rng.standard_normal((self.n_domains, self.dim))
            centers = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        centers.flags.writeable = False
        return centers

    @cached_property
    def _cdf(self) -> np.ndarray:
        """The mixture's cumulative sums over their total, as
        `Generator.choice` builds them."""
        cdf = np.asarray(self.mixture, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def _teacher_array(self) -> np.ndarray:
        rng = np.random.default_rng((self.seed, _TEACHER_STREAM))
        teacher = rng.standard_normal(self.dim) / self.dim**0.5
        teacher.flags.writeable = False
        return teacher


def domain_centers(spec: CorpusSpec) -> np.ndarray:
    """Cluster centers: explicit if given, otherwise seeded unit directions.

    Computed once per spec; the array is shared and read-only.
    """
    return spec._center_array


def teacher_weights(spec: CorpusSpec) -> np.ndarray:
    """Seeded linear teacher of the regression labels.

    Computed once per spec; the array is shared and read-only.
    """
    return spec._teacher_array


def sample_batch(
    spec: CorpusSpec, n_tokens: int, step: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one batch; returns (tokens, labels, domain_ids).

    Tokens are center + scale * gaussian noise. Fully determined by
    (spec.seed, step).
    """
    if n_tokens < 1:
        raise ValueError(f"need at least one token, got {n_tokens}")
    rng = np.random.default_rng((spec.seed, _BATCH_STREAM, step))
    # What `rng.choice(n_domains, n_tokens, p=mixture)` draws, bit for bit,
    # without its checks of a mixture the spec has already checked.
    domain_ids = spec._cdf.searchsorted(rng.random(n_tokens), side="right")
    centers = domain_centers(spec)
    x = centers[domain_ids] + spec.cluster_scale * rng.standard_normal(
        (n_tokens, spec.dim)
    )
    if spec.label_rule == "domain_id":
        labels = domain_ids.copy()
    else:
        labels = x @ teacher_weights(spec)
    return x, labels, domain_ids
