"""Catalog of strictly convex, symmetric balance potentials.

A potential maps an expert-usage vector to a scalar whose unique simplex
minimizer is the uniform distribution. Each family exposes four maps:

    value(spec, m)          the potential itself
    link(spec, m)           its gradient, read as a per-expert congestion price
    conjugate_value(spec, q) the convex conjugate sup_m <m,q> - value(m)
    inverse_link(spec, q)   the conjugate's gradient, inverting link

Every conjugate is in closed form. For the separable Tsallis family the
inverse link solves link(m) = q coordinatewise; for the coordinate-coupled
Renyi family it solves a scalar fixed point. Both conjugates are then the
Fenchel-Young value <m, q> - value(m) at that maximizer m (Blondel, Martins
& Niculae, "Learning with Fenchel-Young losses").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "PotentialSpec",
    "FAMILIES",
    "default_catalog",
    "value",
    "link",
    "conjugate_value",
    "inverse_link",
]

# Family -> the parameters its spec takes, in token order.
_PARAMS = {
    "euclidean": (),
    "lp": ("p",),
    "soft_l1": ("delta",),
    "neg_shannon": (),
    "tsallis": ("alpha",),
    "renyi": ("alpha",),
    "pseudo_huber": ("delta",),
    "log_cosh": ("beta",),
    "softplus": (),
}
FAMILIES = tuple(_PARAMS)
_PARAM_NAMES = tuple(dict.fromkeys(name for names in _PARAMS.values() for name in names))

_ENTROPIC = {"neg_shannon", "tsallis", "renyi"}

class DomainError(ValueError):
    """Input lies outside the domain of the requested potential map."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class PotentialSpec:
    """A potential family plus its parameters.

    Parameter ranges are enforced at construction: every parameter must be
    finite except lp's p, which needs p > 1 (inf is the max-norm variant);
    tsallis needs alpha > 0 and alpha != 1, renyi needs alpha in (0, 1),
    soft_l1/pseudo_huber need delta > 0, log_cosh needs beta > 0.
    """

    family: str
    p: float | None = None
    alpha: float | None = None
    delta: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        fam = self.family
        if fam not in FAMILIES:
            raise ValueError(f"unknown potential family: {fam!r}")
        given = {name for name in _PARAM_NAMES if getattr(self, name) is not None}
        needed = set(_PARAMS[fam])
        if given != needed:
            raise ValueError(
                f"potential {fam!r} takes parameters {sorted(needed)}, got {sorted(given)}"
            )
        for name in needed:
            x = getattr(self, name)
            if not math.isfinite(x) and not (fam == "lp" and x == math.inf):
                raise ValueError(f"potential {fam!r} needs a finite {name}, got {name}={x}")
        if fam == "lp" and not self.p > 1.0:
            raise ValueError(f"lp potential needs p > 1, got p={self.p}")
        if fam == "tsallis" and (self.alpha <= 0.0 or self.alpha == 1.0):
            raise ValueError(
                f"tsallis potential needs alpha > 0, alpha != 1, got alpha={self.alpha}"
            )
        if fam == "renyi" and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"renyi potential needs alpha in (0, 1), got alpha={self.alpha}")
        if fam in ("soft_l1", "pseudo_huber") and not self.delta > 0.0:
            raise ValueError(f"{fam} potential needs delta > 0, got delta={self.delta}")
        if fam == "log_cosh" and not self.beta > 0.0:
            raise ValueError(f"log_cosh potential needs beta > 0, got beta={self.beta}")

    # -- token grammar: "neg_shannon", "lp:p=3", "tsallis:alpha=1.1", ... ----

    def token(self) -> str:
        params = ",".join(f"{name}={_fmt(getattr(self, name))}" for name in _PARAMS[self.family])
        return f"{self.family}:{params}" if params else self.family

    @classmethod
    def parse(cls, token: str) -> PotentialSpec:
        token = token.strip()
        family, _, rest = token.partition(":")
        kwargs: dict[str, float] = {}
        if rest:
            for part in rest.split(","):
                key, eq, val = part.partition("=")
                if not eq:
                    raise ValueError(f"bad potential token {token!r}: expected key=value")
                key = key.strip()
                if key not in _PARAM_NAMES:
                    raise ValueError(f"bad potential token {token!r}: unknown parameter {key!r}")
                val = val.strip()
                kwargs[key] = math.inf if val == "inf" else float(val)
        return cls(family=family, **kwargs)


def _fmt(x: float) -> str:
    if math.isinf(x):  # every parameter range excludes -inf
        return "inf"
    return repr(x) if x != int(x) else str(int(x))


def default_catalog() -> list[PotentialSpec]:
    """One representative spec per family, used by sweeps and check suites."""
    return [
        PotentialSpec("euclidean"),
        PotentialSpec("lp", p=3.0),
        PotentialSpec("soft_l1", delta=0.1),
        PotentialSpec("neg_shannon"),
        PotentialSpec("tsallis", alpha=1.1),
        PotentialSpec("renyi", alpha=0.95),
        PotentialSpec("pseudo_huber", delta=1.0),
        PotentialSpec("log_cosh", beta=1.0),
        PotentialSpec("softplus"),
    ]


def _as_vec(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DomainError(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


def _require_nonnegative(m: np.ndarray, family: str) -> None:
    bad = np.flatnonzero(m < 0.0)
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"{family}: negative entry {m[i]!r} at index {i} is outside the domain",
            index=i,
        )


def _require_positive(m: np.ndarray, family: str) -> None:
    bad = np.flatnonzero(m <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"{family}: nonpositive entry {m[i]!r} at index {i}; the gradient "
            "needs strictly positive input",
            index=i,
        )


def _xlogx(x: np.ndarray) -> np.ndarray:
    # Convention 0 * log 0 = 0.
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _fsum(x: np.ndarray) -> float:
    # Exactly rounded sum: value() must be bit-identical under entry
    # permutations, which ordinary left-to-right or pairwise summation is not.
    return math.fsum(x.tolist())


# -- value ---------------------------------------------------------------------


def value(spec: PotentialSpec, m) -> float:
    """Evaluate the potential at a usage vector.

    Entropic families (neg_shannon, tsallis, renyi) are defined on the
    nonnegative orthant and reject negative entries; the remaining families
    accept signed input so property tests can probe them off the simplex.
    """
    m = _as_vec(m, "m")
    fam = spec.family
    if fam in _ENTROPIC:
        _require_nonnegative(m, fam)

    if fam == "euclidean":
        return 0.5 * _fsum(m * m)
    if fam == "lp":
        if math.isinf(spec.p):
            return float(np.max(np.abs(m)))
        return _fsum(np.abs(m) ** spec.p) / spec.p
    if fam == "soft_l1":
        d = spec.delta
        a = np.abs(m)
        return _fsum(a - d * np.log1p(a / d))
    if fam == "neg_shannon":
        return _fsum(_xlogx(m))
    if fam == "tsallis":
        a = spec.alpha
        return _fsum(m**a - m) / (a - 1.0)
    if fam == "renyi":
        a = spec.alpha
        s = _fsum(m**a)
        if s <= 0.0:
            raise DomainError("renyi: all-zero vector has no finite value")
        return math.log(s) / (a - 1.0)
    if fam == "pseudo_huber":
        d = spec.delta
        return _fsum(np.sqrt(m * m + d * d) - d)
    if fam == "log_cosh":
        b = spec.beta
        # log cosh(x) = |x| + log1p(exp(-2|x|)) - log 2, stable for large |x|.
        ax = np.abs(b * m)
        return _fsum(ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)) / b
    if fam == "softplus":
        return _fsum(np.logaddexp(0.0, m))
    raise AssertionError(fam)


# -- link (gradient) -------------------------------------------------------------


def link(spec: PotentialSpec, m) -> np.ndarray:
    """Gradient of the potential: the per-expert price vector."""
    m = _as_vec(m, "m")
    fam = spec.family
    if fam in _ENTROPIC:
        _require_positive(m, fam)

    if fam == "euclidean":
        return m.copy()
    if fam == "lp":
        if math.isinf(spec.p):
            # Subgradient of the max norm: all weight on the first maximal
            # coordinate (deterministic tie-break keeps runs reproducible).
            out = np.zeros_like(m)
            i = int(np.argmax(np.abs(m)))
            out[i] = math.copysign(1.0, m[i]) if m[i] != 0.0 else 0.0
            return out
        return np.sign(m) * np.abs(m) ** (spec.p - 1.0)
    if fam == "soft_l1":
        return m / (np.abs(m) + spec.delta)
    if fam == "neg_shannon":
        return np.log(m) + 1.0
    if fam == "tsallis":
        a = spec.alpha
        return (a * m ** (a - 1.0) - 1.0) / (a - 1.0)
    if fam == "renyi":
        a = spec.alpha
        s = float(np.sum(m**a))
        return (a * m ** (a - 1.0)) / ((a - 1.0) * s)
    if fam == "pseudo_huber":
        d = spec.delta
        return m / np.sqrt(m * m + d * d)
    if fam == "log_cosh":
        return np.tanh(spec.beta * m)
    if fam == "softplus":
        return _sigmoid(m)
    raise AssertionError(fam)


# -- convex conjugate -------------------------------------------------------------


def conjugate_value(spec: PotentialSpec, q) -> float:
    """sup over m of <m, q> - value(m).

    Returns float('inf') when q falls outside the conjugate's effective
    domain instead of raising.
    """
    q = _as_vec(q, "q")
    fam = spec.family

    if fam == "euclidean":
        return 0.5 * _fsum(q * q)
    if fam == "lp":
        if math.isinf(spec.p):
            # Conjugate of the max norm: indicator of the l1 ball.
            return 0.0 if float(np.sum(np.abs(q))) <= 1.0 + 1e-12 else math.inf
        conj_p = spec.p / (spec.p - 1.0)
        return _fsum(np.abs(q) ** conj_p) / conj_p
    if fam == "soft_l1":
        a = np.abs(q)
        if np.any(a >= 1.0):
            return math.inf
        return _fsum(-spec.delta * (a + np.log1p(-a)))
    if fam == "neg_shannon":
        return _fsum(np.exp(q - 1.0))
    if fam == "tsallis":
        a = spec.alpha
        base = _tsallis_base(a, q)
        if a < 1.0 and np.any(base <= 0.0):
            # The link saturates at 1/(1-alpha) from below; larger prices
            # have an unbounded supremum.
            return math.inf
        # For alpha > 1, prices at or below link(0+) = -1/(alpha-1) are
        # maximized at m = 0.
        m = np.maximum(base, 0.0) ** (1.0 / (a - 1.0))
        return float(m @ q) - value(spec, m)
    if fam == "renyi":
        # Finite only for strictly negative prices: a nonnegative coordinate
        # lets the linear term grow without bound.
        if np.any(q >= 0.0):
            return math.inf
        m = _renyi_invert(spec.alpha, q)
        return float(m @ q) - value(spec, m)
    if fam == "pseudo_huber":
        a = np.abs(q)
        if np.any(a > 1.0):
            return math.inf
        return _fsum(spec.delta * (1.0 - np.sqrt(1.0 - q * q)))
    if fam == "log_cosh":
        a = np.abs(q)
        if np.any(a > 1.0):
            return math.inf
        b = spec.beta
        return _fsum(_xlogx(1.0 + q) + _xlogx(1.0 - q)) / (2.0 * b)
    if fam == "softplus":
        if np.any(q < 0.0) or np.any(q > 1.0):
            return math.inf
        return _fsum(_xlogx(q) + _xlogx(1.0 - q))
    raise AssertionError(fam)


# -- inverse link -------------------------------------------------------------


def inverse_link(spec: PotentialSpec, q) -> np.ndarray:
    """Gradient of the conjugate; inverts link() on the conjugate interior."""
    q = _as_vec(q, "q")
    fam = spec.family

    if fam == "euclidean":
        return q.copy()
    if fam == "lp":
        if math.isinf(spec.p):
            raise DomainError("lp p=inf: the max-norm subgradient is not invertible")
        return np.sign(q) * np.abs(q) ** (1.0 / (spec.p - 1.0))
    if fam == "soft_l1":
        _require_open_unit(q, fam)
        return spec.delta * q / (1.0 - np.abs(q))
    if fam == "neg_shannon":
        return np.exp(q - 1.0)
    if fam == "tsallis":
        base = _tsallis_base(spec.alpha, q)
        bad = np.flatnonzero(base <= 0.0)
        if bad.size:
            i = int(bad[0])
            raise DomainError(
                f"tsallis: price {q[i]!r} at index {i} is outside the invertible range",
                index=i,
            )
        return base ** (1.0 / (spec.alpha - 1.0))
    if fam == "renyi":
        return _renyi_invert(spec.alpha, q)
    if fam == "pseudo_huber":
        _require_open_unit(q, fam)
        return spec.delta * q / np.sqrt(1.0 - q * q)
    if fam == "log_cosh":
        _require_open_unit(q, fam)
        return np.arctanh(q) / spec.beta
    if fam == "softplus":
        bad = np.flatnonzero((q <= 0.0) | (q >= 1.0))
        if bad.size:
            i = int(bad[0])
            raise DomainError(
                f"softplus: price {q[i]!r} at index {i} must lie in (0, 1)", index=i
            )
        return np.log(q / (1.0 - q))
    raise AssertionError(fam)


def _require_open_unit(q: np.ndarray, family: str) -> None:
    bad = np.flatnonzero(np.abs(q) >= 1.0)
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"{family}: price {q[i]!r} at index {i} must lie in (-1, 1)", index=i
        )


# -- Tsallis and Renyi inverse links ------------------------------------------------


def _tsallis_base(alpha: float, q: np.ndarray) -> np.ndarray:
    """(1 + (alpha-1) q) / alpha, which link(m) = q makes equal to m^(alpha-1).

    It is positive exactly on the link's range: q > -1/(alpha-1) for
    alpha > 1 and q < 1/(1-alpha) for alpha < 1.
    """
    return (1.0 + (alpha - 1.0) * q) / alpha


def _renyi_invert(alpha: float, q: np.ndarray) -> np.ndarray:
    """Invert the coupled Renyi link in closed form.

    Writing c = q (alpha-1) / alpha and b = alpha / (alpha-1), the coordinates
    satisfy m_e = (c_e S)^{1/(alpha-1)} where S = sum m^alpha solves the scalar
    fixed point S = (sum c^b)^(1-alpha).
    """
    bad = np.flatnonzero(q >= 0.0)
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"renyi: price {q[i]!r} at index {i} must be strictly negative", index=i
        )
    c = q * (alpha - 1.0) / alpha
    b = alpha / (alpha - 1.0)
    s = float(np.sum(c**b)) ** (1.0 - alpha)
    return (c * s) ** (1.0 / (alpha - 1.0))
