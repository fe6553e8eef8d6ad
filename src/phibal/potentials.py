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

Each family is one `_Family` record in `_RECORDS`: its parameters with their
ranges, its domain, its four maps and its catalog values. `FAMILIES`, the
token grammar, the parameter checks and `default_catalog` are read from it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .schema import check_value, within

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


class DomainError(ValueError):
    """Input lies outside the domain of the requested potential map."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class PotentialSpec:
    """A potential family plus its parameters.

    Construction checks that exactly the family's parameters are given, each
    a number in the range its family record declares; an int becomes a float.
    """

    family: str
    p: float | None = None
    alpha: float | None = None
    delta: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        fam = self.family
        record = _RECORDS.get(fam)
        if record is None:
            raise ValueError(f"unknown potential family: {fam!r}")
        given = {name for name in _PARAM_NAMES if getattr(self, name) is not None}
        if given != set(record.params):
            raise ValueError(
                f"potential {fam!r} takes parameters {sorted(record.params)}, got {sorted(given)}"
            )
        for name, meta in record.params.items():
            x = check_value(f"{fam} potential", name, "float", meta, getattr(self, name))
            object.__setattr__(self, name, x)

    @property
    def orthant(self) -> bool:
        """Whether the family is defined on the nonnegative orthant only."""
        return _RECORDS[self.family].orthant

    # -- token grammar: "neg_shannon", "lp:p=3", "tsallis:alpha=1.1", ... ----

    def token(self) -> str:
        params = ",".join(
            f"{name}={_fmt(getattr(self, name))}" for name in _RECORDS[self.family].params
        )
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
                if key in kwargs:
                    raise ValueError(f"bad potential token {token!r}: repeated parameter {key!r}")
                val = val.strip()
                kwargs[key] = math.inf if val == "inf" else float(val)
        return cls(family=family, **kwargs)


def _fmt(x: float) -> str:
    if math.isinf(x):  # every parameter range excludes -inf
        return "inf"
    return repr(x) if x != int(x) else str(int(x))


def _as_vec(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DomainError(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


def _reject(bad: np.ndarray, x: np.ndarray, family: str, noun: str, must: str) -> None:
    """Raise a DomainError at the first index where ``bad`` holds."""
    hit = np.flatnonzero(bad)
    if hit.size:
        i = int(hit[0])
        raise DomainError(f"{family}: {noun} {float(x[i])!r} at index {i} {must}", index=i)


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


# -- the families ------------------------------------------------------------------
# Each map takes the spec and a 1-D float64 vector, already checked against
# the family's domains by `value`, `link` and `inverse_link`. A conjugate
# returns inf where q falls outside its effective domain.


def _lp_value(s: PotentialSpec, m: np.ndarray) -> float:
    if math.isinf(s.p):
        return float(np.max(np.abs(m)))
    return _fsum(np.abs(m) ** s.p) / s.p


def _lp_link(s: PotentialSpec, m: np.ndarray) -> np.ndarray:
    if math.isinf(s.p):
        # Subgradient of the max norm: all weight on the first maximal
        # coordinate (deterministic tie-break keeps runs reproducible).
        out = np.zeros_like(m)
        i = int(np.argmax(np.abs(m)))
        out[i] = math.copysign(1.0, m[i]) if m[i] != 0.0 else 0.0
        return out
    return np.sign(m) * np.abs(m) ** (s.p - 1.0)


def _lp_conjugate(s: PotentialSpec, q: np.ndarray) -> float:
    if math.isinf(s.p):
        # Conjugate of the max norm: indicator of the l1 ball.
        return 0.0 if float(np.sum(np.abs(q))) <= 1.0 + 1e-12 else math.inf
    conj_p = s.p / (s.p - 1.0)
    return _fsum(np.abs(q) ** conj_p) / conj_p


def _lp_inverse(s: PotentialSpec, q: np.ndarray) -> np.ndarray:
    if math.isinf(s.p):
        raise DomainError("lp p=inf: the max-norm subgradient is not invertible")
    return np.sign(q) * np.abs(q) ** (1.0 / (s.p - 1.0))


def _soft_l1_value(s: PotentialSpec, m: np.ndarray) -> float:
    d = s.delta
    a = np.abs(m)
    return _fsum(a - d * np.log1p(a / d))


def _soft_l1_conjugate(s: PotentialSpec, q: np.ndarray) -> float:
    a = np.abs(q)
    if np.any(a >= 1.0):
        return math.inf
    return _fsum(-s.delta * (a + np.log1p(-a)))


def _tsallis_base(alpha: float, q: np.ndarray) -> np.ndarray:
    """(1 + (alpha-1) q) / alpha, which link(m) = q makes equal to m^(alpha-1).

    It is positive exactly on the link's range: q > -1/(alpha-1) for
    alpha > 1 and q < 1/(1-alpha) for alpha < 1.
    """
    return (1.0 + (alpha - 1.0) * q) / alpha


def _tsallis_conjugate(s: PotentialSpec, q: np.ndarray) -> float:
    a = s.alpha
    base = _tsallis_base(a, q)
    if a < 1.0 and np.any(base <= 0.0):
        # The link saturates at 1/(1-alpha) from below; larger prices
        # have an unbounded supremum.
        return math.inf
    # For alpha > 1, prices at or below link(0+) = -1/(alpha-1) are
    # maximized at m = 0.
    m = np.maximum(base, 0.0) ** (1.0 / (a - 1.0))
    return float(m @ q) - value(s, m)


def _renyi_value(s: PotentialSpec, m: np.ndarray) -> float:
    a = s.alpha
    total = _fsum(m**a)
    if total <= 0.0:
        raise DomainError("renyi: all-zero vector has no finite value")
    return math.log(total) / (a - 1.0)


def _renyi_link(s: PotentialSpec, m: np.ndarray) -> np.ndarray:
    a = s.alpha
    total = float(np.sum(m**a))
    return (a * m ** (a - 1.0)) / ((a - 1.0) * total)


def _renyi_conjugate(s: PotentialSpec, q: np.ndarray) -> float:
    # Finite only for strictly negative prices: a nonnegative coordinate
    # lets the linear term grow without bound.
    if np.any(q >= 0.0):
        return math.inf
    m = _renyi_inverse(s, q)
    return float(m @ q) - value(s, m)


def _renyi_inverse(s: PotentialSpec, q: np.ndarray) -> np.ndarray:
    """Invert the coupled Renyi link in closed form, for strictly negative q.

    Writing c = q (alpha-1) / alpha and b = alpha / (alpha-1), the coordinates
    satisfy m_e = (c_e S)^{1/(alpha-1)} where S = sum m^alpha solves the scalar
    fixed point S = (sum c^b)^(1-alpha).
    """
    alpha = s.alpha
    c = q * (alpha - 1.0) / alpha
    b = alpha / (alpha - 1.0)
    total = float(np.sum(c**b)) ** (1.0 - alpha)
    return (c * total) ** (1.0 / (alpha - 1.0))


def _pseudo_huber_conjugate(s: PotentialSpec, q: np.ndarray) -> float:
    if np.any(np.abs(q) > 1.0):
        return math.inf
    return _fsum(s.delta * (1.0 - np.sqrt(1.0 - q * q)))


def _log_cosh_value(s: PotentialSpec, m: np.ndarray) -> float:
    b = s.beta
    # log cosh(x) = |x| + log1p(exp(-2|x|)) - log 2, stable for large |x|.
    ax = np.abs(b * m)
    return _fsum(ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)) / b


def _log_cosh_conjugate(s: PotentialSpec, q: np.ndarray) -> float:
    if np.any(np.abs(q) > 1.0):
        return math.inf
    return _fsum(_xlogx(1.0 + q) + _xlogx(1.0 - q)) / (2.0 * s.beta)


def _softplus_conjugate(s: PotentialSpec, q: np.ndarray) -> float:
    if np.any(q < 0.0) or np.any(q > 1.0):
        return math.inf
    return _fsum(_xlogx(q) + _xlogx(1.0 - q))


# A family's map: (spec, a checked 1-D vector) -> a float or a vector.
_Map = Callable[[PotentialSpec, np.ndarray], "float | np.ndarray"]


class _Family:
    """One potential family. ``params`` maps each parameter, in token order,
    to the `schema` metadata of its range and ``default`` gives the catalog's
    values. ``orthant`` marks a family whose value and link take only the
    nonnegative orthant; ``prices``, if set, is a test marking the prices
    outside the inverse link's domain and the rule they break.

    A plain class, not a dataclass: building a dataclass at import costs
    about a millisecond, a share of every benchmark's setup time.
    """

    def __init__(self, value: _Map, link: _Map, conjugate: _Map, inverse: _Map,
                 params: dict | None = None, default: dict | None = None,
                 orthant: bool = False, prices: tuple[_Map, str] | None = None) -> None:
        self.value, self.link, self.conjugate, self.inverse = value, link, conjugate, inverse
        self.params, self.default = params or {}, default or {}
        self.orthant, self.prices = orthant, prices


_POSITIVE = within("(0, inf)")
_OPEN_UNIT = (lambda s, q: np.abs(q) >= 1.0, "must lie in (-1, 1)")

_RECORDS = {
    "euclidean": _Family(
        value=lambda s, m: 0.5 * _fsum(m * m),
        link=lambda s, m: m.copy(),
        conjugate=lambda s, q: 0.5 * _fsum(q * q),
        inverse=lambda s, q: q.copy(),
    ),
    # p = inf is the max-norm variant.
    "lp": _Family(
        _lp_value, _lp_link, _lp_conjugate, _lp_inverse,
        params={"p": within("(1, inf]")}, default={"p": 3.0},
    ),
    "soft_l1": _Family(
        value=_soft_l1_value,
        link=lambda s, m: m / (np.abs(m) + s.delta),
        conjugate=_soft_l1_conjugate,
        inverse=lambda s, q: s.delta * q / (1.0 - np.abs(q)),
        params={"delta": _POSITIVE}, default={"delta": 0.1}, prices=_OPEN_UNIT,
    ),
    "neg_shannon": _Family(
        value=lambda s, m: _fsum(_xlogx(m)),
        link=lambda s, m: np.log(m) + 1.0,
        conjugate=lambda s, q: _fsum(np.exp(q - 1.0)),
        inverse=lambda s, q: np.exp(q - 1.0),
        orthant=True,
    ),
    "tsallis": _Family(
        value=lambda s, m: _fsum(m**s.alpha - m) / (s.alpha - 1.0),
        link=lambda s, m: (s.alpha * m ** (s.alpha - 1.0) - 1.0) / (s.alpha - 1.0),
        conjugate=_tsallis_conjugate,
        inverse=lambda s, q: _tsallis_base(s.alpha, q) ** (1.0 / (s.alpha - 1.0)),
        params={"alpha": {
            "must": "lie in (0, inf) and differ from 1",
            "test": lambda a: 0.0 < a < math.inf and a != 1.0,
        }},
        default={"alpha": 1.1},
        orthant=True,
        prices=(lambda s, q: _tsallis_base(s.alpha, q) <= 0.0, "is outside the invertible range"),
    ),
    "renyi": _Family(
        _renyi_value, _renyi_link, _renyi_conjugate, _renyi_inverse,
        params={"alpha": within("(0, 1)")}, default={"alpha": 0.95}, orthant=True,
        prices=(lambda s, q: q >= 0.0, "must be strictly negative"),
    ),
    "pseudo_huber": _Family(
        value=lambda s, m: _fsum(np.sqrt(m * m + s.delta * s.delta) - s.delta),
        link=lambda s, m: m / np.sqrt(m * m + s.delta * s.delta),
        conjugate=_pseudo_huber_conjugate,
        inverse=lambda s, q: s.delta * q / np.sqrt(1.0 - q * q),
        params={"delta": _POSITIVE}, default={"delta": 1.0}, prices=_OPEN_UNIT,
    ),
    "log_cosh": _Family(
        value=_log_cosh_value,
        link=lambda s, m: np.tanh(s.beta * m),
        conjugate=_log_cosh_conjugate,
        inverse=lambda s, q: np.arctanh(q) / s.beta,
        params={"beta": _POSITIVE}, default={"beta": 1.0}, prices=_OPEN_UNIT,
    ),
    "softplus": _Family(
        value=lambda s, m: _fsum(np.logaddexp(0.0, m)),
        link=lambda s, m: _sigmoid(m),
        conjugate=_softplus_conjugate,
        inverse=lambda s, q: np.log(q / (1.0 - q)),
        prices=(lambda s, q: (q <= 0.0) | (q >= 1.0), "must lie in (0, 1)"),
    ),
}
FAMILIES = tuple(_RECORDS)
_PARAM_NAMES = tuple(dict.fromkeys(name for fam in _RECORDS.values() for name in fam.params))


def default_catalog() -> list[PotentialSpec]:
    """One representative spec per family, used by sweeps and check suites."""
    return [PotentialSpec(name, **fam.default) for name, fam in _RECORDS.items()]


# -- the four maps -------------------------------------------------------------------


def value(spec: PotentialSpec, m) -> float:
    """Evaluate the potential at a usage vector.

    Families on the nonnegative orthant (the entropic ones) reject negative
    entries; the others accept signed input so property tests can probe them
    off the simplex.
    """
    m = _as_vec(m, "m")
    fam = _RECORDS[spec.family]
    if fam.orthant:
        _reject(m < 0.0, m, spec.family, "entry", "is outside the domain m >= 0")
    return fam.value(spec, m)


def link(spec: PotentialSpec, m) -> np.ndarray:
    """Gradient of the potential: the per-expert price vector."""
    m = _as_vec(m, "m")
    fam = _RECORDS[spec.family]
    if fam.orthant:
        _reject(m <= 0.0, m, spec.family, "entry", "must be positive for the gradient")
    return fam.link(spec, m)


def conjugate_value(spec: PotentialSpec, q) -> float:
    """sup over m of <m, q> - value(m).

    Returns float('inf') when q falls outside the conjugate's effective
    domain instead of raising.
    """
    return _RECORDS[spec.family].conjugate(spec, _as_vec(q, "q"))


def inverse_link(spec: PotentialSpec, q) -> np.ndarray:
    """Gradient of the conjugate; inverts link() on the conjugate interior."""
    q = _as_vec(q, "q")
    fam = _RECORDS[spec.family]
    if fam.prices is not None:
        bad, must = fam.prices
        _reject(bad(spec, q), q, spec.family, "price", must)
    return fam.inverse(spec, q)
