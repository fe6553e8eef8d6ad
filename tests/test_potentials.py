import hashlib
import math

import numpy as np
import pytest

from phibal.potentials import (
    DomainError,
    PotentialSpec,
    conjugate_value,
    default_catalog,
    inverse_link,
    link,
    value,
)

CATALOG = default_catalog()


def interior_simplex(rng, n, floor=1e-3):
    p = rng.dirichlet(np.ones(n))
    p = np.clip(p, floor, None)
    return p / p.sum()


# -- construction and token grammar ------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="lp", p=1.0),
        dict(family="lp", p=0.5),
        dict(family="tsallis", alpha=1.0),
        dict(family="tsallis", alpha=0.0),
        dict(family="renyi", alpha=1.0),
        dict(family="renyi", alpha=0.0),
        dict(family="soft_l1", delta=0.0),
        dict(family="pseudo_huber", delta=-1.0),
        dict(family="log_cosh", beta=0.0),
        dict(family="euclidean", p=2.0),
        dict(family="nonsense"),
        "tsallis:alpha=nan",
        "tsallis:alpha=inf",
        "soft_l1:delta=inf",
        "pseudo_huber:delta=inf",
        "log_cosh:beta=inf",
        dict(family="log_cosh", beta=True),
        dict(family="lp", p="3"),
    ],
)
def test_invalid_parameters_rejected(kwargs):
    family = kwargs.partition(":")[0] if isinstance(kwargs, str) else kwargs["family"]
    with pytest.raises(ValueError, match=family):
        if isinstance(kwargs, str):
            PotentialSpec.parse(kwargs)
        else:
            PotentialSpec(**kwargs)


@pytest.mark.parametrize(
    "token",
    [
        "neg_shannon",
        "euclidean",
        "lp:p=3",
        "lp:p=inf",
        "soft_l1:delta=0.1",
        "tsallis:alpha=1.1",
        "renyi:alpha=0.95",
        "pseudo_huber:delta=1.0",
        "log_cosh:beta=1.0",
        "softplus",
    ],
)
def test_token_grammar_round_trips(token):
    spec = PotentialSpec.parse(token)
    assert PotentialSpec.parse(spec.token()) == spec


def test_token_grammar_rejects_bad_tokens():
    with pytest.raises(ValueError):
        PotentialSpec.parse("tsallis:alpha=1.0")
    with pytest.raises(ValueError):
        PotentialSpec.parse("lp")
    with pytest.raises(ValueError):
        PotentialSpec.parse("lp:q=3")
    with pytest.raises(ValueError, match="repeated parameter 'p'"):
        PotentialSpec.parse("lp:p=3,p=4")


def test_parse_inf_exponent():
    spec = PotentialSpec.parse("lp:p=inf")
    assert math.isinf(spec.p)


# -- pinned values ---------------------------------------------------------------------


def test_value_pins():
    assert value(PotentialSpec("neg_shannon"), [0.5, 0.5]) == pytest.approx(
        -math.log(2.0)
    )
    assert value(PotentialSpec("euclidean"), [1.0, 0.0]) == pytest.approx(0.5)
    assert value(PotentialSpec("lp", p=3.0), [0.5, 0.5]) == pytest.approx(
        0.0833333, abs=1e-6
    )
    assert value(PotentialSpec("tsallis", alpha=2.0), [0.5, 0.5]) == pytest.approx(-0.5)


def test_link_pins():
    np.testing.assert_allclose(
        link(PotentialSpec("neg_shannon"), [0.25, 0.75]),
        [math.log(0.25) + 1.0, math.log(0.75) + 1.0],
    )
    np.testing.assert_allclose(
        link(PotentialSpec("euclidean"), [0.3, 0.7]), [0.3, 0.7]
    )
    np.testing.assert_allclose(link(PotentialSpec("softplus"), [0.0, 0.0]), [0.5, 0.5])
    np.testing.assert_allclose(
        link(PotentialSpec("log_cosh", beta=2.0), [0.5]), [math.tanh(1.0)]
    )


def test_conjugate_pins():
    assert conjugate_value(PotentialSpec("neg_shannon"), [1.0, 1.0]) == pytest.approx(2.0)
    assert conjugate_value(PotentialSpec("euclidean"), [0.6, 0.8]) == pytest.approx(0.5)


def test_inverse_link_pins():
    np.testing.assert_allclose(inverse_link(PotentialSpec("neg_shannon"), [1.0]), [1.0])
    np.testing.assert_allclose(
        inverse_link(PotentialSpec("euclidean"), [0.4, 0.6]), [0.4, 0.6]
    )


def test_aux_weight_pins():
    # The balancing loss weighs each expert by its price, link(m).
    np.testing.assert_allclose(
        link(PotentialSpec("soft_l1", delta=0.1), [0.2]), [0.2 / 0.3]
    )
    np.testing.assert_allclose(
        link(PotentialSpec("pseudo_huber", delta=1.0), [0.0]), [0.0]
    )


def test_renyi_aux_weight_formula():
    spec = PotentialSpec("renyi", alpha=0.95)
    m = np.array([0.5, 0.5])
    w = link(spec, m)
    assert w[0] == pytest.approx(w[1])
    a = 0.95
    expected = (a * m ** (a - 1.0)) / ((a - 1.0) * np.sum(m**a))
    np.testing.assert_allclose(w, expected)
    # Must also agree with finite differences of the value.
    h = 1e-6
    for i in range(2):
        up, down = m.copy(), m.copy()
        up[i] += h
        down[i] -= h
        fd = (value(spec, up) - value(spec, down)) / (2 * h)
        assert w[i] == pytest.approx(fd, rel=1e-5)


def test_catalog_maps_are_bit_pinned(numeric_build):
    # Every map of every catalog family, byte for byte, on seeded interior
    # points: a refactor of the family definitions must keep each expression
    # and its order of operations.
    rng = np.random.default_rng(29)
    h = hashlib.sha256()
    for spec in CATALOG:
        h.update(spec.token().encode())
        for _ in range(8):
            m = interior_simplex(rng, 5)
            q = link(spec, m)
            h.update(np.float64(value(spec, m)).tobytes())
            h.update(q.tobytes())
            h.update(np.float64(conjugate_value(spec, q)).tobytes())
            h.update(inverse_link(spec, q).tobytes())
    assert h.hexdigest()[:16] == "df277c284cf33b47", numeric_build


# -- domain handling ----------------------------------------------------------------------


@pytest.mark.parametrize("family", ["neg_shannon", "tsallis", "renyi"])
def test_entropic_negative_entry_is_domain_error(family):
    spec = next(s for s in CATALOG if s.family == family)
    with pytest.raises(DomainError):
        value(spec, [0.5, -0.1])


@pytest.mark.parametrize("family", ["neg_shannon", "tsallis", "renyi"])
def test_entropic_zero_entry_link_error_carries_index(family):
    spec = next(s for s in CATALOG if s.family == family)
    with pytest.raises(DomainError, match=f"^{family}: entry 0.0 at index 1 ") as err:
        link(spec, [0.5, 0.0, 0.5])
    assert err.value.index == 1


@pytest.mark.parametrize(
    "family, good, bad",
    [
        ("soft_l1", 0.5, 1.0),
        ("pseudo_huber", 0.5, -1.0),
        ("log_cosh", 0.5, 1.5),
        ("softplus", 0.5, 0.0),
        ("renyi", -0.5, 0.0),
        ("tsallis", 0.5, -10.0),
    ],
)
def test_inverse_link_rejects_prices_outside_its_domain(family, good, bad):
    spec = next(s for s in CATALOG if s.family == family)
    with pytest.raises(DomainError, match=f"^{family}: price .* at index 1 ") as err:
        inverse_link(spec, [good, bad, good])
    assert err.value.index == 1


def test_zero_log_zero_convention():
    assert value(PotentialSpec("neg_shannon"), [1.0, 0.0]) == pytest.approx(0.0)


def test_signed_inputs_allowed_for_non_entropic_families():
    m = np.array([-0.3, 0.4])
    assert value(PotentialSpec("lp", p=3.0), m) == pytest.approx(
        (0.3**3 + 0.4**3) / 3.0
    )
    np.testing.assert_allclose(
        link(PotentialSpec("lp", p=3.0), m), [-0.09, 0.16], atol=1e-12
    )


def test_conjugate_out_of_domain_returns_inf_marker():
    assert conjugate_value(PotentialSpec("soft_l1", delta=0.1), [1.5]) == math.inf
    assert conjugate_value(PotentialSpec("pseudo_huber", delta=1.0), [1.5]) == math.inf
    assert conjugate_value(PotentialSpec("softplus"), [-0.1]) == math.inf
    assert conjugate_value(PotentialSpec("log_cosh", beta=1.0), [2.0]) == math.inf
    assert conjugate_value(PotentialSpec("renyi", alpha=0.95), [0.5, -1.0]) == math.inf
    assert conjugate_value(PotentialSpec("tsallis", alpha=0.5), [3.0]) == math.inf


@pytest.mark.parametrize("alpha", [1.1, 2.0, 0.5])
def test_tsallis_inverse_link_reaches_large_usage(alpha):
    spec = PotentialSpec("tsallis", alpha=alpha)
    m = np.array([2000.0, 0.25])
    np.testing.assert_allclose(inverse_link(spec, link(spec, m)), m, rtol=1e-12)


def test_tsallis_inverse_link_domain_bounds():
    # alpha > 1: the link's range is q > -1/(alpha-1) = -10.
    with pytest.raises(DomainError) as err:
        inverse_link(PotentialSpec("tsallis", alpha=1.1), [0.0, -10.0, -20.0])
    assert err.value.index == 1
    # alpha < 1: the link's range is q < 1/(1-alpha) = 2.
    with pytest.raises(DomainError) as err:
        inverse_link(PotentialSpec("tsallis", alpha=0.5), [0.0, 1.0, 2.0])
    assert err.value.index == 2


def test_tsallis_conjugate_below_link_of_zero():
    # q_0 = -20 lies below link(0+) = -10, so the supremum puts m_0 = 0; the
    # other coordinate solves link(m_1) = 0, i.e. m_1 = (1/alpha)^(1/(alpha-1)).
    a = 1.1
    m1 = (1.0 / a) ** (1.0 / (a - 1.0))
    expected = -(m1**a - m1) / (a - 1.0)
    got = conjugate_value(PotentialSpec("tsallis", alpha=a), [-20.0, 0.0])
    assert got == pytest.approx(expected, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_renyi_conjugate_matches_fenchel_young_value(alpha):
    spec = PotentialSpec("renyi", alpha=alpha)
    rng = np.random.default_rng(23)
    for _ in range(50):
        m0 = rng.dirichlet(np.ones(4))
        q = link(spec, m0)
        assert abs(conjugate_value(spec, q) - (float(m0 @ q) - value(spec, m0))) < 1e-10


def test_max_norm_variant():
    spec = PotentialSpec("lp", p=math.inf)
    assert value(spec, [0.2, 0.7, 0.1]) == pytest.approx(0.7)
    np.testing.assert_allclose(link(spec, [0.2, 0.7, 0.1]), [0.0, 1.0, 0.0])
    # Ties break to the first maximal coordinate.
    np.testing.assert_allclose(link(spec, [0.5, 0.5]), [1.0, 0.0])
    assert conjugate_value(spec, [0.4, 0.6]) == 0.0
    assert conjugate_value(spec, [0.9, 0.6]) == math.inf
    with pytest.raises(DomainError):
        inverse_link(spec, [0.5, 0.5])


# -- catalog-wide properties ---------------------------------------------------------------


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.token())
@pytest.mark.parametrize("n", [2, 4, 8])
def test_uniform_point_minimizes_on_simplex(spec, n):
    rng = np.random.default_rng(n)
    u = np.full(n, 1.0 / n)
    v_u = value(spec, u)
    for _ in range(200):
        p = rng.dirichlet(np.ones(n))
        v_p = value(spec, p)
        assert v_u <= v_p
        if np.max(np.abs(p - u)) > 1e-6:
            assert v_p > v_u


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.token())
def test_link_inverse_round_trip(spec):
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = interior_simplex(rng, 4)
        np.testing.assert_allclose(inverse_link(spec, link(spec, m)), m, atol=1e-8)


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.token())
def test_fenchel_young_equality(spec):
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = interior_simplex(rng, 4)
        q = link(spec, m)
        gap = value(spec, m) + conjugate_value(spec, q) - float(m @ q)
        assert abs(gap) < 1e-6


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.token())
def test_link_matches_finite_differences_of_value(spec):
    rng = np.random.default_rng(13)
    h = 1e-7
    for _ in range(20):
        m = interior_simplex(rng, 4)
        q = link(spec, m)
        for i in range(4):
            up, down = m.copy(), m.copy()
            up[i] += h
            down[i] -= h
            fd = (value(spec, up) - value(spec, down)) / (2 * h)
            assert abs(q[i] - fd) / max(1.0, abs(q[i]), abs(fd)) < 1e-6


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.token())
def test_value_is_permutation_symmetric(spec):
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = interior_simplex(rng, 5)
        base = value(spec, m)
        for _ in range(3):
            assert value(spec, rng.permutation(m)) == base


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.token())
def test_midpoint_convexity_strict(spec):
    rng = np.random.default_rng(19)
    for _ in range(30):
        if spec.family == "renyi":
            # Strict convexity only holds on the simplex slice.
            a = interior_simplex(rng, 4)
            b = interior_simplex(rng, 4)
        else:
            a = rng.uniform(0.05, 1.0, size=4)
            b = rng.uniform(0.05, 1.0, size=4)
        if np.max(np.abs(a - b)) < 1e-8:
            continue
        mid = value(spec, (a + b) / 2.0)
        avg = 0.5 * value(spec, a) + 0.5 * value(spec, b)
        assert mid < avg
