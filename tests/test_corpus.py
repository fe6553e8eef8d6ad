import numpy as np
import pytest

from phibal.corpus import CorpusSpec, domain_centers, sample_batch, teacher_weights


def test_same_seed_step_is_bit_identical():
    spec = CorpusSpec(n_domains=4, dim=16, seed=3)
    a = sample_batch(spec, 64, 12)
    b = sample_batch(spec, 64, 12)
    for left, right in zip(a, b):
        assert left.tobytes() == right.tobytes()


def test_different_steps_differ():
    spec = CorpusSpec(n_domains=4, dim=16, seed=3)
    x1, _, _ = sample_batch(spec, 64, 1)
    x2, _, _ = sample_batch(spec, 64, 2)
    assert np.max(np.abs(x1 - x2)) > 1e-6


def test_zero_scale_tokens_equal_centers():
    spec = CorpusSpec(n_domains=3, dim=8, cluster_scale=0.0, seed=0)
    x, _, dom = sample_batch(spec, 32, 5)
    centers = domain_centers(spec)
    np.testing.assert_array_equal(x, centers[dom])


def test_one_hot_mixture_pins_domain():
    spec = CorpusSpec(n_domains=3, dim=4, mixture=(1.0, 0.0, 0.0), seed=1)
    _, labels, dom = sample_batch(spec, 100, 2)
    assert np.all(dom == 0)
    assert np.all(labels == 0)


def test_domain_draw_matches_rng_choice_and_leaves_the_same_stream():
    # sample_batch draws domains by inverse CDF; it must pick what
    # rng.choice(n, size, p=mixture) picks and consume the same stream,
    # so the noise drawn after it is the same too.
    for seed in range(200):
        meta = np.random.default_rng((seed, 99))
        n = int(meta.integers(2, 9))
        weights = meta.random(n) * (meta.random(n) > 0.2)
        weights[n - 1] += 0.1
        spec = CorpusSpec(n_domains=n, dim=3, mixture=tuple(weights / weights.sum()), seed=seed)
        size, step = int(meta.integers(1, 300)), int(meta.integers(0, 50))
        x, _, dom = sample_batch(spec, size, step)
        rng = np.random.default_rng((seed, 0, step))
        want = rng.choice(n, size=size, p=np.asarray(spec.mixture))
        assert dom.dtype == want.dtype and np.array_equal(dom, want)
        noise = rng.standard_normal((size, 3))
        assert x.tobytes() == (domain_centers(spec)[want] + 0.5 * noise).tobytes()


def test_mixture_must_be_simplex():
    with pytest.raises(ValueError):
        CorpusSpec(n_domains=2, dim=4, mixture=(0.7, 0.7))
    with pytest.raises(ValueError):
        CorpusSpec(n_domains=2, dim=4, mixture=(-0.2, 1.2))
    with pytest.raises(ValueError):
        CorpusSpec(n_domains=2, dim=4, mixture=(0.5, 0.3, 0.2))


@pytest.mark.parametrize(
    "knobs",
    [{"cluster_scale": np.nan}, {"mixture": (np.nan, 1.0)}],
    ids=["cluster_scale=nan", "mixture_nan"],
)
def test_spec_rejects_nan_knobs(knobs):
    with pytest.raises(ValueError):
        CorpusSpec(n_domains=2, dim=4, **knobs)


def test_long_run_frequencies_converge():
    spec = CorpusSpec(n_domains=4, dim=4, mixture=(0.4, 0.3, 0.2, 0.1), seed=2)
    total = np.zeros(4)
    n = 0
    for step in range(1, 101):
        _, _, dom = sample_batch(spec, 200, step)
        total += np.bincount(dom, minlength=4)
        n += 200
    freq = total / n
    assert np.max(np.abs(freq - np.array(spec.mixture))) < 2.0 / np.sqrt(n)


def test_linear_teacher_labels():
    spec = CorpusSpec(n_domains=2, dim=6, label_rule="linear_teacher", seed=4)
    x, labels, _ = sample_batch(spec, 16, 1)
    assert labels.shape == (16,)
    assert labels.dtype == np.float64
    # Reproducible teacher: same labels on a second draw.
    _, labels2, _ = sample_batch(spec, 16, 1)
    np.testing.assert_array_equal(labels, labels2)


def test_teacher_is_kept_per_spec_and_matches_a_fresh_draw():
    spec = CorpusSpec(n_domains=3, dim=5, label_rule="linear_teacher", seed=9)
    teacher = teacher_weights(spec)
    assert teacher_weights(spec) is teacher
    assert not teacher.flags.writeable
    fresh = np.random.default_rng((9, 2)).standard_normal(5) / 5**0.5
    np.testing.assert_array_equal(teacher, fresh)
    for step in (0, 1, 17):
        x, labels, _ = sample_batch(spec, 32, step)
        np.testing.assert_array_equal(labels, x @ fresh)
    assert spec == CorpusSpec(n_domains=3, dim=5, label_rule="linear_teacher", seed=9)


def test_explicit_centers_are_used():
    centers = ((1.0, 0.0), (0.0, 1.0))
    spec = CorpusSpec(n_domains=2, dim=2, centers=centers, cluster_scale=0.0, seed=0)
    x, _, dom = sample_batch(spec, 10, 1)
    np.testing.assert_array_equal(x, np.asarray(centers)[dom])
    with pytest.raises(ValueError):
        CorpusSpec(n_domains=2, dim=3, centers=centers)
