import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import cho_solve, solve_triangular
from scipy.stats import norm

from robustcusum import (
    AffineDetector,
    DimensionError,
    Gaussian,
    NotPositiveDefiniteError,
    QuadraticDetector,
    SeededStream,
    kl_divergence,
    llr_detector,
    mahalanobis_sq,
)
from robustcusum.gaussian import exp_quadratic_moment, sample_with


def test_construction_caches_factor_and_reconstructs():
    cov = np.array([[4.0, 1.0], [1.0, 2.0]])
    g = Gaussian([1.0, -1.0], cov)
    rel = np.linalg.norm(g.factor @ g.factor.T - cov) / np.linalg.norm(cov)
    assert rel < 1e-10
    assert not g.factor.flags.writeable


def test_construction_repairs_tiny_asymmetry_and_rejects_large():
    cov = np.array([[4.0, 1.0 + 1e-10], [1.0, 2.0]])
    g = Gaussian([0.0, 0.0], cov)
    assert np.allclose(g.covariance, g.covariance.T)
    with pytest.raises(ValueError, match="asymmetric"):
        Gaussian([0.0, 0.0], np.array([[4.0, 1.5], [1.0, 2.0]]))


def test_non_positive_definite_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        Gaussian([0.0], [[0.0]])
    with pytest.raises(NotPositiveDefiniteError):
        Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


def test_gaussian_is_immutable():
    g = Gaussian([0.0], [[1.0]])
    with pytest.raises(AttributeError):
        g.mean = np.array([1.0])


def test_mahalanobis_identity_and_euclidean_cases():
    g = Gaussian(np.zeros(2), np.eye(2))
    assert mahalanobis_sq([0.7, -0.3], [0.7, -0.3], g) == 0.0
    assert mahalanobis_sq([3.0, 4.0], [0.0, 0.0], g) == pytest.approx(25.0, abs=1e-12)


def test_mahalanobis_diagonal_hand_case():
    g = Gaussian(np.zeros(2), np.diag([4.0, 1.0]))
    assert mahalanobis_sq([2.0, 1.0], [0.0, 0.0], g) == pytest.approx(2.0, abs=1e-12)


def test_mahalanobis_dimension_mismatch_names_dimensions():
    g = Gaussian(np.zeros(2), np.eye(2))
    with pytest.raises(DimensionError, match="2"):
        mahalanobis_sq([1.0, 2.0, 3.0], [0.0, 0.0], g)


@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3), st.lists(st.floats(-50, 50), min_size=3, max_size=3))
def test_mahalanobis_symmetric_in_arguments(xs, ys):
    g = Gaussian(np.zeros(3), np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]]))
    assert mahalanobis_sq(xs, ys, g) == mahalanobis_sq(ys, xs, g)


def test_mahalanobis_equals_euclidean_for_identity():
    rng = np.random.default_rng(0)
    g = Gaussian(np.zeros(4), np.eye(4))
    for _ in range(50):
        x, y = rng.normal(size=4), rng.normal(size=4)
        assert mahalanobis_sq(x, y, g) == pytest.approx(float(np.sum((x - y) ** 2)), abs=1e-12)


def test_sample_deterministic_per_stream():
    g = Gaussian(np.zeros(3), np.eye(3))
    s = SeededStream(42, 5)
    assert np.array_equal(sample_with(g, s.generator(), 8), sample_with(g, s.generator(), 8))
    assert not np.allclose(sample_with(g, s.generator(), 8), sample_with(g, SeededStream(42, 6).generator(), 8))


def test_sample_mean_within_clt_bound():
    n = 100_000
    g = Gaussian(np.zeros(3), np.eye(3))
    x = sample_with(g, SeededStream(7, 0).generator(), n)
    assert np.all(np.abs(x.mean(axis=0)) < 4.0 / math.sqrt(n))


def test_sample_covariance_within_two_percent():
    cov = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.2], [0.0, -0.2, 0.5]])
    g = Gaussian(np.zeros(3), cov)
    x = sample_with(g, SeededStream(11, 1).generator(), 1_000_000)
    emp = np.cov(x, rowvar=False)
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.02


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("big_a", [0.3, -0.5, 0.0])
def test_exact_moment_matches_quadrature_d1(big_a, sign):
    # E exp(sign * phi) with phi = A x^2/2 + a x + c and x ~ N(0.4, 1.2^2), by
    # numerical integration against the density; A = 0 is the affine detector
    mean, sd, a, c = 0.4, 1.2, 0.7, -0.2
    def integrand(x):
        return math.exp(sign * (0.5 * big_a * x * x + a * x + c) + norm.logpdf(x, mean, sd))

    oracle, _ = quad(integrand, -np.inf, np.inf)
    if big_a == 0.0:
        det = AffineDetector(a=np.array([a]), c=c, epsilon_star=0.5)
    else:
        det = QuadraticDetector(H=np.array([[big_a]]), h=np.array([a]), kappa_const=c)
    assert det.moment(Gaussian([mean], [[sd * sd]]), sign) == pytest.approx(oracle, rel=1e-9)


def test_exact_moment_diverges_without_positive_definite_m():
    # 1 - A sigma^2 = 1 - 2 * 0.5 = 0: the integrand no longer decays
    g = Gaussian([0.0], [[0.5]])
    assert exp_quadratic_moment(g, np.array([[2.0]]), np.zeros(1), 0.0) == math.inf
    assert exp_quadratic_moment(g, np.array([[-2.0]]), np.zeros(1), 0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("cond", [1e2, 1e8, 1e12])
def test_factor_solves_match_scipy_triangular_oracles(cond):
    # numpy's general solves against the Cholesky factor agree with scipy's
    # triangular and Cholesky solves at d=30 up to condition number 1e12
    d = 30
    rng = np.random.default_rng(30)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    g = Gaussian(rng.standard_normal(d), (q * np.logspace(0.0, -math.log10(cond), d)) @ q.T)

    def rel(x, ref):
        return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))

    rhs = rng.standard_normal((d, 4))
    for r in (rhs, rhs[:, 0]):
        assert rel(g.whiten(r), solve_triangular(g.factor, r, lower=True)) < 1e-12
        assert rel(g.solve_covariance(r), cho_solve((g.factor, True), r)) < 1e-12
    # the exact moment's formula, with its solve done by scipy
    s = rng.standard_normal((d, d))
    big_a, a, c, low, m = -(s @ s.T) / d, 0.1 * rng.standard_normal(d), 0.2, g.factor, g.mean
    root = np.linalg.cholesky(np.eye(d) - low.T @ big_a @ low)
    z = solve_triangular(root, low.T @ (big_a @ m + a), lower=True)
    log_ref = 0.5 * m @ big_a @ m + a @ m + c + 0.5 * z @ z - np.sum(np.log(np.diag(root)))
    assert exp_quadratic_moment(g, big_a, a, c) == pytest.approx(math.exp(log_ref), rel=1e-12)


def test_log_likelihood_ratio_hand_cases():
    # the CUSUM increment of the classic detector is log p1(xi) - log p0(xi)
    llr = llr_detector(Gaussian([0.0], [[1.0]]), Gaussian([2.0], [[1.0]])).increments
    assert llr([[1.0], [2.0]]).tolist() == pytest.approx([0.0, 2.0], abs=1e-12)
    llr = llr_detector(Gaussian(np.zeros(2), np.eye(2)), Gaussian(np.ones(2), np.eye(2))).increments
    assert llr([[0.0, 0.0]]).tolist() == pytest.approx([-1.0], abs=1e-12)


def test_kl_divergence_cases():
    g = Gaussian([0.3, -0.1], np.array([[1.5, 0.2], [0.2, 0.8]]))
    assert kl_divergence(g, g) == pytest.approx(0.0, abs=1e-12)
    a = Gaussian([0.0], [[1.0]])
    b = Gaussian([2.0], [[1.0]])
    assert kl_divergence(a, b) == pytest.approx(2.0, abs=1e-12)
    # equal means, covariances I vs 2I in d=2: 0.5 * (1 - 2 + 2 log 2)
    c = Gaussian(np.zeros(2), np.eye(2))
    d = Gaussian(np.zeros(2), 2.0 * np.eye(2))
    assert kl_divergence(c, d) == pytest.approx(0.5 * (1.0 - 2.0 + 2.0 * math.log(2.0)), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kl_divergence_nonnegative(seed):
    rng = np.random.default_rng(seed)
    d = 3
    def rand_gaussian():
        a = rng.normal(size=(d, d))
        return Gaussian(rng.normal(size=d), a @ a.T + 0.5 * np.eye(d))
    ga, gb = rand_gaussian(), rand_gaussian()
    assert kl_divergence(ga, gb) >= -1e-10
