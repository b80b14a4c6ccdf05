import math

import numpy as np
import pytest

from robustcusum import Box, L1Ball, L2Ball, MatrixInterval, SingletonPSD, SingletonVector, SpectralBall


def _vector_sets(d=6):
    rng = np.random.default_rng(1)
    return [
        SingletonVector(rng.normal(size=d)),
        L2Ball(rng.normal(size=d), 1.7),
        L1Ball(rng.normal(size=d), 2.1),
        Box(rng.normal(size=d) - 1.0, rng.normal(size=d) + 1.0),
    ]


def test_interior_point_projects_to_itself():
    s = L2Ball(np.ones(3), 2.0)
    x = np.array([1.2, 0.8, 1.1])
    assert np.allclose(s.project(x), x)


def test_l2_radial_projection_formula():
    d = 30
    s = L2Ball(np.ones(d), math.sqrt(27.0))
    p = s.project(np.zeros(d))
    assert np.allclose(p, (1.0 - math.sqrt(27.0 / 30.0)) * np.ones(d), atol=1e-12)
    assert p[0] == pytest.approx(0.051317, abs=1e-6)


def test_l1_soft_threshold_projection():
    d = 30
    s = L1Ball(np.ones(d), 27.0)
    p = s.project(np.zeros(d))
    assert np.allclose(p, 0.1 * np.ones(d), atol=1e-12)


def test_box_projection_clamps():
    s = Box(np.zeros(2), np.ones(2))
    assert np.allclose(s.project([-1.0, 0.4]), [0.0, 0.4])


@pytest.mark.parametrize("idx", range(4))
def test_projection_idempotent_and_member(idx):
    s = _vector_sets()[idx]
    rng = np.random.default_rng(idx)
    for _ in range(200):
        x = 5.0 * rng.normal(size=s.dim)
        p = s.project(x)
        assert s.contains(p, tol=1e-9)
        assert np.linalg.norm(s.project(p) - p) <= 1e-12


@pytest.mark.parametrize("idx", range(4))
def test_projection_nonexpansive(idx):
    s = _vector_sets()[idx]
    rng = np.random.default_rng(100 + idx)
    for _ in range(1000):
        x, y = 4.0 * rng.normal(size=s.dim), 4.0 * rng.normal(size=s.dim)
        assert np.linalg.norm(s.project(x) - s.project(y)) <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("idx", range(4))
def test_projection_optimality_certificate(idx):
    s = _vector_sets()[idx]
    rng = np.random.default_rng(200 + idx)
    x = 5.0 * rng.normal(size=s.dim)
    p = s.project(x)
    for _ in range(100):
        m = s.sample_member(rng)
        assert np.linalg.norm(x - p) <= np.linalg.norm(x - m) + 1e-9


def test_contains_cases():
    assert L2Ball(np.ones(3), 1.0).contains(np.ones(3), tol=0.0)
    assert not L1Ball(np.ones(30), 27.0).contains(np.zeros(30))  # ||0-1||_1 = 30 > 27
    assert SpectralBall(0.5, 2).contains(0.5 * np.eye(2), tol=1e-12)


def test_ball_requires_positive_radius():
    with pytest.raises(ValueError):
        L2Ball(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        L1Ball(np.zeros(2), -1.0)


def test_box_requires_ordered_bounds():
    with pytest.raises(ValueError):
        Box([0.0, 1.0], [1.0, 0.0])


def test_support_singleton():
    theta = np.array([[2.0, 0.3], [0.3, 1.0]])
    s = SingletonPSD(theta)
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    value, arg = s.support_linear(h)
    assert value == pytest.approx(float(np.sum(theta * h)), abs=1e-12)
    assert np.allclose(arg, theta)


def test_support_spectral_ball_positive_eigenvalues_only():
    # direction with eigenvalues {1, -2}
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(2, 2)))
    h = (q * np.array([1.0, -2.0])) @ q.T
    ball = SpectralBall(0.5, 2)
    value, arg = ball.support_linear(h)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert ball.contains(arg, tol=1e-9)
    assert float(np.sum(arg * h)) == pytest.approx(value, abs=1e-9)


def test_support_interval_picks_endpoint_by_slope_sign():
    d = 3
    v = np.zeros((d, d))
    v[0, 1] = v[1, 0] = 0.4
    s = MatrixInterval(np.eye(d), v, 0.5, 1.0)
    h = np.zeros((d, d))
    h[0, 1] = h[1, 0] = 2.5  # Tr(VH) = 2 > 0 -> sigma = 1
    value, arg = s.support_linear(h)
    assert np.allclose(arg, s.member(1.0))
    assert value == pytest.approx(float(np.sum(arg * h)), abs=1e-12)
    value_lo, arg_lo = s.support_linear(-h)
    assert np.allclose(arg_lo, s.member(0.5))


def test_support_rejects_asymmetric_direction():
    ball = SpectralBall(1.0, 2)
    with pytest.raises(ValueError, match="symmetric"):
        ball.support_linear(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "mset",
    [
        SingletonPSD(np.array([[1.2, 0.1], [0.1, 0.9]])),
        SpectralBall(0.7, 2),
        MatrixInterval(np.eye(2), np.array([[0.0, 0.3], [0.3, 0.0]]), 0.0, 1.0),
    ],
)
def test_support_dominates_random_members(mset):
    rng = np.random.default_rng(9)
    h = rng.normal(size=(2, 2))
    h = (h + h.T) / 2.0
    value, arg = mset.support_linear(h)
    assert mset.contains(arg, tol=1e-9)
    for _ in range(100):
        member = mset.sample_member(rng)
        assert float(np.sum(member * h)) <= value + 1e-9


def test_singleton_requires_positive_definite_matrix():
    with pytest.raises(ValueError, match="positive definite"):
        SingletonPSD(np.diag([1.0, 1.0, 0.0]))


def test_interval_requires_pd_endpoints():
    v = -np.eye(2)
    with pytest.raises(ValueError, match="positive definite"):
        MatrixInterval(np.eye(2), v, 0.0, 2.0)


def test_spectral_ball_members_stay_inside():
    ball = SpectralBall(0.5, 4)
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = ball.sample_member(rng)
        assert ball.contains(m, tol=1e-9)
