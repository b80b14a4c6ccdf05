import math

import numpy as np
import pytest

from robustcusum import (
    ConvergenceError,
    DomainError,
    Gaussian,
    L1Ball,
    L2Ball,
    SingletonVector,
    SolverOptions,
    build_affine_detector,
    solve_lfp,
)


def test_l2_ball_closed_form():
    d = 30
    sol = solve_lfp(SingletonVector(np.zeros(d)), L2Ball(np.ones(d), math.sqrt(27.0)), np.eye(d))
    assert sol.delta_sq == pytest.approx((math.sqrt(30.0) - math.sqrt(27.0)) ** 2, abs=1e-9)
    assert np.allclose(sol.mu1_star, (1.0 - math.sqrt(27.0 / 30.0)) * np.ones(d), atol=1e-9)
    assert sol.epsilon_star == math.exp(-sol.delta_sq / 8.0)


def test_l1_ball_soft_threshold_solution():
    d = 30
    sol = solve_lfp(SingletonVector(np.zeros(d)), L1Ball(np.ones(d), 27.0), np.eye(d))
    assert sol.delta_sq == pytest.approx(0.3, abs=1e-9)
    assert sol.epsilon_star == pytest.approx(math.exp(-0.0375), abs=1e-9)


def test_overlapping_sets_give_epsilon_one():
    d = 4
    m0 = L2Ball(np.zeros(d), 1.0)
    m1 = L2Ball(0.5 * np.ones(d), 1.0)  # overlaps m0
    sol = solve_lfp(m0, m1, np.eye(d))
    assert sol.delta_sq <= 1e-9
    assert sol.epsilon_star == pytest.approx(1.0, abs=1e-9)


def test_singleton_pair_plugs_into_risk_formula():
    mu1 = np.array([2.0, 2.0])  # Mahalanobis gap 8 under identity
    sol = solve_lfp(SingletonVector(np.zeros(2)), SingletonVector(mu1), np.eye(2))
    assert sol.delta_sq == pytest.approx(8.0, abs=1e-12)
    assert sol.epsilon_star == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_nonidentity_covariance_pair():
    # closest points weighted by Sigma^{-1}: check against direct evaluation
    sigma = np.array([[2.0, 0.4], [0.4, 1.0]])
    m0 = SingletonVector(np.zeros(2))
    m1 = L2Ball(np.array([3.0, 0.0]), 1.0)
    sol = solve_lfp(m0, m1, sigma)
    g = Gaussian(np.zeros(2), sigma)
    # solver optimum must beat a fine sweep of boundary points
    best = min(
        float((p := np.array([3.0 + math.cos(t), math.sin(t)])) @ g.solve_covariance(p))
        for t in np.linspace(0.0, 2.0 * math.pi, 20_001)
    )
    assert sol.delta_sq <= best + 1e-7


def test_restart_invariance_of_gap():
    d = 8
    rng = np.random.default_rng(5)
    m0 = L2Ball(np.zeros(d), 0.5)
    m1 = L1Ball(np.ones(d), 2.0)
    ref = solve_lfp(m0, m1, np.eye(d))
    for _ in range(20):
        init = (rng.normal(size=d) * 3.0, rng.normal(size=d) * 3.0)
        sol = solve_lfp(m0, m1, np.eye(d), init=init)
        assert sol.delta_sq == pytest.approx(ref.delta_sq, rel=1e-6)


def test_fixed_point_optimality_certificate():
    d = 6
    m0 = L2Ball(np.zeros(d), 0.5)
    m1 = L2Ball(np.ones(d), 0.3)
    sol = solve_lfp(m0, m1, np.eye(d))
    eta = 1e-3
    grad = 2.0 * (sol.mu0_star - sol.mu1_star)
    assert np.linalg.norm(m0.project(sol.mu0_star - eta * grad) - sol.mu0_star) <= 1e-7
    assert np.linalg.norm(m1.project(sol.mu1_star + eta * grad) - sol.mu1_star) <= 1e-7


def test_exponential_moment_balance():
    d = 10
    sigma = np.diag(np.linspace(0.5, 2.0, d))
    sol = solve_lfp(SingletonVector(np.zeros(d)), L1Ball(np.ones(d), 5.0), sigma)
    det = build_affine_detector(sol, sigma)
    assert det.moment(Gaussian(sol.mu0_star, sigma), -1.0) == pytest.approx(sol.epsilon_star, abs=1e-10)
    assert det.moment(Gaussian(sol.mu1_star, sigma), 1.0) == pytest.approx(sol.epsilon_star, abs=1e-10)
    assert det.phi((sol.mu0_star + sol.mu1_star) / 2.0) == pytest.approx(0.0, abs=1e-10)


def test_detector_hand_case_d1():
    sol = solve_lfp(SingletonVector([0.0]), SingletonVector([2.0]), np.eye(1))
    det = build_affine_detector(sol, np.eye(1))
    assert det.a[0] == pytest.approx(-1.0, abs=1e-12)
    assert det.c == pytest.approx(1.0, abs=1e-12)
    assert -det.phi([2.0]) == pytest.approx(1.0, abs=1e-12)


def test_detector_symmetric_pair_has_zero_offset():
    m = np.array([0.7, -0.4, 0.2])
    sol = solve_lfp(SingletonVector(-m), SingletonVector(m), np.eye(3))
    det = build_affine_detector(sol, np.eye(3))
    assert det.c == pytest.approx(0.0, abs=1e-12)
    mid = (sol.mu0_star + sol.mu1_star) / 2.0
    assert det.phi(mid) == pytest.approx(0.0, abs=1e-10)


def test_detector_value_at_pre_change_point():
    d = 5
    sol = solve_lfp(SingletonVector(np.zeros(d)), L1Ball(np.ones(d), 0.5 * d), np.eye(d))
    det = build_affine_detector(sol, np.eye(d))
    assert det.phi(sol.mu0_star) == pytest.approx(sol.delta_sq / 4.0, abs=1e-10)


def test_overlapping_sets_refuse_detector():
    d = 3
    sol = solve_lfp(L2Ball(np.zeros(d), 1.0), L2Ball(np.zeros(d), 2.0), np.eye(d))
    with pytest.raises(DomainError, match="overlap"):
        build_affine_detector(sol, np.eye(d))


def test_nonconvergence_carries_last_iterate():
    d = 4
    opts = SolverOptions(tol=1e-16, max_iters=3)
    with pytest.raises(ConvergenceError) as exc:
        solve_lfp(L2Ball(np.zeros(d), 1.0), L2Ball(10.0 * np.ones(d), 1.0), np.diag([1.0, 2.0, 3.0, 4.0]), opts)
    assert exc.value.last_iterate is not None
    assert exc.value.residual > 1e-16


def test_increments_are_negated_phi():
    d = 3
    sol = solve_lfp(SingletonVector(np.zeros(d)), SingletonVector(np.ones(d)), np.eye(d))
    det = build_affine_detector(sol, np.eye(d))
    x = np.random.default_rng(0).normal(size=(10, d))
    assert np.allclose(det.increments(x), [-det.phi(row) for row in x], atol=1e-14)
