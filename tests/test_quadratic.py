import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar
from scipy.stats import multivariate_normal

from robustcusum import (
    AffineDetector,
    ClassSetup,
    ConvergenceError,
    DomainError,
    Gaussian,
    MatrixInterval,
    QuadraticDetector,
    SaddleOptions,
    SeededStream,
    SingletonPSD,
    SpectralBall,
    build_quadratic_detector,
    eval_phi_big,
    llr_detector,
    load_bundled_config,
    parse_config,
    solve_saddle,
)
from robustcusum.config import squared_exp_offdiagonal
from robustcusum.gaussian import exp_quadratic_moment, sample_with
from robustcusum.quadratic import _phi_pieces, _SaddleProblem, _whiten, set_constants


def _singleton_setup(d, u=None, theta=None):
    return ClassSetup(SingletonPSD(np.eye(d) if theta is None else theta), np.zeros(d) if u is None else u)


# -- set constants: (Theta*, delta) from set_constants ------------------------


def test_delta_zero_for_matched_singleton():
    star, delta = set_constants(SingletonPSD(np.eye(3)))
    assert np.array_equal(star, np.eye(3)) and delta == 0.0


def test_set_constants_non_identity_singleton_is_exact():
    m = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]])
    star, delta = set_constants(SingletonPSD(m))
    assert np.array_equal(star, m) and delta == 0.0


def test_delta_for_scaled_identity_interval():
    # members c*I for c in [0.5, 1]: worst member is c = 0.5
    s = MatrixInterval(0.5 * np.eye(3), np.eye(3), 0.0, 0.5)
    _, delta = set_constants(s)
    assert delta == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-9)


def test_delta_for_spectral_ball_is_one():
    # exactly (r I, 1): every member lies below r I and the member 0 attains 1
    for radius, d in ((0.5, 3), (1.0, 2), (2.5, 7)):
        star, delta = set_constants(SpectralBall(radius, d))
        assert np.array_equal(star, radius * np.eye(d)) and delta == 1.0


def test_default_theta_star_interval_falls_back_to_envelope():
    # indefinite direction: neither endpoint dominates the other
    v = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            if i != j:
                v[i, j] = math.exp(-((i - j) ** 2))
    s = MatrixInterval(np.eye(4), v, 0.5, 1.0)
    star, delta = set_constants(s)
    assert not np.allclose(star, s.member(1.0)) and not np.allclose(star, s.member(0.5))
    lam, q = np.linalg.eigh((star + star.T) / 2.0)
    inv_sqrt = (q / np.sqrt(lam)) @ q.T
    for sigma in np.linspace(0.5, 1.0, 101):
        member = s.member(float(sigma))
        assert np.linalg.eigvalsh(star - member)[0] >= -1e-9
        lam_m, q_m = np.linalg.eigh(member)
        root = (q_m * np.sqrt(lam_m)) @ q_m.T
        assert np.linalg.norm(root @ inv_sqrt - np.eye(4), 2) <= delta + 1e-9
    assert 0.0 < delta < 1.0


def test_default_theta_star_interval_uses_endpoint_when_dominant():
    s = MatrixInterval(0.5 * np.eye(3), np.eye(3), 0.0, 0.5)  # direction PSD: top endpoint dominates
    star, _ = set_constants(s)
    assert np.array_equal(star, s.member(0.5))


@pytest.mark.parametrize(
    "uset",
    [
        SingletonPSD(np.diag([2.0, 1.0, 0.5])),
        SpectralBall(0.5, 3),
        MatrixInterval(np.eye(3), squared_exp_offdiagonal(3), 0.5, 1.0),
        MatrixInterval(0.5 * np.eye(3), np.eye(3), 0.0, 0.5),
    ],
    ids=["singleton", "ball", "interval-envelope", "interval-endpoint"],
)
def test_class_setup_draws_no_random_numbers(uset, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ClassSetup built a random generator")

    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    setup = ClassSetup(uset, np.zeros(3))
    assert setup.theta_star.shape == (3, 3)


# -- bounding function ------------------------------------------------------


def test_phi_big_vanishes_at_origin():
    setup = _singleton_setup(3)
    assert eval_phi_big(np.zeros(3), np.zeros((3, 3)), np.eye(3), setup) == pytest.approx(0.0, abs=1e-14)


def test_phi_big_d1_hand_expansion():
    setup = _singleton_setup(1)
    eta = 0.37
    val = eval_phi_big(np.array([eta]), np.zeros((1, 1)), np.eye(1), setup)
    assert val == pytest.approx(0.5 * eta * eta, abs=1e-12)


def test_phi_big_d1_hand_case_with_mean():
    # log E exp(eta x) for x ~ N(mu, 1) is eta mu + eta^2 / 2
    mu, eta = 0.7, 0.37
    setup = _singleton_setup(1, u=np.array([mu]))
    val = eval_phi_big(np.array([eta]), np.zeros((1, 1)), np.eye(1), setup)
    assert val == pytest.approx(eta * mu + 0.5 * eta * eta, abs=1e-12)
    assert val == pytest.approx(0.32745, abs=1e-12)


def test_class_setup_rejects_mean_of_wrong_length():
    with pytest.raises(DomainError, match="mean dimension 2 does not match set dimension 3"):
        ClassSetup(SingletonPSD(np.eye(3)), np.zeros(2))


def test_phi_big_matches_gaussian_log_moment_at_theta_star():
    # with delta=0 and Theta=Theta*, the bound is the exact log-MGF: against
    # the closed-form Gaussian moment and against Monte Carlo draws
    rng = np.random.default_rng(2)
    d = 3
    u = rng.normal(size=d) * 0.4
    theta = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.6]])
    setup = _singleton_setup(d, u=u, theta=theta)
    g = Gaussian(u, theta)
    x = sample_with(g, SeededStream(3, 1).generator(), 200_000)
    for _ in range(20):
        h = rng.normal(size=d) * 0.3
        a = rng.normal(size=(d, d))
        big_h = (a + a.T) / 2 * 0.15
        assert np.max(np.abs(np.linalg.eigvalsh(setup.sqrt @ big_h @ setup.sqrt))) < 1.0  # inside the domain
        val = eval_phi_big(h, big_h, theta, setup)
        assert val == pytest.approx(math.log(exp_quadratic_moment(g, big_h, h, 0.0)), abs=1e-10)
        quad = 0.5 * np.einsum("ij,ij->i", x @ big_h, x) + x @ h
        mc = math.log(float(np.mean(np.exp(quad))))
        assert val == pytest.approx(mc, abs=4e-2)


def test_phi_big_midpoint_convexity():
    rng = np.random.default_rng(7)
    d = 3
    setup = ClassSetup(SpectralBall(0.6, d), rng.normal(size=d) * 0.2)
    for _ in range(200):
        def rand_point():
            h = rng.normal(size=d) * 0.5
            a = rng.normal(size=(d, d))
            return h, (a + a.T) / 2 * 0.2
        h1, b1 = rand_point()
        h2, b2 = rand_point()
        theta = setup.uset.sample_member(rng)
        v1 = eval_phi_big(h1, b1, theta, setup)
        v2 = eval_phi_big(h2, b2, theta, setup)
        vm = eval_phi_big((h1 + h2) / 2, (b1 + b2) / 2, theta, setup)
        assert vm <= (v1 + v2) / 2 + 1e-9


def test_phi_big_linear_in_theta():
    rng = np.random.default_rng(8)
    d = 4
    setup = ClassSetup(SpectralBall(0.5, d), np.zeros(d))
    h = rng.normal(size=d) * 0.2
    a = rng.normal(size=(d, d))
    big_h = (a + a.T) / 2 * 0.2
    t1 = setup.uset.sample_member(rng)
    t2 = setup.uset.sample_member(rng)
    lhs = eval_phi_big(h, big_h, t1, setup) - eval_phi_big(h, big_h, t2, setup)
    rhs = 0.5 * float(np.sum((t1 - t2) * big_h))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_phi_big_domain_error_near_unit_whitened_norm():
    setup = _singleton_setup(2)
    with pytest.raises(DomainError, match="spectral norm"):
        eval_phi_big(np.zeros(2), 1.0000001 * np.eye(2), np.eye(2), setup)


def test_subgradients_match_finite_differences():
    # central differences at random smooth points; the spectral-norm term is
    # only sampled where the top eigenvalue is clearly separated
    rng = np.random.default_rng(12)
    d = 3
    setups = [
        _singleton_setup(d, u=rng.normal(size=d) * 0.3),
        ClassSetup(SpectralBall(0.5, d), np.zeros(d)),
        ClassSetup(MatrixInterval(np.eye(d), np.diag([0.0, 0.3, -0.2]), 0.0, 1.0), np.zeros(d)),
    ]
    checked = 0
    step = 1e-5
    while checked < 100:
        setup = setups[checked % len(setups)]
        a = rng.normal(size=d) * 0.3
        m = rng.normal(size=(d, d))
        big_a = (m + m.T) / 2 * 0.2
        w = setup.sqrt @ big_a @ setup.sqrt
        lam = np.abs(np.linalg.eigvalsh(w))
        lam_sorted = np.sort(lam)
        if setup.delta > 0 and lam_sorted[-1] - lam_sorted[-2] <= 1e-3:
            continue
        val, ga, gA, _ = _phi_pieces(setup, a, big_a, theta=None)
        i = int(rng.integers(d))
        ap, am = a.copy(), a.copy()
        ap[i] += step
        am[i] -= step
        vp, *_ = _phi_pieces(setup, ap, big_a, theta=None)
        vm, *_ = _phi_pieces(setup, am, big_a, theta=None)
        fd = (vp - vm) / (2 * step)
        assert ga[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        j, k = sorted(rng.integers(d, size=2))
        pert = np.zeros((d, d))
        pert[j, k] = pert[k, j] = 1.0  # symmetric coordinate direction
        vp, *_ = _phi_pieces(setup, a, big_a + step * pert, theta=None)
        vm, *_ = _phi_pieces(setup, a, big_a - step * pert, theta=None)
        fd = (vp - vm) / (2 * step)
        expected = float(np.sum(gA * pert))
        assert expected == pytest.approx(fd, rel=1e-4, abs=1e-7)
        checked += 1


# -- saddle solver ----------------------------------------------------------


def test_saddle_identical_classes_is_trivial():
    setup = _singleton_setup(2)
    sol = solve_saddle(setup, setup)
    assert sol.sv == pytest.approx(0.0, abs=1e-12)
    assert sol.epsilon_star == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.h_star, 0.0) and np.allclose(sol.H_star, 0.0)
    det = build_quadratic_detector(sol, setup, setup)
    for x in ([0.4, -1.0], [2.0, 2.0]):
        assert det.phi(x) == pytest.approx(0.0, abs=1e-12)


def _best_affine_risk(u0, u1, sigma):
    """Brute-force oracle: grid over scaled likelihood-ratio detectors
    a = -s * Sigma^{-1}(u1-u0) and offsets c, minimizing the worse of the two
    closed-form exponential moments (exp(-phi) under u0, exp(+phi) under u1)."""
    g = Gaussian(np.zeros(len(u0)), sigma)
    direction = g.solve_covariance(u1 - u0)
    best = math.inf
    for s in np.linspace(0.05, 1.2, 120):
        a = -s * direction
        quad = 0.5 * float(a @ sigma @ a)
        for c in np.linspace(-3.0, 3.0, 241):
            m0 = math.exp(-float(a @ u0) - c + quad)
            m1 = math.exp(float(a @ u1) + c + quad)
            best = min(best, max(m0, m1))
    return best


@pytest.mark.parametrize("dsq", [2.0, 8.0])
def test_saddle_degenerate_singleton_matches_affine_oracle(dsq):
    d = 3
    u1 = np.zeros(d)
    u1[0] = math.sqrt(dsq)
    target = math.exp(-dsq / 8.0)
    oracle = _best_affine_risk(np.zeros(d), u1, np.eye(d))
    assert oracle == pytest.approx(target, abs=2e-3)  # validates the target itself
    s0 = _singleton_setup(d)
    s1 = _singleton_setup(d, u=u1)
    sol = solve_saddle(s0, s1)
    assert sol.gap <= 1e-4
    assert math.exp(sol.sv) == pytest.approx(target, abs=1e-2)


def test_saddle_spectral_ball_with_support_brute_force():
    d = 2
    s0 = _singleton_setup(d)
    s1 = ClassSetup(SpectralBall(0.5, d), np.zeros(d))
    sol = solve_saddle(s0, s1)
    assert sol.sv < 0.0
    assert sol.gap <= 1e-4
    # exact inner max dominates 10^4 sampled members of U1
    rng = np.random.default_rng(4)
    value, arg = s1.uset.support_linear(sol.H_star)
    sampled = max(float(np.sum(s1.uset.sample_member(rng) * sol.H_star)) for _ in range(10_000))
    assert value >= sampled - 1e-9
    assert s1.uset.contains(arg, tol=1e-9)


def test_saddle_value_monotone_in_ball_radius():
    d = 2
    s0 = _singleton_setup(d)
    svs = []
    for rho in (0.3, 0.5):
        s1 = ClassSetup(SpectralBall(rho, d), np.zeros(d))
        svs.append(solve_saddle(s0, s1).sv)
    assert svs[1] >= svs[0] - 1e-6  # larger post-change set cannot be easier


def test_saddle_rejects_bad_beta_and_dims():
    s2 = _singleton_setup(2)
    s3 = _singleton_setup(3)
    with pytest.raises(DomainError, match="beta"):
        solve_saddle(s2, s2, opts=SaddleOptions(beta=1.0))
    with pytest.raises(DomainError, match="dimensions"):
        solve_saddle(s2, s3)


@pytest.mark.parametrize(
    "u0, u1",
    [
        (SingletonPSD(np.eye(3)), SpectralBall(1.5, 3)),
        (SpectralBall(2.0, 3), SingletonPSD(np.diag([1.0, 2.0, 0.5]))),
        (SpectralBall(0.1, 3), SpectralBall(0.5, 3)),
        (SingletonPSD(np.eye(3)), MatrixInterval(np.eye(3), squared_exp_offdiagonal(3), -0.2, 0.3)),
        (MatrixInterval(np.eye(3), squared_exp_offdiagonal(3), 0.5, 1.0), SpectralBall(3.0, 3)),
    ],
    ids=["singleton-in-ball", "ball-holds-singleton", "two-balls", "singleton-in-interval", "interval-in-ball"],
)
def test_saddle_refuses_overlapping_classes(u0, u1):
    with pytest.raises(DomainError, match="uncertainty sets overlap; change undetectable"):
        solve_saddle(ClassSetup(u0, np.zeros(3)), ClassSetup(u1, np.zeros(3)))


def _interval_ball_pair(radius_offset):
    """An interval whose largest eigenvalue is least inside its sigma range
    (indefinite direction), against a ball whose radius is that least value
    plus `radius_offset`, found by scipy's bounded search.  Equal means."""
    base, direction = np.diag([2.0, 1.0, 1.2]), np.diag([1.0, -1.0, 0.0]) + 0.1 * squared_exp_offdiagonal(3)
    interval = MatrixInterval(base, direction, -0.9, 0.9)
    least = minimize_scalar(
        lambda s: np.linalg.eigvalsh(interval.member(s))[-1], bounds=(-0.9, 0.9), method="bounded", options={"xatol": 1e-12}
    )
    assert -0.8 < least.x < 0.8  # the least lambda_max is inside the range, not at an end
    return ClassSetup(interval, np.zeros(3)), ClassSetup(SpectralBall(least.fun + radius_offset, 3), np.zeros(3))


def test_interval_against_ball_is_refused_only_on_a_witness():
    # a ball just wider than the interval's least lambda_max holds that member
    # (either class order); one just narrower holds none, and the solver runs
    for offset, refused in ((1e-6, True), (-1e-6, False)):
        s0, s1 = _interval_ball_pair(offset)
        for pair in ((s0, s1), (s1, s0)):
            if refused:
                with pytest.raises(DomainError, match="uncertainty sets overlap; change undetectable"):
                    solve_saddle(*pair)
            else:
                with pytest.raises(ConvergenceError):
                    solve_saddle(*pair, opts=SaddleOptions(max_iters=1))


@pytest.mark.parametrize(
    "u1, max_iterations",
    [
        (MatrixInterval(np.eye(3), squared_exp_offdiagonal(3), 0.8, 1.2), 4),
        (MatrixInterval(np.eye(3), squared_exp_offdiagonal(3), 1.0, 1.2), 1),
        # 1e-3 below the interval's least lambda_max (1.26475): no shared member
        (SpectralBall(1.26375, 3), 15),
    ],
    ids=["sharing-0.8-to-1", "touching-at-1", "near-ball"],
)
def test_overlapping_intervals_stay_with_the_solver(u1, max_iterations):
    # interval pairs are not searched for overlap, and a ball a hair short of
    # the interval is not refused; the solver certifies sv = 0 within a few
    # Frank-Wolfe iterations, each one inner solve
    s0 = ClassSetup(MatrixInterval(np.eye(3), squared_exp_offdiagonal(3), 0.5, 1.0), np.zeros(3))
    sol = solve_saddle(s0, ClassSetup(u1, np.zeros(3)))
    assert sol.sv == 0.0 and sol.gap <= 1e-4 and sol.iterations <= max_iterations


def test_saddle_two_balls_with_different_means_solve():
    # equal balls overlap only when the class means agree too (criterion 8's
    # singleton pair with different means is the affine-oracle test above)
    u1 = np.array([math.sqrt(2.0), 0.0, 0.0])
    sol = solve_saddle(ClassSetup(SpectralBall(0.5, 3), np.zeros(3)), ClassSetup(SpectralBall(0.5, 3), u1))
    assert sol.gap <= 1e-4 and sol.sv < 0.0


def test_saddle_feasibility_of_solution():
    d = 3
    s0 = _singleton_setup(d)
    s1 = ClassSetup(SpectralBall(0.5, d), np.zeros(d))
    sol = solve_saddle(s0, s1)
    for setup in (s0, s1):
        w = setup.sqrt @ sol.H_star @ setup.sqrt
        assert np.max(np.abs(np.linalg.eigvalsh((w + w.T) / 2))) <= 0.99 + 1e-8
    assert s0.uset.contains(sol.theta0_star, tol=1e-8)
    assert s1.uset.contains(sol.theta1_star, tol=1e-8)
    assert sol.epsilon_star == math.exp(sol.sv)
    assert sol.gap >= 0.0


# -- symmetry-reduced oracles -----------------------------------------------
#
# A convex problem invariant under a group has an invariant optimum
# (Gatermann & Parrilo 2004).  With zero means, h* = 0 and:
# * spectral ball vs the identity: rotations fix both classes, so H* = c I;
# * interval {I + sigma V} vs the identity: sign flips in the eigenbasis of V
#   fix both classes, so H* is diagonal in that basis.
# The oracles write the bounding function out on the reduced variables; from
# the package they read only theta_star and delta.

_BETA = SaddleOptions().beta
# two float evaluations of one optimum may differ in their last bits
_ROUNDING = 1e-12


def _kd(delta):
    return delta * (2.0 + delta) / 2.0


def _spectral_oracle(d, rho, s0, s1):
    """Saddle value over H = c I: class 0 is {I}, class 1 the spectral ball
    of radius rho."""
    assert np.array_equal(s0.theta_star, np.eye(d)) and s0.delta == 0.0
    t1 = s1.theta_star[0, 0]
    assert np.array_equal(s1.theta_star, t1 * np.eye(d))
    kd1 = _kd(s1.delta)

    def objective(c):
        phi0 = -0.5 * d * math.log1p(c)
        w = t1 * c  # every whitened eigenvalue of class 1
        phi1 = -0.5 * d * math.log1p(-w) + 0.5 * d * (rho * max(c, 0.0) - w) + kd1 * d * w * w / (1.0 - abs(w))
        return 0.5 * (phi0 + phi1)

    c_max = min(_BETA, _BETA / t1)
    res = minimize_scalar(objective, bounds=(-c_max, c_max), method="bounded", options={"xatol": 1e-12})
    return objective(res.x)


def _interval_oracle(d, s0, s1, uset):
    """Saddle value over H diagonal in V's eigenbasis: class 0 is {I}, class 1
    the interval {I + sigma V}.  SLSQP on (x, s, t): x the diagonal of H,
    s the epigraph of the support function, t of the whitened spectral norm.
    Returns (value at the optimal x, eigenbasis of V)."""
    assert np.array_equal(s0.theta_star, np.eye(d)) and s0.delta == 0.0
    v, q = np.linalg.eigh(uset.direction)
    star = q.T @ s1.theta_star @ q
    t1 = np.diag(star)
    assert np.max(np.abs(star - np.diag(t1))) <= 1e-12
    kd1 = _kd(s1.delta)
    slopes = [np.ones(d) + sig * v for sig in (uset.sigma_lo, uset.sigma_hi)]

    def smooth(x, s, t):
        w = t1 * x
        phi0 = -0.5 * np.sum(np.log1p(x))
        phi1 = -0.5 * np.sum(np.log1p(-w)) + 0.5 * (s - np.sum(w)) + kd1 * np.sum(w * w) / (1.0 - t)
        return 0.5 * (phi0 + phi1)

    def exact(x):
        return smooth(x, max(float(g @ x) for g in slopes), float(np.max(np.abs(t1 * x))))

    cons = [{"type": "ineq", "fun": lambda z, g=g: z[d] - g @ z[:d]} for g in slopes]
    cons += [
        {"type": "ineq", "fun": lambda z: z[d + 1] - t1 * z[:d]},
        {"type": "ineq", "fun": lambda z: z[d + 1] + t1 * z[:d]},
    ]
    bounds = [(-_BETA, min(_BETA, _BETA / t)) for t in t1] + [(None, None), (0.0, _BETA)]
    x0 = np.full(d, 0.1)
    z0 = np.concatenate([x0, [max(float(g @ x0) for g in slopes), float(np.max(t1 * x0))]])
    res = minimize(
        lambda z: smooth(z[:d], z[d], z[d + 1]), z0, method="SLSQP",
        bounds=bounds, constraints=cons, options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert res.success, res.message
    return exact(res.x[:d]), q


@pytest.mark.parametrize("d", [10, 30])
def test_saddle_spectral_ball_matches_symmetry_oracle(d):
    rho = 0.5
    s0 = _singleton_setup(d)
    s1 = ClassSetup(SpectralBall(rho, d), np.zeros(d))
    sol = solve_saddle(s0, s1)
    oracle = _spectral_oracle(d, rho, s0, s1)
    assert -_ROUNDING <= sol.sv - oracle <= sol.gap
    assert np.linalg.norm(sol.h_star) <= 1e-8
    assert np.linalg.norm(sol.H_star - np.trace(sol.H_star) / d * np.eye(d)) <= 1e-8


@pytest.mark.parametrize("d", [10, 30])
def test_saddle_interval_matches_symmetry_oracle(d):
    uset = MatrixInterval(np.eye(d), squared_exp_offdiagonal(d), 0.5, 1.0)
    s0 = _singleton_setup(d)
    s1 = ClassSetup(uset, np.zeros(d))
    sol = solve_saddle(s0, s1)
    oracle, q = _interval_oracle(d, s0, s1, uset)
    assert -_ROUNDING <= sol.sv - oracle <= sol.gap
    assert np.linalg.norm(sol.h_star) <= 1e-8
    in_basis = q.T @ sol.H_star @ q
    assert np.linalg.norm(in_basis - np.diag(np.diag(in_basis))) <= 1e-8


# criterion 11's d=3 covariance scenario (tests/test_acceptance.py)
_D3_COV_ROW = {
    "dimension": 3,
    "gamma": 200.0,
    "arl_trials": 100,
    "delay_trials": 100,
    "seed": 5,
    "threshold_mode": "calibrated",
    "scenarios": [
        {
            "name": "cov_row",
            "kind": "covariance_shift",
            "u0": {"variant": "singleton_psd", "matrix": "identity"},
            "u1": {"variant": "spectral_ball", "radius": 0.5},
            "true_post_cov": {"kind": "random_member"},
            "baseline": {"post_cov": {"kind": "random_member"}},
        }
    ],
}


def _scenario_problem(config, name):
    """(setup0, setup1, saddle options) of one covariance scenario; `config`
    is a bundled config name or a config document."""
    cfg = load_bundled_config(config) if isinstance(config, str) else parse_config(json.dumps(config))
    scen = next(s for s in cfg.scenarios if s.name == name)
    (mean0, cov0), (mean1, cov1) = scen.classes
    return ClassSetup(cov0, mean0), ClassSetup(cov1, mean1), cfg.saddle_options


def test_saddle_work_count_on_paper_interval(monkeypatch):
    """The d=30 cov_interval solve of table1_paper.cfg stays inside a work
    budget, counted rather than timed.  Its first fixed-Theta inner
    minimization alone once made 3,371 objective evaluations for a bound
    that certified nothing."""
    s0, s1, opts = _scenario_problem("table1_paper.cfg", "cov_interval")
    counts = {"value_grad": 0, "eigh": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_SaddleProblem, "value_grad", counting(_SaddleProblem.value_grad, "value_grad"))
    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, "eigh"))
    sol = solve_saddle(s0, s1, opts)
    assert sol.gap <= opts.gap_tol
    # 617 evaluations and 2,488 eigh calls when written; 3,903 and 22,930 before
    # the inner stagnation exit and the shared whitening
    assert counts["value_grad"] <= 1_000, counts
    assert counts["eigh"] <= 4_000, counts


@pytest.mark.parametrize(
    "config, name",
    [(_D3_COV_ROW, "cov_row"), ("table1_desk.cfg", "cov_interval"), ("table1_desk.cfg", "cov_spectral")],
    ids=["d3-cov_row", "desk-cov_interval", "desk-cov_spectral"],
)
def test_saddle_certifies_after_the_first_outer_step(config, name, monkeypatch):
    # iteration 0 solves at the Thetas maximizing at H = 0, which all tie
    # there; the maximizing Thetas of its inner solution, where iteration 1
    # solves, already close the gap
    s0, s1, opts = _scenario_problem(config, name)
    calls = []
    inner_min = _SaddleProblem.inner_min
    monkeypatch.setattr(_SaddleProblem, "inner_min", lambda self, *args: calls.append(1) or inner_min(self, *args))
    sol = solve_saddle(s0, s1, opts)
    assert sol.iterations == 1
    assert sol.gap <= opts.gap_tol
    assert len(calls) == 2


def test_uncertified_solve_takes_one_inner_solve_per_iteration(monkeypatch):
    # max_iters = 3 allows iterations 0..3, each one inner solve at Thetas in
    # the sets: the Frank-Wolfe step keeps them convex combinations of members
    s0, s1, _ = _scenario_problem(_D3_COV_ROW, "cov_row")
    seen = []
    inner_min = _SaddleProblem.inner_min

    def recording(self, th0, th1, big_h):
        seen.append((th0, th1))
        return inner_min(self, th0, th1, big_h)

    monkeypatch.setattr(_SaddleProblem, "inner_min", recording)
    with pytest.raises(ConvergenceError, match="reached 3 iterations"):
        solve_saddle(s0, s1, SaddleOptions(gap_tol=1e-300, max_iters=3))
    assert len(seen) == 4
    for th0, th1 in seen:
        assert s0.uset.contains(th0, tol=1e-9) and s1.uset.contains(th1, tol=1e-9)


def test_whiten_takes_class_1_decomposition_from_the_projection(monkeypatch):
    s0, s1, opts = _scenario_problem("table1_desk.cfg", "cov_interval")
    eigh_calls = [0]
    eigh = np.linalg.eigh

    def counting_eigh(a):
        eigh_calls[0] += 1
        return eigh(a)

    projected = {}
    project, whiten = _SaddleProblem.project, _SaddleProblem.whiten

    def recording_project(self, big_h):
        projected["H"], projected["white1"] = out = project(self, big_h)
        return out

    handed = []

    def checking_whiten(self, big_h, white1=None):
        if big_h is projected.get("H") and projected["white1"] is not None:
            assert white1 is projected["white1"]  # the projection's last clip left H unchanged
        before = eigh_calls[0]
        out = whiten(self, big_h, white1)
        assert eigh_calls[0] - before == (2 if white1 is None else 1)
        if white1 is not None:
            assert out[1] is white1
            assert all(map(np.array_equal, white1, _whiten(self.s1, big_h)))
            handed.append(white1)
        return out

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(_SaddleProblem, "project", recording_project)
    monkeypatch.setattr(_SaddleProblem, "whiten", checking_whiten)
    sol = solve_saddle(s0, s1, opts)
    assert sol.gap <= opts.gap_tol
    assert len(handed) >= 10, len(handed)


def _spectral_ball_audit():
    """A solved d=3 spectral-ball detector, its bound exp(sv), and one
    pre-change and ten post-change members, each with its Monte Carlo draws."""
    d = 3
    s0 = _singleton_setup(d)
    s1 = ClassSetup(SpectralBall(0.5, d), np.zeros(d))
    sol = solve_saddle(s0, s1)
    det = build_quadratic_detector(sol, s0, s1)
    g0 = Gaussian(np.zeros(d), np.eye(d))
    members = [(g0, sample_with(g0, SeededStream(1, 0).generator(), 50_000))]
    rng = np.random.default_rng(6)
    for k in range(10):
        g1 = Gaussian(np.zeros(d), s1.uset.sample_member(rng) + 1e-9 * np.eye(d))
        members.append((g1, sample_with(g1, SeededStream(2, k).generator(), 20_000)))
    return det, math.exp(sol.sv), members


def test_detector_moment_bounds_by_monte_carlo():
    det, bound, members = _spectral_ball_audit()
    # pre-change member
    x = members[0][1]
    vals = np.exp(-np.array([det.phi(row) for row in x[:2000]]))
    assert vals.mean() <= bound + 3 * vals.std(ddof=1) / math.sqrt(len(vals))
    for _, x in members[1:]:
        vals = np.exp(det.increments(x) * -1.0)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert vals.mean() <= bound + 3 * se


def test_exact_moment_matches_monte_carlo():
    # the closed-form moment against the sample mean of exp(sign * phi) on
    # the same draws; the pre-change member uses exp(-phi), the rest exp(+phi)
    det, bound, members = _spectral_ball_audit()
    for k, (g, x) in enumerate(members):
        sign = -1.0 if k == 0 else 1.0
        vals = np.exp(-sign * det.increments(x))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        exact = det.moment(g, sign)
        assert abs(exact - vals.mean()) <= 4 * se
        assert exact <= bound + 1e-10


def test_detector_two_evaluation_paths_agree():
    d = 3
    s0 = _singleton_setup(d)
    s1 = ClassSetup(SpectralBall(0.5, d), np.zeros(d))
    sol = solve_saddle(s0, s1)
    det = build_quadratic_detector(sol, s0, s1)
    kappa = 0.5 * (
        eval_phi_big(-sol.h_star, -sol.H_star, sol.theta0_star, s0)
        - eval_phi_big(sol.h_star, sol.H_star, sol.theta1_star, s1)
    )
    rng = np.random.default_rng(10)
    for _ in range(20):
        xi = rng.normal(size=d)
        direct = 0.5 * float(xi @ sol.H_star @ xi) + float(sol.h_star @ xi) + kappa
        assert det.phi(xi) == pytest.approx(direct, abs=1e-12)


def test_singleton_pair_detector_balances_at_midpoint():
    d = 2
    u1 = np.array([1.3, -0.4])
    s0 = _singleton_setup(d)
    s1 = _singleton_setup(d, u=u1)
    sol = solve_saddle(s0, s1)
    det = build_quadratic_detector(sol, s0, s1)
    assert det.phi(u1 / 2.0) == pytest.approx(0.0, abs=1e-3)


def test_llr_detector_matches_log_density_ratio():
    rng = np.random.default_rng(13)
    d = 3
    a0 = rng.normal(size=(d, d))
    a1 = rng.normal(size=(d, d))
    g0 = Gaussian(rng.normal(size=d), a0 @ a0.T + np.eye(d))
    g1 = Gaussian(rng.normal(size=d), a1 @ a1.T + np.eye(d))
    det = llr_detector(g0, g1)
    xs = rng.normal(size=(50, d))
    expected = multivariate_normal(g1.mean, g1.covariance).logpdf(xs) - multivariate_normal(
        g0.mean, g0.covariance
    ).logpdf(xs)
    assert np.allclose(det.increments(xs), expected, atol=1e-10)


@pytest.mark.parametrize("d", [1, 3, 30])
def test_equal_covariance_llr_is_affine_and_bit_equal(d):
    rng = np.random.default_rng(100 + d)
    a = rng.normal(size=(d, d))
    cov = a @ a.T + np.eye(d)
    g0 = Gaussian(rng.normal(size=d), cov)
    g1 = Gaussian(rng.normal(size=d), cov)
    det = llr_detector(g0, g1)
    assert isinstance(det, AffineDetector)
    # the quadratic form the detector replaces, from the pair's inverses
    eye = np.eye(d)
    inv0, inv1 = g0.solve_covariance(eye), g1.solve_covariance(eye)
    big_h = inv1 - inv0
    h = inv0 @ g0.mean - inv1 @ g1.mean
    assert not big_h.any() and np.array_equal(det.a, h)
    xs = 3.0 * rng.normal(size=(400, d))
    quadratic_form = -(0.5 * np.einsum("ij,ij->i", xs @ big_h, xs) + xs @ h + det.c)
    assert np.array_equal(det.increments(xs), quadratic_form)
    expected = multivariate_normal(g1.mean, cov).logpdf(xs) - multivariate_normal(g0.mean, cov).logpdf(xs)
    assert np.allclose(det.increments(xs), expected, atol=1e-9)
    # a pair with unequal covariances keeps the quadratic term
    assert isinstance(llr_detector(g0, Gaussian(g1.mean, 2.0 * cov)), QuadraticDetector)
