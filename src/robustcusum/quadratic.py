"""Quadratic detectors for joint mean/covariance uncertainty.

The detector phi(xi) = xi^T H xi / 2 + h^T xi + kappa is designed so that its
exponential moments under every distribution in the pre-change class (with
exp(-phi)) and the post-change class (with exp(+phi)) are bounded by
exp(sv), where sv is the value of a convex-concave saddle problem over
(h, H) and the class covariances (Theta0, Theta1).

Each class's dominating Theta* and its contraction bound delta come from
set_constants, per set kind and without sampling any member (an interval's
delta is a grid maximum).  Classes that provably share a Gaussian law are
refused before the first iteration.

Structure of the saddle problem exploited here:

* The Theta-dependence of the bounding function is linear (only the term
  Tr((Theta - Theta*) A) / 2), so the maximization over Theta is an exact
  support function call on the covariance uncertainty set.  It gives the
  max-form objective g(h, H), whose value at any feasible (h, H) bounds the
  saddle value from above.
* (h, H) is constrained only through H: eigenvalues of the whitened matrix
  Theta*^{1/2} H Theta*^{1/2} must lie in [-beta, beta] for each class.
  Projection is eigenvalue clipping in each whitened basis, alternated
  between the two classes (cyclic projection).
* Each class has one known mean u, so its lifted second-moment term is the
  closed form u'Au + 2a'u + v'Rv at the class's detector pair (a, A) =
  +-(h, H), with v = Au + a and R = (Theta*^{-1} - A)^{-1}.  The objective is
  then an explicit strongly convex quadratic in h at fixed H, so h is
  eliminated exactly by a linear solve.
  This yields rigorous duality-gap certificates: for any fixed feasible
  (Theta0, Theta1), the reduced objective G(H) = min_h F(h, H) is convex and
  G(H) + min_{H' feasible} <grad, H' - H> lower-bounds the saddle value.

The outer loop is Frank-Wolfe on (Theta0, Theta1) (Frank & Wolfe 1956;
Jaggi 2013).  The objective is linear in Theta, so psi(Theta) = min over
(h, H) is concave, and its linear oracle is the sets' support function.
Iteration k minimizes at fixed Thetas; the certified bound of that inner
solve lower-bounds the saddle value, and the max-form value at its minimizer
is an upper bound whose maximizing Thetas are the oracle's vertex.  Their
difference is the Frank-Wolfe gap and the duality gap at once.  Until it
passes the requested tolerance, the Thetas step toward the vertex with
gamma = 2 / (k + 2), and the next inner solve starts from this H.  Iteration
0 solves at the Thetas maximizing at H = 0, where the linear Theta term
vanishes, every member of each set ties and the support function returns an
arbitrary one (the spectral ball returns Theta = 0, where the optimum needs
radius * I).  Its step has gamma = 1, so iteration 1 solves at its
minimizer's maximizing Thetas and, on every shipped scenario, closes the gap.

Each inner minimization is projected gradient, which stops once its accepted
steps only move the value's last digits: near the spectral-norm kink
(delta > 0) it otherwise zig-zags for thousands of steps without improving
the bound.  Every trial H of that inner loop is whitened and eigendecomposed
once per class, and the exact h-solve and the objective share the result;
class 1's decomposition is the projection's own whenever its last clip left
H unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .gaussian import Gaussian, exp_quadratic_moment, symmetrize
from .lfp import AffineDetector
from .sets import MatrixInterval, MatrixSet, SingletonPSD, SpectralBall

_DOMAIN_MARGIN = 1e-9
_DOMINATION_TOL = 1e-9
# sigma grid over which an interval's delta is maximized; endpoints included
_INTERVAL_DELTA_GRID = 17
# golden-section steps of the interval-in-ball overlap search: the bracket
# shrinks by 0.618**64, about 4e-14 of the sigma range
_GOLDEN_STEPS = 64

# saddle solver: steps per fixed-Theta inner minimization, the inner
# stagnation exit (that many accepted steps in a row, each lowering the value
# by at most _INNER_STALL_TOL * (1 + |value|)), cyclic-projection sweeps and
# their stopping tolerance
_INNER_MAX_ITERS = 4_000
_INNER_STALL_STEPS = 20
_INNER_STALL_TOL = 1e-8
_PROJECTION_ROUNDS = 50
_PROJECTION_TOL = 1e-12


# ---------------------------------------------------------------------------
# class setup: (U, mean, Theta*, delta)
# ---------------------------------------------------------------------------


def _psd_sqrt(mat):
    lam, q = np.linalg.eigh(mat)
    lam = np.maximum(lam, 0.0)
    return (q * np.sqrt(lam)) @ q.T


def _dominates(theta_star, theta) -> bool:
    return float(np.linalg.eigvalsh(theta_star - theta)[0]) >= -_DOMINATION_TOL


def _interval_constants(uset: MatrixInterval):
    """(Theta*, delta) for {B + sigma V : sigma in [lo, hi]}.

    lambda_min(E - B - sigma V) is concave in sigma, so E dominates the whole
    segment as soon as it dominates both endpoints.  Theta* is the endpoint
    with the larger trace when it dominates the other one, else the envelope
    B + sigma_mid V + (sigma_spread / 2) |V|, which dominates every member
    even for indefinite V.

    delta is the maximum of ||Theta(sigma)^{1/2} Theta*^{-1/2} - I|| over
    _INTERVAL_DELTA_GRID evenly spaced sigmas, endpoints included.  That is a
    sample, not a proof: no argument yet places the supremum on the grid.
    """
    lo, hi = uset.member(uset.sigma_lo), uset.member(uset.sigma_hi)
    star, other = (hi, lo) if np.trace(hi) >= np.trace(lo) else (lo, hi)
    if not _dominates(star, other):
        mid = 0.5 * (uset.sigma_lo + uset.sigma_hi)
        spread = 0.5 * (uset.sigma_hi - uset.sigma_lo)
        lam, q = np.linalg.eigh(uset.direction)
        star = uset.member(mid) + spread * ((q * np.abs(lam)) @ q.T)
        if not (_dominates(star, lo) and _dominates(star, hi)):
            raise DomainError("the interval's envelope does not dominate its endpoints")
    # the envelope is asymmetric in its last bits; delta reads (E + E') / 2
    lam, q = np.linalg.eigh(symmetrize(star))
    inv_sqrt = (q / np.sqrt(lam)) @ q.T
    eye = np.eye(uset.dim)
    grid = np.linspace(uset.sigma_lo, uset.sigma_hi, _INTERVAL_DELTA_GRID)
    delta = max(float(np.linalg.norm(_psd_sqrt(uset.member(float(s))) @ inv_sqrt - eye, 2)) for s in grid)
    return star, delta


def set_constants(uset: MatrixSet) -> tuple[np.ndarray, float]:
    """The dominating Theta* and the bound delta >= sup over the set of
    ||Theta^{1/2} Theta*^{-1/2} - I||, per set kind.

    Singleton {M}: (M, 0).  Spectral ball of radius r: (r I, 1), exactly:
    every member has Theta <= ||Theta|| I <= r I, so the eigenvalues of
    (Theta / r)^{1/2} lie in [0, 1], and the member 0 attains 1.  Interval:
    see _interval_constants.
    """
    if isinstance(uset, SingletonPSD):
        return uset.matrix, 0.0
    if isinstance(uset, SpectralBall):
        return uset.radius * np.eye(uset.dim), 1.0
    if isinstance(uset, MatrixInterval):
        return _interval_constants(uset)
    raise DomainError(f"no dominating matrix for set type {type(uset).__name__}")


class ClassSetup:
    """One class's data: covariance set U, the class's known mean, and the
    dominating Theta* and delta derived from U (set_constants).

    Caches the symmetric square root of Theta* and its inverse; those define
    the whitened basis every feasibility and objective computation works in.
    """

    def __init__(self, uset: MatrixSet, mean):
        mean = np.array(mean, dtype=float).reshape(-1)
        if mean.shape[0] != uset.dim:
            raise DomainError(f"mean dimension {mean.shape[0]} does not match set dimension {uset.dim}")
        mean.setflags(write=False)
        self.uset = uset
        self.mean = mean
        self.theta_star, self.delta = set_constants(uset)
        lam, q = np.linalg.eigh(self.theta_star)
        if lam[0] <= 0:
            raise DomainError("theta_star must be positive definite")
        self.sqrt = (q * np.sqrt(lam)) @ q.T
        self.inv_sqrt = (q / np.sqrt(lam)) @ q.T
        self.theta_star_min_eig = float(lam[0])

    @property
    def dim(self):
        return self.uset.dim


# ---------------------------------------------------------------------------
# the bounding function Phi and its gradients
# ---------------------------------------------------------------------------


def _sym(mat):
    return (mat + mat.T) / 2.0


def _whiten(setup: ClassSetup, big_a):
    """The whitened W = Theta*^{1/2} A Theta*^{1/2} and its eigenpairs:
    (w, lam, q)."""
    w = _sym(setup.sqrt @ big_a @ setup.sqrt)
    lam, q = np.linalg.eigh(w)
    return w, lam, q


def _phi_pieces(setup: ClassSetup, a, big_a, theta=None, white=None):
    """Value and gradients w.r.t. its own arguments of the bounding function
    at (a, A), with Theta either fixed or maximized exactly over the set.
    `white` is _whiten(setup, A) when the caller already has it.

    Returns (value, grad_a, grad_A, theta_used).
    """
    s_mat = setup.sqrt
    w, lam, q = _whiten(setup, big_a) if white is None else white
    spec = float(np.max(np.abs(lam)))
    if spec >= 1.0 - _DOMAIN_MARGIN:
        raise DomainError(
            f"whitened detector matrix has spectral norm {spec:.9f} >= 1; "
            "(h, H) is outside the feasible domain"
        )

    # log-det barrier
    value = -0.5 * float(np.sum(np.log1p(-lam)))
    inv_one_minus = q @ np.diag(1.0 / (1.0 - lam)) @ q.T
    r_inv = s_mat @ inv_one_minus @ s_mat  # (Theta*^{-1} - A)^{-1}
    grad_A_acc = 0.5 * r_inv

    # linear Theta term (the only Theta dependence)
    if theta is None:
        sup_val, theta_used = setup.uset.support_linear(big_a)
        value += 0.5 * (sup_val - float(np.sum(setup.theta_star * big_a)))
    else:
        theta_used = theta
        value += 0.5 * float(np.sum((theta_used - setup.theta_star) * big_a))
    grad_A_acc = grad_A_acc + 0.5 * (theta_used - setup.theta_star)

    # delta buffer against members below Theta*
    if setup.delta > 0.0:
        kd = setup.delta * (2.0 + setup.delta) / 2.0
        frob_sq = float(np.sum(lam * lam))
        value += kd * frob_sq / (1.0 - spec)
        if frob_sq > 0.0:
            grad_A_acc = grad_A_acc + kd * (2.0 / (1.0 - spec)) * (s_mat @ w @ s_mat)
            # subgradient of the spectral norm, averaged over the (numerically)
            # degenerate top eigenspace so descent works on symmetric iterates
            top = np.abs(lam) >= spec - 1e-8 * (1.0 + spec)
            sq = s_mat @ q[:, top]
            signs = np.sign(lam[top])
            signs[signs == 0.0] = 1.0
            norm_sub = (sq * signs) @ sq.T / float(np.count_nonzero(top))
            grad_A_acc = grad_A_acc + kd * frob_sq / (1.0 - spec) ** 2 * norm_sub

    # mean term [u;1]' Y [u;1] of the lifted second-moment block, in closed
    # form: u'Au + 2a'u + v'Rv with v = Au + a and R = (Theta*^{-1} - A)^{-1};
    # its gradient is w = u + Rv in a and w w' in A (through R as well)
    u = setup.mean
    v = big_a @ u + a
    rv = r_inv @ v
    value += 0.5 * (float(u @ big_a @ u) + 2.0 * float(a @ u) + float(v @ rv))
    grad_a = u + rv
    grad_A_acc = grad_A_acc + 0.5 * np.outer(grad_a, grad_a)
    return value, grad_a, _sym(grad_A_acc), theta_used


def eval_phi_big(h, big_h, theta, setup: ClassSetup) -> float:
    """The bounding function at detector parameters (h, H) and covariance
    Theta, for this class's (mean, Theta*, delta)."""
    h = np.asarray(h, dtype=float).reshape(-1)
    big_h = symmetrize(big_h, what="H")
    theta = symmetrize(theta, what="Theta")
    value, _, _, _ = _phi_pieces(setup, h, big_h, theta=theta)
    return value


# ---------------------------------------------------------------------------
# feasible-set projection (whitened eigenvalue clipping, cyclic)
# ---------------------------------------------------------------------------


def _clip_in_basis(big_h, setup: ClassSetup, beta: float):
    """(H', violation, white): white is _whiten(setup, H) when H already lies
    in the box and H' is H itself, else None."""
    white = _whiten(setup, big_h)
    _, lam, q = white
    viol = float(np.max(np.abs(lam))) - beta
    if viol <= 0.0:
        return big_h, 0.0, white
    lam = np.clip(lam, -beta, beta)
    w = (q * lam) @ q.T
    return _sym(setup.inv_sqrt @ w @ setup.inv_sqrt), viol, None


def project_feasible(big_h, setups, beta):
    """Cyclic whitened eigenvalue clipping onto the intersection of the
    per-class spectral boxes.

    Returns (H, white): white is _whiten(setups[-1], H) when the last clip
    left H unchanged, else None."""
    h_cur = _sym(big_h)
    for _ in range(_PROJECTION_ROUNDS):
        worst = 0.0
        for setup in setups:
            h_cur, viol, white = _clip_in_basis(h_cur, setup, beta)
            worst = max(worst, viol)
        if worst <= _PROJECTION_TOL:
            break
    return h_cur, white


# ---------------------------------------------------------------------------
# saddle solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaddleOptions:
    gap_tol: float = 1e-4
    max_iters: int = 1_000
    beta: float = 0.99  # whitened spectral bound on the detector matrix, in (0, 1)


@dataclass(frozen=True)
class SaddleSolution:
    h_star: np.ndarray
    H_star: np.ndarray
    theta0_star: np.ndarray
    theta1_star: np.ndarray
    sv: float
    gap: float
    epsilon_star: float
    iterations: int


class _SaddleProblem:
    def __init__(self, setup0: ClassSetup, setup1: ClassSetup, beta: float):
        self.s0, self.s1 = setup0, setup1
        self.beta = beta
        # uniform lower bound on the h-Hessian eigenvalues over the feasible set
        self.h_strong = (setup0.theta_star_min_eig + setup1.theta_star_min_eig) / (2.0 * (1.0 + beta))

    def project(self, big_h):
        """(H, white1): the feasible H and class 1's _whiten at it, or None."""
        return project_feasible(big_h, (self.s0, self.s1), self.beta)

    def whiten(self, big_h, white1=None):
        """Each class's _whiten at H; class 0 sees -H.  `white1` is class 1's
        from project(); class 0 decomposes -W itself, because eigh(-W) need
        not return the negated eigenpairs of eigh(W) bit for bit."""
        return _whiten(self.s0, -big_h), (_whiten(self.s1, big_h) if white1 is None else white1)

    def value_grad(self, h, big_h, th0=None, th1=None, white=None):
        """Objective with a subgradient and the Thetas used: fixed ones when
        given, else the maximizers over the sets (the max-form objective g).
        `white` is whiten(H) when the caller already has it."""
        white0, white1 = self.whiten(big_h) if white is None else white
        v0, ga0, gA0, th0 = _phi_pieces(self.s0, -h, -big_h, theta=th0, white=white0)
        v1, ga1, gA1, th1 = _phi_pieces(self.s1, h, big_h, theta=th1, white=white1)
        val = 0.5 * (v0 + v1)
        gh = 0.5 * (ga1 - ga0)
        gH = 0.5 * (gA1 - gA0)
        return val, gh, gH, th0, th1

    def exact_h(self, big_h, white):
        """argmin over h of the objective at fixed H, given whiten(H).

        The h-dependence is quadratic with Hessian (R0^{-1} + R1^{-1}) / 2,
        independent of the Theta chosen in the linear term.
        """
        u0, u1 = self.s0.mean, self.s1.mean
        r0_inv = self._r_inv(self.s0, white[0])
        r1_inv = self._r_inv(self.s1, white[1])
        lhs = 0.5 * (r0_inv + r1_inv)
        rhs = -0.5 * ((u1 - u0) + r0_inv @ (big_h @ u0) + r1_inv @ (big_h @ u1))
        return np.linalg.solve(lhs, rhs)

    @staticmethod
    def _r_inv(setup, white):
        _, lam, q = white
        if np.max(np.abs(lam)) >= 1.0 - _DOMAIN_MARGIN:
            raise DomainError("detector matrix outside the feasible domain")
        return setup.sqrt @ (q / (1.0 - lam)) @ q.T @ setup.sqrt

    def dual_lower_bound(self, h, big_h, gh, gH, value):
        """Certified lower bound on min over the feasible set at fixed Thetas.

        Two valid bounds, the better one wins:

        * linearization minimized exactly over one class's spectral box (a
          superset of the intersection, so still a lower bound) -- tight when
          the gradient vanishes or the box binds;
        * strong convexity of the h-eliminated objective: the log-det term
          alone gives curvature mu in H uniformly over the box, so the
          unconstrained quadratic minorant bounds the minimum by
          F - ||gH||^2 / (2 mu) -- tight even at nonsmooth optima, where no
          single subgradient vanishes.

        The residual h-gradient (h is eliminated by an exact linear solve) is
        absorbed via the uniform strong convexity in h, plus a lump slack for
        the epsilon-subgradient band used on the spectral-norm term.
        """
        base = value - float(gh @ gh) / (2.0 * self.h_strong) - float(np.linalg.norm(gh)) - 1e-9
        best = -math.inf
        for setup in (self.s0, self.s1):
            m = setup.inv_sqrt @ gH @ setup.inv_sqrt
            nuclear = float(np.sum(np.abs(np.linalg.eigvalsh(_sym(m)))))
            lin_min = -self.beta * nuclear
            best = max(best, base + lin_min - float(np.sum(gH * big_h)))
        mu = (self.s0.theta_star_min_eig**2 + self.s1.theta_star_min_eig**2) / (4.0 * (1.0 + self.beta) ** 2)
        best = max(best, base - float(np.sum(gH * gH)) / (2.0 * mu))
        return best

    def inner_min(self, th0, th1, big_h0):
        """Minimize at fixed Thetas; returns (value, h, H, certified bound).

        Projected gradient with an Armijo sufficient-decrease test on the
        h-eliminated objective.  Exits when no projected step of any length
        still decreases the value (numerical stationarity), or when
        _INNER_STALL_STEPS accepted steps in a row each lowered it by at most
        _INNER_STALL_TOL * (1 + |value|): at the spectral-norm kink projected
        gradient zig-zags with tiny steps that move only the value's last
        digits, and the bound is as good as it will get.  Each candidate H is
        whitened once per class; exact_h and value_grad share that.
        """
        big_h, white1 = self.project(big_h0)
        white = self.whiten(big_h, white1)
        h = self.exact_h(big_h, white)
        val, gh, gH, _, _ = self.value_grad(h, big_h, th0, th1, white)
        step = 1.0
        scale = 1.0 + float(np.linalg.norm(big_h))
        stalls = 0
        for _ in range(_INNER_MAX_ITERS):
            accepted = False
            for _bt in range(30):
                cand_h_mat, white1 = self.project(big_h - step * gH)
                move = float(np.linalg.norm(cand_h_mat - big_h))
                if move <= 1e-15 * scale:
                    break  # projected step is numerically a no-op
                white = self.whiten(cand_h_mat, white1)
                cand_h = self.exact_h(cand_h_mat, white)
                cand_val, cand_gh, cand_gH, _, _ = self.value_grad(cand_h, cand_h_mat, th0, th1, white)
                if cand_val <= val - 1e-4 * move * move / step:
                    stalls = stalls + 1 if val - cand_val <= _INNER_STALL_TOL * (1.0 + abs(val)) else 0
                    h, big_h, val, gh, gH = cand_h, cand_h_mat, cand_val, cand_gh, cand_gH
                    accepted = True
                    step *= 1.5
                    break
                step *= 0.5
            if not accepted or stalls >= _INNER_STALL_STEPS:
                break
        bound = self.dual_lower_bound(h, big_h, gh, gH, val)
        return val, h, big_h, bound


def _interval_meets_ball(interval: MatrixInterval, ball: SpectralBall) -> bool:
    """Whether a member of the interval lies in the ball.  Every member is
    positive definite (lambda_min is concave in sigma and positive at both
    endpoints), so only lambda_max(B + sigma V) can leave the ball; it is
    convex in sigma, and golden-section search brackets its minimum.  Only a
    witness the ball contains answers yes."""
    def lam_max(sigma):
        return float(np.linalg.eigvalsh(interval.member(sigma))[-1])

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = interval.sigma_lo, interval.sigma_hi
    a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fa, fb = lam_max(a), lam_max(b)
    for _ in range(_GOLDEN_STEPS):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - shrink * (hi - lo)
            fa = lam_max(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + shrink * (hi - lo)
            fb = lam_max(b)
    return ball.contains(interval.member(0.5 * (lo + hi)))


def _classes_overlap(setup0: ClassSetup, setup1: ClassSetup) -> bool:
    """Whether the classes provably share a Gaussian law, where sv = 0 exactly
    and no detector separates them: equal means, and a singleton the
    other set contains, two spectral balls (both hold eps * I), or an
    interval with a member in a spectral ball.  Two equal singletons and two
    intervals stay with the solver, which certifies sv = 0 on a shared law;
    prepare_scenario refuses that eps* = 1 as overlap."""
    u0, u1 = setup0.uset, setup1.uset
    if not np.array_equal(setup0.mean, setup1.mean) or type(u0) is type(u1) is SingletonPSD:
        return False
    if type(u0) is type(u1) is SpectralBall:
        return True
    for a, b in ((u0, u1), (u1, u0)):
        if isinstance(a, SingletonPSD) and b.contains(a.matrix):
            return True
        if isinstance(a, MatrixInterval) and isinstance(b, SpectralBall) and _interval_meets_ball(a, b):
            return True
    return False


def solve_saddle(setup0: ClassSetup, setup1: ClassSetup, opts: SaddleOptions | None = None) -> SaddleSolution:
    """Solve the detector-design saddle problem for two class setups by
    Frank-Wolfe on the covariances (see the module docstring).

    `opts.beta` bounds the whitened detector matrix away from the log-det
    domain boundary; it must lie strictly inside (0, 1).  Classes that
    provably overlap (_classes_overlap) raise DomainError at once; classes
    that share a law the refusal does not find certify sv = 0.  The solution
    is the (h, H) with the least max-form value met, with its maximizing
    Thetas.  Raises ConvergenceError with that (h, H) when the duality gap is
    still above `opts.gap_tol` after iterations 0 to `opts.max_iters`, each
    one fixed-Theta inner minimization.
    """
    opts = opts or SaddleOptions()
    if not 0.0 < opts.beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {opts.beta}")
    if setup0.dim != setup1.dim:
        raise DomainError(f"class dimensions differ: {setup0.dim} vs {setup1.dim}")
    if _classes_overlap(setup0, setup1):
        raise DomainError("uncertainty sets overlap; change undetectable")
    prob = _SaddleProblem(setup0, setup1, opts.beta)
    d = setup0.dim

    h, big_h = np.zeros(d), np.zeros((d, d))
    upper, _, _, th0, th1 = prob.value_grad(h, big_h)
    best = (h, big_h, th0, th1)
    lower, gap = -math.inf, math.inf
    for k in range(opts.max_iters + 1):
        _, h, big_h, bound = prob.inner_min(th0, th1, big_h)
        lower = max(lower, bound)
        val, _, _, t0, t1 = prob.value_grad(h, big_h)
        if val < upper:
            upper, best = val, (h, big_h, t0, t1)
        gap = upper - lower
        if gap <= opts.gap_tol:
            return SaddleSolution(*best, sv=upper, gap=gap, epsilon_star=math.exp(upper), iterations=k)
        # a convex combination: gamma = 1 at k = 0 gives (t0, t1) bit for bit,
        # so iteration 1 solves at the maximizing Thetas themselves
        gamma = 2.0 / (k + 2.0)
        th0 = (1.0 - gamma) * th0 + gamma * t0
        th1 = (1.0 - gamma) * th1 + gamma * t1
    raise ConvergenceError(
        f"saddle solver reached {opts.max_iters} iterations with duality gap {gap:.3e} "
        f"above tolerance {opts.gap_tol:g}",
        last_iterate=best[:2],
        residual=gap,
    )


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticDetector:
    """phi(xi) = xi^T H xi / 2 + h^T xi + kappa_const; CUSUM increment is -phi."""

    H: np.ndarray
    h: np.ndarray
    kappa_const: float
    epsilon_star: float | None = None

    def phi(self, xi) -> float:
        x = np.asarray(xi, dtype=float)
        return 0.5 * float(x @ self.H @ x) + float(self.h @ x) + self.kappa_const

    def increments(self, observations: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(observations, dtype=float))
        quad = 0.5 * np.einsum("ij,ij->i", x @ self.H, x)
        return -(quad + x @ self.h + self.kappa_const)

    def moment(self, g: Gaussian, sign: float) -> float:
        """E[exp(sign * phi(xi))] for xi ~ g, in closed form (+inf where it diverges)."""
        return exp_quadratic_moment(g, sign * self.H, sign * self.h, sign * self.kappa_const)


def build_quadratic_detector(sol: SaddleSolution, setup0: ClassSetup, setup1: ClassSetup) -> QuadraticDetector:
    """Assemble the detector from an accepted saddle solution.

    The constant balances the two classes' bounding values at the solution,
    so both exponential-moment bounds equal exp(sv)."""
    phi0 = eval_phi_big(-sol.h_star, -sol.H_star, sol.theta0_star, setup0)
    phi1 = eval_phi_big(sol.h_star, sol.H_star, sol.theta1_star, setup1)
    kappa = 0.5 * (phi0 - phi1)
    return QuadraticDetector(
        H=sol.H_star.copy(),
        h=sol.h_star.copy(),
        kappa_const=kappa,
        epsilon_star=sol.epsilon_star,
    )


def llr_detector(g0: Gaussian, g1: Gaussian) -> QuadraticDetector | AffineDetector:
    """Classic CUSUM detector for a fully specified pair: -phi(xi) is the
    log-likelihood ratio log p1(xi) - log p0(xi).

    Equal covariances make H exactly zero; the detector is then affine.  Its
    increments are bit-equal to the quadratic form's, whose quadratic term
    is a signed zero (-(+-0 + y + k) rounds as -y - k does)."""
    if g0.dim != g1.dim:
        raise DomainError(f"pair dimensions differ: {g0.dim} vs {g1.dim}")
    eye = np.eye(g0.dim)
    inv0 = g0.solve_covariance(eye)
    inv1 = g1.solve_covariance(eye)
    w0 = g0.whiten(g0.mean)
    w1 = g1.whiten(g1.mean)
    quad0 = float(w0 @ w0)
    quad1 = float(w1 @ w1)
    big_h = _sym(inv1 - inv0)
    h = inv0 @ g0.mean - inv1 @ g1.mean
    const = -0.5 * (quad0 - quad1) - 0.5 * (g0.log_det_covariance() - g1.log_det_covariance())
    if not big_h.any():
        return AffineDetector(a=h, c=const, epsilon_star=None)
    return QuadraticDetector(H=big_h, h=h, kappa_const=const)
