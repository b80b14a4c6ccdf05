"""Least-favorable pair for mean shifts, and the affine detector built from it.

The pair (mu0*, mu1*) minimizes the Mahalanobis gap
(mu0 - mu1)^T Sigma^{-1} (mu0 - mu1) over M0 x M1.  The solver is projected
gradient descent on the joint variable with a fixed 1/L step, where
L = 4 * lambda_max(Sigma^{-1}) is the exact Lipschitz constant of the
gradient of the joint quadratic; each block is projected after every step.

From the solved pair the detector is the affine function
phi(xi) = a^T xi + c whose negation is half the log-likelihood ratio of the
pair; its certified one-sample risk is eps* = exp(-gap/8), and its closed
form exponential moments under both pair members equal eps* exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .gaussian import Gaussian, exp_quadratic_moment, mahalanobis_sq, scalar_normal, symmetrize
from .sets import VectorSet

# Below this Mahalanobis gap the two uncertainty sets are treated as
# overlapping (no detectable change).
OVERLAP_TOL = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-9
    max_iters: int = 200_000


@dataclass(frozen=True)
class LfpSolution:
    mu0_star: np.ndarray
    mu1_star: np.ndarray
    delta_sq: float
    epsilon_star: float
    iterations: int
    residual: float


def _covariance(sigma) -> tuple[Gaussian, float]:
    """N(0, sigma) and the smallest eigenvalue of sigma, which must be positive."""
    cov = symmetrize(sigma, what="covariance")
    g = Gaussian(np.zeros(cov.shape[0]), cov)
    lam_min = float(np.linalg.eigvalsh(cov)[0])
    if lam_min <= 0:
        raise DomainError("covariance must be positive definite")
    return g, lam_min


def solve_lfp(
    m0: VectorSet,
    m1: VectorSet,
    sigma,
    opts: SolverOptions | None = None,
    *,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> LfpSolution:
    """Minimize the Mahalanobis gap between M0 and M1.

    `init` overrides the deterministic start (projections of the origin);
    used by restart-invariance audits.  Raises ConvergenceError carrying the
    last iterate when the fixed-point residual is still above `opts.tol`
    after `opts.max_iters` sweeps.
    """
    opts = opts or SolverOptions()
    cov, lam_min = _covariance(sigma)
    d = cov.dim
    if m0.dim != d or m1.dim != d:
        raise DomainError(f"set dimensions ({m0.dim}, {m1.dim}) do not match covariance dimension {d}")

    if init is None:
        mu0 = m0.project(np.zeros(d))
        mu1 = m1.project(np.zeros(d))
    else:
        mu0 = m0.project(np.asarray(init[0], dtype=float))
        mu1 = m1.project(np.asarray(init[1], dtype=float))

    # lambda_max(Sigma^{-1}) = 1 / lambda_min(Sigma); joint Hessian norm is 4x.
    lip = 4.0 / lam_min
    step = 1.0 / lip

    def objective(a, b):
        return mahalanobis_sq(a, b, cov)

    value = objective(mu0, mu1)
    residual = math.inf
    for it in range(1, opts.max_iters + 1):
        grad_half = 2.0 * cov.solve_covariance(mu0 - mu1)  # d/dmu0; d/dmu1 is its negation
        nxt0 = m0.project(mu0 - step * grad_half)
        nxt1 = m1.project(mu1 + step * grad_half)
        residual = math.hypot(float(np.linalg.norm(nxt0 - mu0)), float(np.linalg.norm(nxt1 - mu1)))
        mu0, mu1 = nxt0, nxt1
        if __debug__:
            new_value = objective(mu0, mu1)
            assert new_value <= value + 1e-9 * max(value, 1.0), "projected-gradient step increased the objective"
            value = new_value
        if residual <= opts.tol:
            delta_sq = objective(mu0, mu1)
            return LfpSolution(
                mu0_star=mu0,
                mu1_star=mu1,
                delta_sq=delta_sq,
                epsilon_star=math.exp(-delta_sq / 8.0),
                iterations=it,
                residual=residual,
            )
    raise ConvergenceError(
        f"least-favorable-pair solver did not reach tol={opts.tol:g} in {opts.max_iters} iterations "
        f"(residual {residual:.3e})",
        last_iterate=(mu0, mu1),
        residual=residual,
    )


@dataclass(frozen=True)
class AffineDetector:
    """phi(xi) = a^T xi + c; the CUSUM increment is -phi = L*/2."""

    a: np.ndarray
    c: float
    epsilon_star: float | None

    def phi(self, xi) -> float:
        return float(self.a @ np.asarray(xi, dtype=float)) + self.c

    def increments(self, observations: np.ndarray) -> np.ndarray:
        """-phi row-wise: the CUSUM increment for each observation."""
        x = np.atleast_2d(np.asarray(observations, dtype=float))
        return -(x @ self.a) - self.c

    def increment_law(self, g: Gaussian) -> Gaussian:
        """The law of the increment -phi(xi) for xi ~ g = N(m, LL'): the
        normal N(-(a'm + c), |L'a|^2) on the line."""
        spread = self.a @ g.factor
        return scalar_normal(-(float(self.a @ g.mean) + self.c), math.sqrt(float(spread @ spread)))

    def moment(self, g: Gaussian, sign: float) -> float:
        """E[exp(sign * phi(xi))] for xi ~ g, in closed form."""
        return exp_quadratic_moment(g, np.zeros((g.dim, g.dim)), sign * self.a, sign * self.c)


def build_affine_detector(sol: LfpSolution, sigma) -> AffineDetector:
    """Assemble the affine detector of the solved pair."""
    if sol.delta_sq <= OVERLAP_TOL:
        raise DomainError("uncertainty sets overlap; change undetectable")
    cov, _ = _covariance(sigma)
    origin = np.zeros(cov.dim)
    a = -0.5 * cov.solve_covariance(sol.mu1_star - sol.mu0_star)
    c = 0.25 * (mahalanobis_sq(sol.mu1_star, origin, cov) - mahalanobis_sq(sol.mu0_star, origin, cov))
    return AffineDetector(a=a, c=c, epsilon_star=sol.epsilon_star)
