"""Multivariate normal primitives.

Everything downstream (detectors, CUSUM runs, Monte Carlo) works with
``Gaussian`` values: a mean vector plus a positive-definite covariance with
its lower Cholesky factor cached at construction.  Quadratic forms are always
evaluated through linear solves against that factor; no covariance inverse is
ever formed explicitly.

Randomness goes through ``SeededStream``: a (seed, stream_id) pair mapped to
a counter-based Philox generator.  Distinct keys give independent streams by
construction, so a Monte Carlo trial's draws depend only on its own key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError

# Above this relative asymmetry a covariance is rejected; below it the matrix
# is silently symmetrized (config files round-trip through text).
_ASYMMETRY_REL_TOL = 1e-8


def _as_vector(x, d: int, what: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != d:
        raise DimensionError(what, d, v.shape)
    return v


def symmetrize(mat: np.ndarray, *, what: str = "matrix") -> np.ndarray:
    """Return (A + A^T)/2; reject asymmetry beyond `_ASYMMETRY_REL_TOL` (relative Frobenius)."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    scale = max(float(np.linalg.norm(a)), 1.0)
    skew = float(np.linalg.norm(a - a.T))
    if skew > _ASYMMETRY_REL_TOL * scale:
        raise ValueError(
            f"{what} is asymmetric beyond tolerance: ||A - A^T||/||A|| = {skew / scale:.3e} > {_ASYMMETRY_REL_TOL:.1e}"
        )
    return (a + a.T) / 2.0


class Gaussian:
    """Immutable N(mean, covariance) with cached lower Cholesky factor."""

    __slots__ = ("mean", "covariance", "factor")

    def __init__(self, mean, covariance):
        mean = np.array(mean, dtype=float).reshape(-1)
        cov = symmetrize(covariance, what="covariance")
        if cov.shape[0] != mean.shape[0]:
            raise DimensionError("covariance", mean.shape[0], cov.shape[0])
        try:
            factor = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"covariance is not positive definite: {exc}") from exc
        mean.setflags(write=False)
        cov.setflags(write=False)
        factor.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "factor", factor)

    def __setattr__(self, name, value):
        raise AttributeError("Gaussian is immutable")

    def with_mean(self, mean) -> Gaussian:
        """N(mean, covariance) sharing this law's covariance and factor."""
        mean = np.array(mean, dtype=float).reshape(-1)
        if mean.shape[0] != self.dim:
            raise DimensionError("mean", self.dim, mean.shape[0])
        mean.setflags(write=False)
        out = object.__new__(Gaussian)
        object.__setattr__(out, "mean", mean)
        object.__setattr__(out, "covariance", self.covariance)
        object.__setattr__(out, "factor", self.factor)
        return out

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def log_det_covariance(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.factor))))

    def solve_covariance(self, rhs: np.ndarray) -> np.ndarray:
        """Sigma^{-1} @ rhs via the cached factor: L'^{-1} (L^{-1} rhs)."""
        return np.linalg.solve(self.factor.T, np.linalg.solve(self.factor, rhs))

    def whiten(self, rhs: np.ndarray) -> np.ndarray:
        """L^{-1} @ rhs, solved against the cached factor."""
        return np.linalg.solve(self.factor, rhs)

    def __repr__(self):
        return f"Gaussian(d={self.dim})"


@dataclass(frozen=True)
class SeededStream:
    """One reproducible random substream, keyed by (seed, stream_id).

    The pair is used verbatim as the 128-bit Philox key, so identical pairs
    reproduce identical sequences byte-for-byte and distinct stream_ids are
    independent by the counter-based generator's design.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this substream."""
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def mahalanobis_sq(x, y, g: Gaussian) -> float:
    """(x - y)^T Sigma^{-1} (x - y), computed via a solve against the factor."""
    xv = _as_vector(x, g.dim, "x")
    yv = _as_vector(y, g.dim, "y")
    z = g.whiten(xv - yv)
    return float(z @ z)


def sample_with(g: Gaussian, rng: np.random.Generator, n: int) -> np.ndarray:
    """n rows from g using an already-positioned generator (advances it)."""
    z = rng.standard_normal((n, g.dim))
    return z @ g.factor.T + g.mean


def scalar_normal(mean: float, sd: float) -> Gaussian:
    """N(mean, sd^2) on the line, with `sd` as its factor (sd >= 0).  No
    Cholesky runs, and sd = 0 is the point mass at `mean`, which `sample_with`
    draws as such."""
    out = object.__new__(Gaussian)
    for name, value in (("mean", [mean]), ("covariance", [[sd * sd]]), ("factor", [[sd]])):
        arr = np.array(value, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(out, name, arr)
    return out


def exp_quadratic_moment(g: Gaussian, big_a: np.ndarray, a: np.ndarray, c: float) -> float:
    """E exp(x'Ax/2 + a'x + c) for x ~ g, in closed form; +inf where it diverges.

    With Sigma = LL', M = I - L'AL and beta = L'(Am + a), the moment is
    det(M)^{-1/2} exp(m'Am/2 + a'm + c + beta'M^{-1}beta/2), finite exactly
    when M is positive definite (Mathai & Provost 1992, Quadratic Forms in
    Random Variables).  The determinant and the solve share one Cholesky
    factor of M.
    """
    low = g.factor
    am = big_a @ g.mean
    try:
        root = np.linalg.cholesky(np.eye(g.dim) - low.T @ big_a @ low)
    except np.linalg.LinAlgError:
        return math.inf
    z = np.linalg.solve(root, low.T @ (am + a))
    half_log_det = float(np.sum(np.log(np.diag(root))))
    log_moment = 0.5 * float(g.mean @ am) + float(a @ g.mean) + c + 0.5 * float(z @ z) - half_log_det
    with np.errstate(over="ignore"):
        return float(np.exp(log_moment))


def kl_divergence(ga: Gaussian, gb: Gaussian) -> float:
    """KL(ga || gb) in closed form."""
    if ga.dim != gb.dim:
        raise DimensionError("gb", ga.dim, gb.dim)
    d = ga.dim
    trace_term = float(np.trace(gb.solve_covariance(ga.covariance)))
    maha = mahalanobis_sq(gb.mean, ga.mean, gb)
    return 0.5 * (trace_term + maha - d + gb.log_det_covariance() - ga.log_det_covariance())
