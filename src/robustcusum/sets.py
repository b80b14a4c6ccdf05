"""Convex uncertainty sets for mean vectors and covariance matrices.

Vector sets expose exact Euclidean projection and membership; matrix sets
expose membership and an exact linear support oracle (max of Tr(Theta @ H)
over the set, together with an attaining member); quadratic.set_constants
derives each matrix set's dominating matrix and contraction bound from its
kind and parameters alone.  All sets are immutable value objects and every
oracle is a pure function of its arguments.

Projections are Euclidean on purpose: the solver for the least-favorable
pair takes gradient steps in the Sigma^{-1} metric and projects Euclidean,
which keeps every oracle closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .gaussian import _as_vector, symmetrize


def _frozen_array(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# vector sets
# ---------------------------------------------------------------------------


class VectorSet:
    """Common surface of the mean-uncertainty sets."""

    dim: int

    def project(self, x) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def sample_member(self, rng: np.random.Generator) -> np.ndarray:
        """A random member; used by audits and experiment drivers."""
        raise NotImplementedError


@dataclass(frozen=True)
class SingletonVector(VectorSet):
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", _frozen_array(np.asarray(self.point, float).reshape(-1)))

    @property
    def dim(self):
        return self.point.shape[0]

    def project(self, x):
        _as_vector(x, self.dim, "x")
        return self.point.copy()

    def contains(self, x, tol=1e-9):
        return float(np.linalg.norm(_as_vector(x, self.dim, "x") - self.point)) <= tol

    def sample_member(self, rng):
        return self.point.copy()


@dataclass(frozen=True)
class _Ball(VectorSet):
    """Center and radius shared by the norm balls."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen_array(np.asarray(self.center, float).reshape(-1)))
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")

    @property
    def dim(self):
        return self.center.shape[0]


class L2Ball(_Ball):
    def project(self, x):
        y = _as_vector(x, self.dim, "x") - self.center
        n = float(np.linalg.norm(y))
        if n <= self.radius:
            return np.asarray(x, dtype=float).copy()
        return self.center + (self.radius / n) * y

    def contains(self, x, tol=1e-9):
        return float(np.linalg.norm(_as_vector(x, self.dim, "x") - self.center)) <= self.radius + tol

    def sample_member(self, rng):
        dir_ = rng.standard_normal(self.dim)
        dir_ /= np.linalg.norm(dir_)
        r = self.radius * rng.uniform() ** (1.0 / self.dim)
        return self.center + r * dir_


class L1Ball(_Ball):
    def project(self, x):
        y = _as_vector(x, self.dim, "x") - self.center
        if float(np.sum(np.abs(y))) <= self.radius:
            return np.asarray(x, dtype=float).copy()
        # Exact soft-threshold: sort |y| and find the largest active prefix.
        # O(d log d); fine at the dimensions this library targets.
        a = np.abs(y)
        u = np.sort(a)[::-1]
        css = np.cumsum(u)
        j = np.arange(1, a.size + 1)
        thresh = (css - self.radius) / j
        rho = int(np.max(np.nonzero(u > thresh)[0]))
        tau = thresh[rho]
        return self.center + np.sign(y) * np.maximum(a - tau, 0.0)

    def contains(self, x, tol=1e-9):
        return float(np.sum(np.abs(_as_vector(x, self.dim, "x") - self.center))) <= self.radius + tol

    def sample_member(self, rng):
        # Uniform-ish interior point: Dirichlet split of a sub-radius mass.
        w = rng.dirichlet(np.ones(self.dim))
        signs = rng.choice([-1.0, 1.0], size=self.dim)
        r = self.radius * rng.uniform() ** (1.0 / self.dim)
        return self.center + r * signs * w


@dataclass(frozen=True)
class Box(VectorSet):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, float).reshape(-1)
        hi = np.asarray(self.upper, float).reshape(-1)
        if lo.shape != hi.shape:
            raise DimensionError("upper", lo.shape[0], hi.shape[0])
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", _frozen_array(lo))
        object.__setattr__(self, "upper", _frozen_array(hi))

    @property
    def dim(self):
        return self.lower.shape[0]

    def project(self, x):
        return np.clip(_as_vector(x, self.dim, "x"), self.lower, self.upper)

    def contains(self, x, tol=1e-9):
        v = _as_vector(x, self.dim, "x")
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def sample_member(self, rng):
        return rng.uniform(self.lower, self.upper)


# ---------------------------------------------------------------------------
# matrix sets
# ---------------------------------------------------------------------------

# Eigenvalues within this band of zero count as zero when deciding the
# nonnegative eigenspace of a support-oracle direction.
_EIG_ZERO_BAND = 1e-12


def _check_symmetric_direction(h, d):
    hm = np.asarray(h, dtype=float)
    if hm.shape != (d, d):
        raise DimensionError("H", (d, d), hm.shape)
    scale = max(float(np.linalg.norm(hm)), 1.0)
    if float(np.linalg.norm(hm - hm.T)) > 1e-9 * scale:
        raise ValueError("support direction H must be symmetric")
    return (hm + hm.T) / 2.0


class MatrixSet:
    """Common surface of the covariance-uncertainty sets."""

    dim: int

    def support_linear(self, h) -> tuple[float, np.ndarray]:
        """max_{Theta in set} Tr(Theta @ H) and an attaining member."""
        raise NotImplementedError

    def contains(self, theta, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def sample_member(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class SingletonPSD(MatrixSet):
    """{matrix}, positive definite: the matrix is its own dominating Theta*,
    which the quadratic detector inverts."""

    matrix: np.ndarray

    def __post_init__(self):
        m = symmetrize(self.matrix, what="matrix")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError("singleton member must be positive definite") from None
        object.__setattr__(self, "matrix", _frozen_array(m))

    @property
    def dim(self):
        return self.matrix.shape[0]

    def support_linear(self, h):
        hm = _check_symmetric_direction(h, self.dim)
        return float(np.sum(self.matrix * hm)), self.matrix.copy()

    def contains(self, theta, tol=1e-9):
        t = np.asarray(theta, dtype=float)
        return t.shape == self.matrix.shape and float(np.linalg.norm(t - self.matrix)) <= tol

    def sample_member(self, rng):
        return self.matrix.copy()


@dataclass(frozen=True)
class SpectralBall(MatrixSet):
    """{Theta PSD : ||Theta||_2 <= radius} in dimension `dim`."""

    radius: float
    dim: int

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    def support_linear(self, h):
        hm = _check_symmetric_direction(h, self.dim)
        lam, q = np.linalg.eigh(hm)
        value = self.radius * float(np.sum(np.maximum(lam, 0.0)))
        keep = lam > _EIG_ZERO_BAND  # exactly-zero eigenvalues stay out of the projector
        qk = q[:, keep]
        argmax = self.radius * (qk @ qk.T)
        return value, argmax

    def contains(self, theta, tol=1e-9):
        t = np.asarray(theta, dtype=float)
        if t.shape != (self.dim, self.dim):
            return False
        if float(np.linalg.norm(t - t.T)) > tol * max(float(np.linalg.norm(t)), 1.0):
            return False
        lam = np.linalg.eigvalsh((t + t.T) / 2.0)
        return bool(lam[0] >= -tol and lam[-1] <= self.radius + tol)

    def sample_member(self, rng):
        """radius * Q diag(D) Q^T with Haar Q and uniform D on [0, 1]."""
        z = rng.standard_normal((self.dim, self.dim))
        q, r = np.linalg.qr(z)
        q = q * np.sign(np.diag(r))  # fix signs so Q is Haar-distributed
        d = rng.uniform(0.0, 1.0, size=self.dim)
        return self.radius * (q * d) @ q.T


@dataclass(frozen=True)
class MatrixInterval(MatrixSet):
    """{base + sigma * direction : sigma in [sigma_lo, sigma_hi]}."""

    base: np.ndarray
    direction: np.ndarray
    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        b = symmetrize(self.base, what="base")
        v = symmetrize(self.direction, what="direction")
        if v.shape != b.shape:
            raise DimensionError("direction", b.shape, v.shape)
        if not self.sigma_lo <= self.sigma_hi:
            raise ValueError("sigma range must satisfy lo <= hi")
        for s in (self.sigma_lo, self.sigma_hi):
            try:
                np.linalg.cholesky(b + s * v)
            except np.linalg.LinAlgError:
                raise ValueError(f"interval endpoint at sigma={s} is not positive definite") from None
        object.__setattr__(self, "base", _frozen_array(b))
        object.__setattr__(self, "direction", _frozen_array(v))

    @property
    def dim(self):
        return self.base.shape[0]

    def member(self, sigma: float) -> np.ndarray:
        return self.base + sigma * self.direction

    def support_linear(self, h):
        hm = _check_symmetric_direction(h, self.dim)
        slope = float(np.sum(self.direction * hm))
        sigma = self.sigma_hi if slope >= 0 else self.sigma_lo
        theta = self.member(sigma)
        return float(np.sum(theta * hm)), theta

    def contains(self, theta, tol=1e-9):
        t = np.asarray(theta, dtype=float)
        if t.shape != self.base.shape:
            return False
        vnorm_sq = float(np.sum(self.direction * self.direction))
        if vnorm_sq == 0.0:
            return float(np.linalg.norm(t - self.base)) <= tol
        sigma = float(np.sum((t - self.base) * self.direction)) / vnorm_sq
        sigma = min(max(sigma, self.sigma_lo), self.sigma_hi)
        return float(np.linalg.norm(t - self.member(sigma))) <= tol

    def sample_member(self, rng):
        return self.member(float(rng.uniform(self.sigma_lo, self.sigma_hi)))
