"""Forecast-uncertainty models for dynamic line ratings.

Ratings over the DLR lines are modeled as a multivariate normal
(mu, Sigma) in per-unit.  Two robustness sets are derived from it:

* an ellipsoid {mu + Bz : ||z||_2 <= sqrt(rho)} where Sigma = B B'
  (singular value decomposition) and rho is the gamma-quantile of the
  chi-squared distribution with k degrees of freedom, so the set holds
  gamma of the probability mass;
* a polytope {mu + Bz : Sz <= h} circumscribing that ball with
  halfspaces, a conservative outer approximation whose vertices make
  robust constraints finite.

The expected shortfall of a guaranteed rating y below the forecast,
E[max(0, y - delta)], has the truncated-normal closed form
(y - mu) Phi(beta) + sigma phi(beta) with beta = (y - mu)/sigma; it
prices the expected activation of an affine policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special, stats

from .errors import CapacityError, InputError, read_json

DEFAULT_FACETS = 8
# Vertex enumeration is direct, so the dimension is capped.
DIM_CAP = 6

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_pdf(x):
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def norm_cdf(x):
    return 0.5 * (1.0 + special.erf(np.asarray(x, dtype=float) / _SQRT2))


@dataclass(frozen=True)
class RatingForecast:
    """Point forecast and covariance of per-unit ratings over DLR lines."""

    mu: np.ndarray              # p.u., one entry per DLR line
    sigma: np.ndarray           # p.u.^2 covariance
    lead_time_hours: float | None = None
    line_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if sigma.shape != (mu.size, mu.size):
            raise InputError(f"sigma must be {mu.size}x{mu.size}, got {sigma.shape}")
        if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(sigma)):
            raise InputError("forecast contains non-finite values")
        if np.any(mu <= 0):
            raise InputError("forecast mean ratings must be positive")
        if not np.allclose(sigma, sigma.T, atol=1e-10):
            raise InputError("sigma must be symmetric")
        w = np.linalg.eigvalsh(sigma)
        if w.min() < -1e-9 * max(1.0, w.max()):
            raise InputError("sigma must be positive semidefinite")
        if self.line_ids is not None and len(self.line_ids) != mu.size:
            raise InputError("line_ids length must match forecast dimension")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mu.size

    def std(self) -> np.ndarray:
        return np.sqrt(np.diag(self.sigma))


def fit_forecast(samples, lead_time_hours: float | None = None,
                 line_ids=None) -> RatingForecast:
    """Sample mean and covariance of rating realizations (rows = draws)."""
    arr = np.atleast_2d(np.asarray(samples, dtype=float))
    if arr.shape[0] < 2:
        raise InputError("at least 2 samples required to fit a forecast")
    mu = arr.mean(axis=0)
    sigma = np.atleast_2d(np.cov(arr, rowvar=False, ddof=1))
    return RatingForecast(mu=mu, sigma=sigma, lead_time_hours=lead_time_hours,
                          line_ids=tuple(line_ids) if line_ids is not None else None)


def chi2_quantile(k: int, gamma: float) -> float:
    """gamma-quantile of the chi-squared distribution with k degrees of freedom."""
    if int(k) != k or k < 1:
        raise InputError(f"k must be a positive integer, got {k}")
    if not 0.0 < gamma < 1.0:
        raise InputError(f"gamma must be in (0, 1), got {gamma}")
    return float(stats.chi2.ppf(gamma, int(k)))


@dataclass(frozen=True)
class EllipsoidSet:
    """{mu + Bz : ||z||_2 <= sqrt(rho)}; holds gamma of the forecast mass."""

    mu: np.ndarray
    b: np.ndarray
    rho: float
    gamma: float
    line_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        if b.shape != (mu.size, mu.size):
            raise InputError(f"b must be {mu.size}x{mu.size}, got {b.shape}")
        if self.rho < 0:
            raise InputError("rho must be >= 0")
        if not 0.0 < self.gamma < 1.0:
            raise InputError("gamma must be in (0, 1)")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.mu.size

    def sigma(self) -> np.ndarray:
        return self.b @ self.b.T

    def z_of(self, delta) -> np.ndarray:
        """Standardized coordinates of delta; raises when delta is off-range."""
        d = np.atleast_1d(np.asarray(delta, dtype=float)) - self.mu
        z, *_ = np.linalg.lstsq(self.b, d, rcond=None)
        if np.linalg.norm(self.b @ z - d, np.inf) > 1e-8 * (1.0 + np.linalg.norm(d, np.inf)):
            raise InputError("delta is outside the range of the factor matrix")
        return z

    def contains(self, delta, tol: float = 1e-9) -> bool:
        try:
            z = self.z_of(delta)
        except InputError:
            return False
        return float(np.linalg.norm(z)) <= math.sqrt(self.rho) * (1.0 + tol) + tol


def build_ellipsoid(forecast: RatingForecast, gamma: float) -> EllipsoidSet:
    """Factor Sigma = B B' by SVD and size the ball by the chi-squared quantile."""
    u, s, _ = np.linalg.svd(forecast.sigma, hermitian=True)
    b = u @ np.diag(np.sqrt(np.maximum(s, 0.0)))
    if np.abs(b @ b.T - forecast.sigma).max() > 1e-9 * max(1.0, float(np.abs(forecast.sigma).max())):
        raise InputError("covariance factorization failed to reproduce sigma")
    rho = chi2_quantile(forecast.dim, gamma)
    return EllipsoidSet(mu=forecast.mu, b=b, rho=rho, gamma=gamma,
                        line_ids=forecast.line_ids)


@dataclass(frozen=True)
class PolytopeSet:
    """{mu + Bz : Sz <= h} with explicit vertices (delta-space, p.u.)."""

    mu: np.ndarray
    b: np.ndarray
    s: np.ndarray                # halfspace normals in z-space
    h: np.ndarray                # offsets
    vertices: np.ndarray         # n_vertices x dim, delta-space
    vertices_z: np.ndarray       # n_vertices x dim, z-space
    line_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        for name in ("mu", "h"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        for name in ("b", "s", "vertices", "vertices_z"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        if np.any(self.s @ self.vertices_z.T - self.h[:, None] > 1e-9):
            raise InputError("cached vertices violate the halfspace description")

    @property
    def dim(self) -> int:
        return self.mu.size

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def contains_z(self, z, tol: float = 1e-9) -> bool:
        return bool(np.all(self.s @ np.asarray(z, dtype=float) <= self.h + tol))


def check_dlr_alignment(u_set, dlr_line_index: tuple[str, ...]) -> None:
    """Reject an uncertainty set whose named lines or dimension differ
    from the grid's DLR lines; a set without line ids skips the id check."""
    if u_set.line_ids is not None and tuple(u_set.line_ids) != dlr_line_index:
        raise InputError(
            f"uncertainty set lines {tuple(u_set.line_ids)} do not match grid DLR "
            f"lines {dlr_line_index}")
    k = len(dlr_line_index)
    if u_set.dim != k:
        raise InputError(f"uncertainty set dimension {u_set.dim} != DLR line count {k}")


def _polygon_vertices_z(rho: float, facets: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regular polygon circumscribing the radius-sqrt(rho) circle."""
    r = math.sqrt(rho)
    angles = 2.0 * math.pi * np.arange(facets) / facets
    s = np.column_stack([np.cos(angles), np.sin(angles)])
    h = np.full(facets, r)
    v_angles = angles + math.pi / facets
    v_r = r / math.cos(math.pi / facets)
    verts = v_r * np.column_stack([np.cos(v_angles), np.sin(v_angles)])
    return s, h, verts


def build_polytope(e: EllipsoidSet, facets_per_2d_cycle: int = DEFAULT_FACETS) -> PolytopeSet:
    """Conservative polyhedral outer approximation of the ellipsoid.

    Construction is direct: an interval for k = 1, a regular polygon
    circumscribing the ball for k = 2, and the bounding box for k >= 3
    (which is the 4-facet polygon applied to every coordinate pair).
    General halfspace-to-vertex conversion is out of scope, hence the
    capacity errors.
    """
    k = e.dim
    m = int(facets_per_2d_cycle)
    if m < 4:
        raise InputError(f"facets_per_2d_cycle must be >= 4, got {facets_per_2d_cycle}")
    if k > DIM_CAP:
        raise CapacityError(
            f"vertex enumeration capped at dimension {DIM_CAP}, got {k}")
    r = math.sqrt(e.rho)
    if k == 1:
        s = np.array([[1.0], [-1.0]])
        h = np.array([r, r])
        verts_z = np.array([[-r], [r]])
    elif k == 2:
        s, h, verts_z = _polygon_vertices_z(e.rho, m)
    else:
        if m != 4:
            raise CapacityError(
                "direct vertex construction above dimension 2 supports only "
                f"4 facets per coordinate pair (boxes); got {m}")
        s = np.vstack([np.eye(k), -np.eye(k)])
        h = np.full(2 * k, r)
        corners = np.array(np.meshgrid(*([[-r, r]] * k), indexing="ij"))
        verts_z = corners.reshape(k, -1).T
    verts = e.mu[None, :] + verts_z @ e.b.T
    return PolytopeSet(mu=e.mu, b=e.b, s=s, h=h, vertices=verts,
                       vertices_z=verts_z, line_ids=e.line_ids)


def clip_polytope_z(p: PolytopeSet, normals, offsets) -> np.ndarray:
    """Vertices (z-space) of the polytope cut by extra halfspaces n.z <= o.

    Supports the directly constructed 1-D and 2-D polytopes; returns an
    empty array when the intersection is empty.
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    if p.dim == 1:
        lo, hi = float(p.vertices_z.min()), float(p.vertices_z.max())
        for (n,), o in zip(normals, offsets):
            if abs(n) < 1e-15:
                if o < -1e-12:
                    return np.empty((0, 1))
                continue
            bound = o / n
            if n > 0:
                hi = min(hi, bound)
            else:
                lo = max(lo, bound)
        if lo > hi + 1e-12:
            return np.empty((0, 1))
        return np.array([[lo], [min(hi, max(lo, hi))]]) if hi > lo else np.array([[lo]])
    if p.dim == 2:
        poly = [v for v in p.vertices_z]
        for n, o in zip(normals, offsets):
            poly = _clip_polygon(poly, n, o)
            if not poly:
                return np.empty((0, 2))
        return np.array(poly)
    raise CapacityError("clipping supports dimensions 1 and 2 only")


def _clip_polygon(poly: list, n: np.ndarray, o: float, tol: float = 1e-12) -> list:
    """Sutherland-Hodgman clip of a convex polygon by {v : n.v <= o}."""
    if not poly:
        return []
    out: list = []
    m = len(poly)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        da, db = float(n @ a - o), float(n @ b - o)
        if da <= tol:
            out.append(a)
        if (da < -tol and db > tol) or (da > tol and db < -tol):
            t = da / (da - db)
            out.append(a + t * (b - a))
    dedup: list = []
    for v in out:
        if not dedup or np.linalg.norm(v - dedup[-1]) > 1e-12:
            dedup.append(v)
    if len(dedup) > 1 and np.linalg.norm(dedup[0] - dedup[-1]) <= 1e-12:
        dedup.pop()
    return dedup


def uniform_polytope_samples(p: PolytopeSet, count: int, seed: int) -> np.ndarray:
    """Deterministic uniform draws (delta-space) from the polytope interior."""
    rng = np.random.default_rng(seed)
    lo = p.vertices_z.min(axis=0)
    hi = p.vertices_z.max(axis=0)
    out = np.empty((count, p.dim))
    filled = 0
    while filled < count:
        cand = rng.uniform(lo, hi, size=(max(count, 1024), p.dim))
        ok = np.all(p.s @ cand.T <= p.h[:, None] + 0.0, axis=0)
        take = cand[ok][: count - filled]
        out[filled:filled + take.shape[0]] = take
        filled += take.shape[0]
    return p.mu[None, :] + out @ p.b.T


def truncated_deficit_expectation(f: RatingForecast, y) -> np.ndarray:
    """E[max(0, y_i - delta_i)] per line, in the units of y and mu.

    Closed form for normal delta_i; lines with zero variance fall back
    to the deterministic max(0, y - mu).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != f.dim:
        raise InputError(f"y must have length {f.dim}")
    sd = f.std()
    e = np.maximum(0.0, y - f.mu)
    positive = sd > 0
    if positive.any():
        beta = (y[positive] - f.mu[positive]) / sd[positive]
        e_pos = (y[positive] - f.mu[positive]) * norm_cdf(beta) + sd[positive] * norm_pdf(beta)
        e = e.astype(float)
        e[positive] = np.maximum(e_pos, 0.0)
    return e


def load_forecast(path: str | Path) -> RatingForecast:
    """Read a forecast document: per-line mu, covariance, lead time."""
    doc = read_json(path)
    for key in ("lines", "mu_pu", "sigma_pu2"):
        if key not in doc:
            raise InputError(f"{path}: missing field {key!r}")
    try:
        return RatingForecast(
            mu=np.asarray(doc["mu_pu"], dtype=float),
            sigma=np.asarray(doc["sigma_pu2"], dtype=float),
            lead_time_hours=float(doc["lead_time_hours"]) if "lead_time_hours" in doc else None,
            line_ids=tuple(str(x) for x in doc["lines"]),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
