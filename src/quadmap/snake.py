"""Grid paths (head, contour) with the snake property, and their sampler.

A path pair lives on the uniform grid k/m, k = 0..m: ``contour`` is a
nonnegative excursion and ``head`` a function constant on the contour's
tree classes (times s, s' with contour(s) = contour(s') = min between them
describe the same tree point, so the head must agree there).  The metric
is the sum of the two sup-norm distances; rerooting shifts time cyclically
and rebases both components, forming a group action.

The sampler draws the contour as sqrt(2) times a discretized normalized
excursion (an exactly uniform lattice excursion scaled by 1/sqrt(m)) and,
given the contour, the head as a centered Gaussian field with covariance
``head_cov * min contour`` between two times.  The default coefficient is
the discrete model's 2/3 (``DISCRETE_HEAD_COV``).  The grid object is
meant to approximate the discrete encodings, which ``normalize_encoding``
maps onto the same grid (contour / sqrt(n), labels / n^(1/4)).  In a
labeled tree two corners share the label increments on their common
ancestral path, whose length is the contour minimum between them, and
each {-1, 0, +1} increment has variance 2/3; so for every n,
E[f_s f_t | contour] = (2/3) min z over [s, t].  This agrees with the
paper's limit (contour / sqrt(2n) -> e, labels / (8n/9)^(1/4) -> r with
Cov(r_s, r_t) = min e): (8/9)^(1/2) min e = (2/3) min z for z = sqrt(2) e.
sqrt(2/3) is the standard deviation of one increment, not its variance.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .labeled import Encoding
from .paths import contour_accumulate, dyck_walk_batch

__all__ = [
    "SnakePath",
    "DEFAULT_HEAD_COV",
    "DISCRETE_HEAD_COV",
    "distance",
    "reroot_path",
    "first_argmin",
    "positive_representatives",
    "class_distances",
    "normalize_encoding",
    "sample_snake",
    "sample_snake_batch",
    "check_snake_property",
]

DISCRETE_HEAD_COV = 2.0 / 3.0
DEFAULT_HEAD_COV = DISCRETE_HEAD_COV

_SNAKE_TOL_EXACT = 1e-9
_SNAKE_TOL_SAMPLED = 1e-6


@dataclass(frozen=True, eq=False)
class SnakePath:
    """Pair (head, contour) sampled on the grid k/m, k = 0..m."""

    head: np.ndarray
    contour: np.ndarray
    snake_tol: float = field(default=_SNAKE_TOL_EXACT, compare=False)
    _checked: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        f = np.asarray(self.head, dtype=float)
        z = np.asarray(self.contour, dtype=float)
        f.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "head", f)
        object.__setattr__(self, "contour", z)
        if self._checked:
            return
        if f.ndim != 1 or f.shape != z.shape or f.shape[0] < 3:
            raise ValueError("head and contour must be equal-length grids, m >= 2")
        if not (np.isfinite(f).all() and np.isfinite(z).all()):
            raise ValueError("head and contour must be finite")
        tol = max(self.snake_tol, 1e-12)
        if max(abs(f[0]), abs(f[-1]), abs(z[0]), abs(z[-1])) > tol:
            raise ValueError("head and contour must vanish at both endpoints")
        if z.min() < -tol:
            raise ValueError("contour must be nonnegative")
        if not check_snake_property(f, z, self.snake_tol):
            raise ValueError("head is not constant on contour classes")

    @property
    def grid(self) -> int:
        """Number of grid intervals m."""
        return self.head.shape[0] - 1

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("s,f,zeta\n")
        m = self.grid
        for k in range(m + 1):
            buf.write(f"{k / m!r},{float(self.head[k])!r},{float(self.contour[k])!r}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SnakePath":
        rows = text.strip().splitlines()[1:]
        f = []
        z = []
        for row in rows:
            _, fv, zv = row.split(",")
            f.append(float(fv))
            z.append(float(zv))
        return cls(np.array(f), np.array(z), snake_tol=_SNAKE_TOL_SAMPLED)


def check_snake_property(head, contour, tol: float) -> bool:
    """Whether head values agree (within tol) on each contour class."""
    f = np.asarray(head, dtype=float)
    z = np.asarray(contour, dtype=float)
    stack: list[tuple[float, float]] = []  # (contour value, head at first corner)
    head_tol = max(tol, 1e-12)
    for zk, fk in zip(z, f):
        while stack and stack[-1][0] > zk + tol:
            stack.pop()
        if stack and abs(stack[-1][0] - zk) <= tol:
            if abs(stack[-1][1] - fk) > head_tol:
                return False
        else:
            stack.append((zk, fk))
    return True


def distance(x: SnakePath, y: SnakePath) -> float:
    """Sup-norm distance: ||head difference|| + ||contour difference||."""
    if x.grid != y.grid:
        raise ValueError("grids must match")
    return float(
        np.abs(x.head - y.head).max() + np.abs(x.contour - y.contour).max()
    )


def _theta_index(x: SnakePath, theta: float) -> int:
    k = theta * x.grid
    ki = int(round(k))
    if abs(k - ki) > 1e-9 or not 0 <= ki <= x.grid:
        raise ValueError("theta must be a grid point in [0, 1]")
    return ki % x.grid


def reroot_path(x: SnakePath, theta: float) -> SnakePath:
    """Cyclic time shift by a grid point, rebasing head and contour.

    The result is again a valid path pair and the operation is a group
    action: rerooting by a then b equals rerooting by a + b (mod 1).
    """
    k = _theta_index(x, theta)
    if k == 0:
        return x
    m = x.grid
    f, z = x.head, x.contour
    f2 = np.concatenate((f[k:], f[1 : k + 1])) - f[k]
    z2 = np.empty(m + 1)
    fwd = np.minimum.accumulate(z[k:])
    z2[: m - k + 1] = z[k:] + z[k] - 2.0 * fwd
    bwd = np.minimum.accumulate(z[: k + 1][::-1])[::-1]
    z2[m - k :] = z[: k + 1] + z[k] - 2.0 * bwd
    # rerooting preserves membership, so skip the per-point re-validation
    return SnakePath(
        f2, z2, snake_tol=max(x.snake_tol, _SNAKE_TOL_SAMPLED), _checked=True
    )


def first_argmin(values) -> float:
    """Smallest grid point in [0, 1) where the grid function is minimal."""
    v = np.asarray(values, dtype=float)
    m = v.shape[0] - 1
    return int(np.argmin(v[:m])) / m


def positive_representatives(x: SnakePath, tau_min: float = 0.0) -> list[SnakePath]:
    """Reroot images at every grid point within tau_min of the head minimum.

    Each output attains its head minimum 0 at time 0.
    """
    m = x.grid
    body = x.head[:m]
    lo = body.min()
    thetas = np.nonzero(body <= lo + tau_min)[0]
    return [reroot_path(x, k / m) for k in thetas]


def class_distances(
    x: SnakePath, y: SnakePath, tau_min: float = 0.0
) -> tuple[float, float]:
    """(closest, farthest) distances between rerooting classes.

    The first entry minimizes the metric over all pairs of nonnegative
    representatives of x and y.  The second treats y as a single target
    point and maximizes over the representatives of x.
    """
    reps_x = positive_representatives(x, tau_min)
    reps_y = positive_representatives(y, tau_min)
    closest = min(distance(a, b) for a in reps_x for b in reps_y)
    farthest = max(distance(a, y) for a in reps_x)
    return closest, farthest


def normalize_encoding(e: Encoding, n: int | None = None) -> SnakePath:
    """Scale a discrete encoding onto the grid: contour by n^(1/2), centered
    labels by n^(1/4); the grid size is 2n."""
    if n is None:
        n = e.n
    if n != e.n:
        raise ValueError("n does not match the encoding")
    f = (np.array(e.labels, dtype=float) - 1.0) / n**0.25
    z = np.array(e.walk.steps, dtype=float) / n**0.5
    # the encoding invariants already give the snake property exactly
    return SnakePath(f, z, _checked=True)


def sample_snake_batch(
    m: int,
    count: int,
    rng: np.random.Generator,
    head_cov: float = DEFAULT_HEAD_COV,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sampler; returns (heads, contours) of shape (count, m+1).

    The contour is sqrt(2)/sqrt(m) times a uniform lattice excursion of m
    steps; the head attaches independent centered Gaussian increments to
    the excursion's edges so that, given the contour, the covariance of the
    head between two times is ``head_cov`` times the contour minimum
    between them.  Each edge is one contour step of height sqrt(2/m), so
    its increment has variance ``head_cov * sqrt(2/m)``.  On the grid
    m = 2n this is ``head_cov / sqrt(n)``; a normalized labeled tree's
    increments have variance (2/3) / sqrt(n), hence the default 2/3.
    """
    if m < 2 or m % 2:
        raise ValueError("grid size m must be even and >= 2")
    half = m // 2
    walks = dyck_walk_batch(half, count, rng)
    z = walks * (math.sqrt(2.0) / math.sqrt(m))
    sigma = math.sqrt(head_cov * math.sqrt(2.0) / math.sqrt(m))
    incs = rng.normal(0.0, sigma, size=count * half)
    f = contour_accumulate(walks, incs, start=0.0)
    f[:, -1] = 0.0  # exact zero; the cumsum only leaves float residue
    return f, z


def sample_snake(
    m: int, rng: np.random.Generator, head_cov: float = DEFAULT_HEAD_COV
) -> SnakePath:
    """One draw of the limit path pair on an m-interval grid."""
    f, z = sample_snake_batch(m, 1, rng, head_cov)
    return SnakePath(f[0], z[0], snake_tol=_SNAKE_TOL_SAMPLED)
