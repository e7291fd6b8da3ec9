"""Lorentz (hyperboloid) model of hyperbolic space H^n.

Points live on the upper sheet of the two-sheeted hyperboloid embedded in
(n+1)-dimensional Minkowski space with signature (-,+,...,+):

    H^n = { x : <x,x>_L = -1, x0 >= 1 },   <x,y>_L = -x0*y0 + sum_i xi*yi

Geodesic distance is d(x,y) = arccosh(-<x,y>_L).  All operations are pure
functions over immutable values; there is no shared mutable state.

Unconstrained parameters are stored as spatial n-vectors and lifted onto the
manifold through :func:`project_to_hyperboloid`, which keeps one canonical
representation and makes serialization trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DivergenceError, InvalidPointError

# Constraint tolerances.  The hyperboloid check is scaled by x0^2 because
# <x,x>_L is computed with cancellation between O(x0^2) terms.
HYPERBOLOID_ATOL = 1e-9
TANGENT_ATOL = 1e-8
DISTANCE_INPUT_ATOL = 1e-6

# Below this excess s = a - 1 the distance gradient is treated as zero:
# d'(a) = 1/sqrt(a^2-1) blows up at coincidence, where the distance itself
# is non-smooth.
_GRAD_COINCIDENCE_CUTOFF = 1e-12

_ZERO_NORM_CUTOFF = 1e-12


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ContractViolation(f"{name} must be a 1-D real vector, got shape {arr.shape}")
    return arr


def lorentz_inner(x, y) -> float:
    """Lorentz inner product  <x,y>_L = -x0*y0 + sum_{i>=1} xi*yi.

    Bilinear and symmetric; defined for raw vectors of equal length >= 2.
    """
    xa = _as_vector(x, "x")
    ya = _as_vector(y, "y")
    if xa.shape != ya.shape:
        raise ContractViolation(f"dimension mismatch: {xa.shape} vs {ya.shape}")
    if xa.size < 2:
        raise ContractViolation("lorentz_inner needs vectors of length >= 2")
    return float(-xa[0] * ya[0] + xa[1:] @ ya[1:])


def _inner_unchecked(xa: np.ndarray, ya: np.ndarray) -> float:
    return float(-xa[0] * ya[0] + xa[1:] @ ya[1:])


@dataclass(frozen=True)
class LorentzPoint:
    """A point on the upper sheet of the hyperboloid, stored as (n+1) coords.

    coords[0] is the time-like coordinate; coords[1:] are space-like.
    """

    coords: np.ndarray = field()

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidPointError(f"expected an (n+1)-vector with n >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidPointError("non-finite coordinates")
        violation = abs(_inner_unchecked(arr, arr) + 1.0)
        if violation > HYPERBOLOID_ATOL * max(1.0, arr[0] * arr[0]):
            raise InvalidPointError(
                f"hyperboloid constraint violated by {violation:.3e} (|<x,x>_L + 1|)"
            )
        if arr[0] < 1.0 - 1e-12:
            raise InvalidPointError(f"time-like coordinate {arr[0]} is below the future sheet")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        """Intrinsic dimension n."""
        return self.coords.size - 1

    @property
    def space(self) -> np.ndarray:
        """The space-like part coords[1:]."""
        return self.coords[1:]


@dataclass(frozen=True)
class TangentVector:
    """An element of the tangent space T_x H^n, Lorentz-orthogonal to its base."""

    base: LorentzPoint
    components: np.ndarray = field()

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=float)
        if arr.shape != self.base.coords.shape:
            raise ContractViolation(
                f"tangent components shape {arr.shape} does not match base {self.base.coords.shape}"
            )
        ortho = abs(_inner_unchecked(self.base.coords, arr))
        scale = max(1.0, abs(self.base.coords[0]) * (1.0 + float(np.max(np.abs(arr)))))
        if ortho > TANGENT_ATOL * scale:
            raise InvalidPointError(f"vector is not tangent at base: |<x,u>_L| = {ortho:.3e}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    def norm(self) -> float:
        """Lorentzian norm sqrt(<u,u>_L); tangent vectors are space-like."""
        sq = _inner_unchecked(self.components, self.components)
        return math.sqrt(max(sq, 0.0))


def origin(n: int) -> LorentzPoint:
    """The hyperboloid base point (1, 0, ..., 0) in H^n."""
    coords = np.zeros(n + 1)
    coords[0] = 1.0
    return LorentzPoint(coords)


def project_to_hyperboloid(v_space) -> LorentzPoint:
    """Lift a spatial n-vector onto the hyperboloid: (sqrt(1 + |v|^2), v).

    The output satisfies the constraint exactly up to floating-point
    rounding; also used to re-normalize points after numerical drift.
    """
    arr = _as_vector(v_space, "v_space")
    if not np.all(np.isfinite(arr)):
        raise InvalidPointError("non-finite spatial coordinates")
    with np.errstate(over="ignore"):
        norm_sq = float(arr @ arr)
    if not np.isfinite(norm_sq):
        raise InvalidPointError("spatial vector too large to lift")
    coords = np.empty(arr.size + 1)
    coords[0] = math.sqrt(1.0 + norm_sq)
    coords[1:] = arr
    return LorentzPoint(coords)


def acosh_from_excess(s: float) -> float:
    """arccosh(1 + s) evaluated as log1p(s + sqrt(s(s+2))).

    Exact rearrangement of the defining logarithm: no cancellation for any
    s >= 0, and smooth down to the sqrt(2s) behaviour at 0.  Negative s
    (round-off below the clamp) maps to 0.  Where s(s+2) overflows (s past
    about 1.3e154), log(2) + log1p(s) is arccosh(1 + s) to rounding.
    """
    if s <= 0.0:
        return 0.0
    prod = s * (s + 2.0)
    return math.log(2.0) + math.log1p(s) if math.isinf(prod) else math.log1p(s + math.sqrt(prod))


def _sinh_from_excess(s: float) -> float:
    """sinh(arccosh(1 + s)) = sqrt(s(s+2)) for s > 0.  Where s(s+2)
    overflows (s past about 1.3e154), sqrt(s) * sqrt(s+2) is the same
    value to rounding."""
    prod = s * (s + 2.0)
    return math.sqrt(s) * math.sqrt(s + 2.0) if math.isinf(prod) else math.sqrt(prod)


def _check_on_manifold(p: LorentzPoint, tol: float) -> None:
    c = p.coords
    violation = abs(_inner_unchecked(c, c) + 1.0)
    if violation > tol * max(1.0, c[0] * c[0]):
        raise InvalidPointError(f"off-manifold input: constraint violated by {violation:.3e}")


def _excess(x: np.ndarray, y: np.ndarray) -> float:
    """-<x,y>_L - 1 for hyperboloid coordinates x and y.  For nearby points
    -<x,y>_L cancels to ~1 and loses the excess; the identity
    <y-x, y-x>_L = 2(-<x,y>_L - 1) recovers it from small, fully-precise
    differences."""
    s = -_inner_unchecked(x, y) - 1.0
    if s < 1e-4:
        diff = y - x
        s = 0.5 * _inner_unchecked(diff, diff)
    return s


def geodesic_distance(x: LorentzPoint, y: LorentzPoint) -> float:
    """Geodesic distance arccosh(-<x,y>_L); symmetric and non-negative."""
    _check_on_manifold(x, DISTANCE_INPUT_ATOL)
    _check_on_manifold(y, DISTANCE_INPUT_ATOL)
    if x.coords.shape != y.coords.shape:
        raise ContractViolation("points live in different dimensions")
    return acosh_from_excess(_excess(x.coords, y.coords))


def exp_map(x: LorentzPoint, u: TangentVector) -> LorentzPoint:
    """Geodesic flow from x with initial velocity u.

    exp_x(u) = cosh(|u|_L) x + sinh(|u|_L) u / |u|_L, re-projected onto the
    hyperboloid; |u|_L < 1e-12 returns x (series limit).
    """
    if not np.array_equal(u.base.coords, x.coords):
        raise ContractViolation("tangent vector is based at a different point")
    norm = u.norm()
    if norm < _ZERO_NORM_CUTOFF:
        return x
    coords = math.cosh(norm) * x.coords + math.sinh(norm) * (u.components / norm)
    if not np.all(np.isfinite(coords)):
        raise InvalidPointError(f"exp_map overflow at |u|_L = {norm:.3e}")
    return project_to_hyperboloid(coords[1:])


def log_map(x: LorentzPoint, y: LorentzPoint) -> TangentVector:
    """Inverse of exp_map: the tangent u at x with exp_x(u) = y.

    |u|_L equals geodesic_distance(x, y); for y = x the zero vector is
    returned.
    """
    if x.coords.shape != y.coords.shape:
        raise ContractViolation("points live in different dimensions")
    s = _excess(x.coords, y.coords)
    d = acosh_from_excess(s)
    if d < _ZERO_NORM_CUTOFF:
        return TangentVector(x, np.zeros_like(x.coords))
    # w = y + <x,y>_L x = (y - x) - s*x is the tangential part of y at x,
    # with <w,w>_L = a^2 - 1 = s(s+2); both forms keep precision near s=0.
    w = (y.coords - x.coords) - s * x.coords
    return TangentVector(x, (d / _sinh_from_excess(s)) * w)


def riemannian_gradient(x: LorentzPoint, euclidean_grad) -> TangentVector:
    """Project an ambient gradient to T_x H^n.

    Flips the sign of component 0 (metric raising), then removes the normal
    component: u = g + <x,g>_L x.  The output is Lorentz-orthogonal to x.
    """
    g = _as_vector(euclidean_grad, "euclidean_grad")
    if g.shape != x.coords.shape:
        raise ContractViolation(
            f"gradient shape {g.shape} does not match point shape {x.coords.shape}"
        )
    g = g.copy()
    g[0] = -g[0]
    u = g + _inner_unchecked(x.coords, g) * x.coords
    return TangentVector(x, u)


def rsgd_step(x: LorentzPoint, euclidean_grad, lr: float) -> LorentzPoint:
    """One Riemannian SGD step: exp_x(-lr * grad_R f(x)), re-projected."""
    if lr <= 0.0:
        raise ContractViolation(f"learning rate must be positive, got {lr}")
    g = np.asarray(euclidean_grad, dtype=float)
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradient in rsgd_step")
    u = riemannian_gradient(x, g)
    step = TangentVector(x, -lr * u.components)
    return exp_map(x, step)


def distance_spatial_grad(x: LorentzPoint, y: LorentzPoint) -> np.ndarray:
    """Gradient of d(x, y) with respect to x's spatial parameters.

    x is parametrized as project_to_hyperboloid(v); the chain rule through
    x0 = sqrt(1 + |v|^2) gives  dd/dv = (v * y0 / x0 - y_space) / sinh(d).
    Returns zero at coincidence (subgradient of the non-smooth minimum).
    """
    a = -_inner_unchecked(x.coords, y.coords)
    s = a - 1.0
    if s < _GRAD_COINCIDENCE_CUTOFF:
        return np.zeros(x.dim)
    return (x.space * (y.coords[0] / x.coords[0]) - y.space) / _sinh_from_excess(s)


# ---------------------------------------------------------------------------
# Vectorized distances over stacked hyperboloid rows: the retrieval scan.
# Semantics match the scalar distance above; the last bits need not.
# ---------------------------------------------------------------------------


def acosh_stable_array(a: np.ndarray) -> np.ndarray:
    s = np.maximum(np.asarray(a, dtype=float) - 1.0, 0.0)
    with np.errstate(over="ignore"):  # s past about 1.3e154
        prod = s * (s + 2.0)
    out = np.log1p(s + np.sqrt(prod))
    over = np.isinf(prod)
    if over.any():
        out = np.where(over, np.log(2.0) + np.log1p(s), out)
    return out


def distances_to_rows(point: np.ndarray, coords_rows: np.ndarray) -> np.ndarray:
    """Geodesic distance from one hyperboloid row to each row of an (m, n+1) array."""
    a = coords_rows[:, 0] * point[0] - coords_rows[:, 1:] @ point[1:]
    return acosh_stable_array(a)


# ---------------------------------------------------------------------------
# Row-wise maps at the origin and pair distances, each row bit for bit the
# scalar call on that row: elementwise steps are array ops, every dot
# product is one ``ddot`` per row (``matmul`` over stacked row vectors),
# and log1p, cosh and sinh go through ``math`` row by row, because numpy's
# versions differ from it in the last bit.  The maps keep the checks of the
# scalar path and its point types, raising for the first row that fails one.
# ---------------------------------------------------------------------------


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _origin_row(width: int) -> np.ndarray:
    row = np.zeros(width)
    row[0] = 1.0
    return row


def _as_rows(rows, min_width: int) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < min_width:
        raise ContractViolation(f"expected (m, k >= {min_width}) rows, got shape {arr.shape}")
    return arr


def _raise_first(checks) -> None:
    """``checks`` lists (row mask, message template, per-row values) in the
    order the scalar path checks a row.  Raise InvalidPointError for the
    first flagged row, with its first failing check's message."""
    flagged = np.logical_or.reduce([mask for mask, _, _ in checks])
    if flagged.any():
        i = int(np.argmax(flagged))
        template, values = next((tmpl, vals) for mask, tmpl, vals in checks if mask[i])
        raise InvalidPointError(template.format(values[i]))


def _check_origin_tangents(u: np.ndarray) -> None:
    """TangentVector's check at the origin.  There |<x,u>_L| is |u0| when
    u[1:] is finite; otherwise it is NaN and never flagged, as here, where
    a non-finite u[1:] makes the scale inf or NaN."""
    ortho = np.abs(u[:, 0])
    off = ortho > TANGENT_ATOL * np.maximum(1.0, 1.0 + np.abs(u).max(axis=1))
    _raise_first([(off, "vector is not tangent at base: |<x,u>_L| = {:.3e}", ortho)])


def project_rows(spatial) -> np.ndarray:
    """Row-wise ``project_to_hyperboloid``: (m, n) spatial rows to (m, n+1)
    hyperboloid rows, with the lift's and ``LorentzPoint``'s checks (its
    finiteness check holds once the first two pass)."""
    spatial = _as_rows(spatial, 1)
    coords = np.empty((spatial.shape[0], spatial.shape[1] + 1))
    coords[:, 1:] = spatial
    with np.errstate(over="ignore", invalid="ignore"):
        norm_sq = _row_dots(spatial, spatial)
        t = coords[:, 0] = np.sqrt(1.0 + norm_sq)
        violation = np.abs(-t * t + norm_sq + 1.0)
        off_sheet = violation > HYPERBOLOID_ATOL * np.maximum(1.0, t * t)
    _raise_first([
        (~np.isfinite(spatial).all(axis=1), "non-finite spatial coordinates", t),
        (~np.isfinite(norm_sq), "spatial vector too large to lift", t),
        (off_sheet, "hyperboloid constraint violated by {:.3e} (|<x,x>_L + 1|)", violation),
        (t < 1.0 - 1e-12, "time-like coordinate {} is below the future sheet", t),
    ])
    return coords


def pair_distance_rows(x: np.ndarray, y: np.ndarray):
    """Row-wise ``geodesic_distance(x[i], y[i])`` for hyperboloid rows x and
    y (as ``project_rows`` makes them), and the rows of
    ``distance_spatial_grad(x[i], y[i])`` and of ``distance_spatial_grad(y[i],
    x[i])``.  Each branch is taken as the scalar forms take it (a NaN
    excess is below neither cutoff), and arccosh and sinh go through
    ``math``."""
    s = -(-x[:, 0] * y[:, 0] + _row_dots(x[:, 1:], y[:, 1:])) - 1.0
    near = s < 1e-4
    excess = s.copy()
    if near.any():  # _excess's form, only where it takes it
        diff = y[near] - x[near]
        excess[near] = 0.5 * (-diff[:, 0] * diff[:, 0] + _row_dots(diff[:, 1:], diff[:, 1:]))
    dist = np.array(list(map(acosh_from_excess, excess.tolist())))
    live = ~(s < _GRAD_COINCIDENCE_CUTOFF)
    sinh = np.ones_like(s)
    sinh[live] = list(map(_sinh_from_excess, s[live].tolist()))
    gx = (x[:, 1:] * (y[:, 0] / x[:, 0])[:, None] - y[:, 1:]) / sinh[:, None]
    gy = (y[:, 1:] * (x[:, 0] / y[:, 0])[:, None] - x[:, 1:]) / sinh[:, None]
    gx[~live] = 0.0
    gy[~live] = 0.0
    return dist, gx, gy


def origin_log_rows(coords) -> np.ndarray:
    """Row-wise ``log_map(origin, y).components`` for hyperboloid rows y
    (as ``project_rows`` makes them): shape (m, n+1)."""
    coords = _as_rows(coords, 2)
    base = _origin_row(coords.shape[1])
    diff = coords - base
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # -<origin, y>_L - 1: the origin's spatial part is zero.
        s = coords[:, 0] - 1.0
        near = 0.5 * (-diff[:, 0] * diff[:, 0] + _row_dots(diff[:, 1:], diff[:, 1:]))
        s = np.where(s < 1e-4, near, s)
        d = np.array([acosh_from_excess(x) for x in s.tolist()])
        u = (d / np.sqrt(s * (s + 2.0)))[:, None] * (diff - s[:, None] * base)
    u[d < _ZERO_NORM_CUTOFF] = 0.0
    _check_origin_tangents(u)
    return u


def origin_exp_rows(u) -> np.ndarray:
    """Row-wise ``exp_map(origin, u)`` for tangent components u at the
    origin: (m, n+1) hyperboloid rows."""
    u = _as_rows(u, 2)
    _check_origin_tangents(u)
    base = _origin_row(u.shape[1])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm = np.sqrt(np.maximum(-u[:, 0] * u[:, 0] + _row_dots(u[:, 1:], u[:, 1:]), 0.0))
        still = norm < _ZERO_NORM_CUTOFF
        pairs = [
            (1.0, 0.0) if z else (math.cosh(x), math.sinh(x))
            for x, z in zip(norm.tolist(), still.tolist())
        ]
        ch, sh = np.array(pairs).reshape(-1, 2).T
        coords = ch[:, None] * base + sh[:, None] * (u / norm[:, None])
    coords[still] = base
    _raise_first([(~np.isfinite(coords).all(axis=1), "exp_map overflow at |u|_L = {:.3e}", norm)])
    return project_rows(coords[:, 1:])
