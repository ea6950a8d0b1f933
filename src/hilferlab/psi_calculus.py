"""psi-transform geometry, grids, fractional operators, and norms.

Every operator here works in the transformed variable ``x = psi(t) - psi(0)``.
The substitution ``x = psi(s)`` absorbs the ``psi'(s)`` factor of the
psi-fractional kernel, so the left-sided integral of order ``a``,

    (1/Gamma(a)) * int_0^t psi'(s) (psi(t) - psi(s))^(a-1) w(s) ds,

becomes a classical power-kernel convolution in x. Grid samples are
integrated by product trapezoid: the integrand is interpolated piecewise
linearly in x and each panel is integrated against ``(X - x)^(a-1)`` in
closed form, which keeps full accuracy through the kernel singularity
at ``x = X``.

Solutions of the fractional problems treated here typically blow up like
``x^(gamma-1)`` at the origin, so trajectories store *weighted* values
``w(t) = x(t)^(1-gamma) u(t)`` at interior nodes and the finite limit of
``w`` at ``t -> 0+`` separately. Every correction of the quadrature is
Lubich's (1986, *Discretized fractional calculus*): an integrand that
carries powers ``(x - x_xi)_+^q`` at a point xi is made exact on them by
correction columns (:func:`power_columns`), added with coefficients
fitted to its samples next to xi (:func:`power_fit`); the two make a
:class:`Correction`, which :func:`add_corrections` adds to the rule's
result. An optional ``origin_exponent`` hint ``rho`` lets the quadrature
integrate data that blow up at the origin: the powers are then
``x^(rho-1+e)``, e in {0, alpha, 2 alpha}. A solve whose integrand is
finite there takes the powers of :func:`power_exponents`, those the rule
integrates below second order, at the origin and at a delay's first
breaking point.

Evaluating a trajectory at fixed times has two stages: :func:`probe` does
the work that depends on the times alone, once, and returns the apply
stage, which maps the node values of w to u(t). At times t <= 0, u is the
prescribed history phi itself, called once in the probe stage; no samples
of it are kept. Where u is a sum of such powers at 0+, the probe fits
them from the first nodes and reads them exactly between nodes. A Picard
solve probes its times once and applies every sweep.

Every function here is deterministic and safe to call concurrently. The
one piece of state is a cache of quadrature weights on each
:class:`Grid`: the grid-only part of the fractional integral (the kernel
spectrum of the convolution path, the correction columns, the power fits
at the origin and at other points, and the origin hint's
:class:`Correction`), built on first use for each key and reused by
every later call on that grid, such as each sweep of a Picard solve
(one rfft and one irfft of its stack). An entry is a pure function of
the grid and its key, so a race between threads only computes the same
weights twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np
from numpy.fft import irfft, rfft

from .errors import DelayRangeError, GridError
from .special_functions import gamma as _gamma

if TYPE_CHECKING:  # pragma: no cover
    from .problem_model import FractionalOrder

#: Rows per block in the general (non-uniform) quadrature path.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class PsiFunction:
    """An increasing C^1 transform psi with its derivative.

    ``fn`` and ``deriv`` must accept scalars or numpy arrays. ``inverse``
    is optional and inverts the shift: it maps x to the t with
    psi(t) - psi(0) = x, so a closed form keeps full relative accuracy as
    x -> 0; grid construction falls back to bisection on the bracket
    without it.
    ``exact_shift`` is an optional closed form of psi(t) - psi(0) that
    keeps full relative accuracy as t -> 0, where the plain difference
    cancels to 0 (and 0 ** (gamma - 1) to inf).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None
    exact_shift: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def shifted(self, t):
        """psi(t) - psi(0), the working variable of every operator."""
        if self.exact_shift is not None:
            return self.exact_shift(t)
        return self.fn(t) - self.fn(0.0)

    def invert_shifted(self, x, bracket: tuple[float, float]):
        """Solve psi(t) - psi(0) = x for t, elementwise."""
        x = np.asarray(x, dtype=float)
        if self.inverse is not None:
            return np.asarray(self.inverse(x), dtype=float)
        # psi increases, so bisect every element at once until no float
        # lies strictly between lo and hi
        lo, hi = np.full(x.shape, float(bracket[0])), np.full(x.shape, float(bracket[1]))
        while True:
            mid = 0.5 * (lo + hi)
            inside = (lo < mid) & (mid < hi)
            if not inside.any():
                return hi
            below = self.shifted(mid) < x
            lo, hi = np.where(inside & below, mid, lo), np.where(inside & ~below, mid, hi)

    def deriv_bounds(self, a: float, b: float, n: int = 2049) -> tuple[float, float]:
        """(min, max) of psi' sampled on [a, b]; feeds the zeta estimates."""
        d = np.asarray(self.deriv(np.linspace(a, b, n)), dtype=float)
        if not np.all(np.isfinite(d)) or not np.all(d > 0.0):
            raise ValueError(f"psi'{self.label and ' (' + self.label + ')'} must be finite "
                             f"and positive on [{a}, {b}]")
        return float(d.min()), float(d.max())


@dataclass(frozen=True, eq=False)
class Grid:
    """Solution grid on [0, b] with its psi coordinates, plus history output times on [-r, 0].

    ``nodes`` must start at exactly 0 and increase strictly. ``x`` holds
    ``psi(t) - psi(0)`` at the nodes, so it has one entry per node, starts
    at exactly 0 and increases strictly. ``history_nodes`` must increase
    strictly and end at exactly 0.

    ``psi_uniform`` is derived, never set: it holds when ``x`` is bit for
    bit ``np.linspace(0, x[-1], N + 1)``. Grids built uniform in psi always
    satisfy it, and so do identity-psi grids built uniform in t.

    A grid equals only itself: two grids with the same nodes are distinct
    objects, each with its own cache of quadrature weights. Compare the
    arrays to compare contents.
    """

    nodes: np.ndarray
    history_nodes: np.ndarray
    x: np.ndarray
    psi_uniform: bool = field(init=False)
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        hist = np.asarray(self.history_nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "history_nodes", hist)
        if nodes.ndim != 1 or nodes.size < 3:
            raise GridError("grid needs at least 2 intervals (3 nodes)")
        if nodes[0] != 0.0:
            raise GridError(f"grid must start at t=0, got {nodes[0]!r}")
        if not np.all(np.diff(nodes) > 0.0):
            raise GridError("grid nodes must be strictly increasing")
        if hist.ndim != 1 or hist.size < 2:
            raise GridError("history grid needs at least 2 nodes")
        if hist[-1] != 0.0:
            raise GridError(f"history grid must end at t=0, got {hist[-1]!r}")
        if not np.all(np.diff(hist) > 0.0):
            raise GridError("history nodes must be strictly increasing")
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if x.shape != nodes.shape:
            raise GridError(f"x has shape {x.shape}, the nodes {nodes.shape}")
        if x[0] != 0.0:
            raise GridError(f"x must start at 0, got {x[0]!r}")
        if not np.all(np.diff(x) > 0.0):
            raise GridError("psi must be strictly increasing across the grid nodes")
        uniform = np.array_equal(x, np.linspace(0.0, x[-1], x.size))
        object.__setattr__(self, "psi_uniform", uniform)

    @property
    def n_intervals(self) -> int:
        return self.nodes.size - 1

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])


def make_grid(
    psi: PsiFunction,
    b: float,
    n: int,
    r: float,
    uniform_in: str = "psi",
) -> Grid:
    """Build the default grid: uniform in x = psi(t)-psi(0), or in t.

    Uniform-in-psi spacing is the default because it makes the product
    quadrature translation invariant (a fast convolution) and clusters
    nodes where psi grows slowly. The history nodes are 128 equal
    intervals on [-r, 0]; they only sample u = phi for output.
    """
    if uniform_in not in ("psi", "t"):
        raise GridError(f"uniform_in must be 'psi' or 't', got {uniform_in!r}")
    if uniform_in == "t":
        t = np.linspace(0.0, b, n + 1)
        x = np.asarray(psi.shifted(t), dtype=float)
    else:
        x = np.linspace(0.0, float(psi.shifted(b)), n + 1)
        t = np.asarray(psi.invert_shifted(x, bracket=(0.0, b)), dtype=float)
        t[0], t[-1] = 0.0, b  # pin endpoints against inversion roundoff
    hist = np.linspace(-r, 0.0, 129)  # its last node is exactly 0
    return Grid(nodes=t, history_nodes=hist, x=x)


@dataclass
class Trajectory:
    """Grid-sampled solution in weighted representation.

    ``weighted_values[i]`` holds ``w(t_{i+1}) = x(t_{i+1})^(1-gamma) u(t_{i+1})``
    at the interior nodes ``t_1..t_N``; ``initial_weight`` is the finite
    ``t -> 0+`` limit of w (the raw u may blow up like ``x^(gamma-1)``).
    ``phi`` is the prescribed history, u itself on [-r, 0]; phi(0) need
    not match the t -> 0+ limit of u, since the problem class imposes a
    weighted initial condition rather than continuity at 0.
    """

    grid: Grid
    weighted_values: np.ndarray
    initial_weight: float
    phi: Callable[[np.ndarray], np.ndarray]
    gamma: float

    def __post_init__(self) -> None:
        self.weighted_values = np.asarray(self.weighted_values, dtype=float)
        if self.weighted_values.shape != (self.grid.n_intervals,):
            raise ValueError(
                f"weighted_values must have one entry per interior node "
                f"({self.grid.n_intervals}), got shape {self.weighted_values.shape}"
            )
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if not np.isfinite(self.initial_weight):
            raise ValueError("initial_weight must be finite")
        if not np.all(np.isfinite(self.weighted_values)):
            raise ValueError("weighted_values must be finite")

    def unweight(self, weighted: np.ndarray) -> np.ndarray:
        """Raw values ``weighted * x^(gamma-1)`` of weighted data at the interior nodes."""
        return weighted * self.grid.x[1:] ** (self.gamma - 1.0)

    def node_values(self) -> np.ndarray:
        """The weighted values at every node: ``[initial_weight, w_1..w_N]``."""
        return np.concatenate(([self.initial_weight], self.weighted_values))


#: Largest condition number of a scaled power fit (:func:`power_fit`).
_FIT_COND = 1e6

#: Most powers :func:`power_exponents` offers a fit: the integers and the
#: six smallest others (no fit on a grid of 200-4000 nodes keeps more than 6).
_MAX_POWERS = 8


def power_exponents(alpha: float) -> list[float]:
    """The powers q = j alpha + k (j, k >= 0) with q + alpha < 2: 0 and 1, then the rest ascending.

    The product trapezoid integrates x^q with an error of order h^(q+alpha)
    next to x = 0, so these are the powers that keep it below second order.
    Coincident members (alpha = 1/2 gives 2 alpha = 1) count once, as the
    integer. The integers lead, so a fit that must drop powers
    (:func:`power_fit`) keeps them, and stays exact on a smooth integrand.
    At most ``_MAX_POWERS`` are returned; the smallest of them all have
    j <= 2 _MAX_POWERS, so only those are formed, whatever alpha.
    """
    found: list[float] = []
    for j in range(min(int(2.0 / alpha), 2 * _MAX_POWERS) + 1):
        for k in (0, 1):
            q = j * alpha + k
            q = float(round(q)) if abs(q - round(q)) < 1e-9 else q
            if q + alpha < 2.0 and all(abs(q - p) >= 1e-9 for p in found):
                found.append(q)
    return sorted(found, key=lambda q: (q != round(q), q))[:_MAX_POWERS]


def _inverse(a: list) -> list:
    """The inverse of a small square matrix of floats: Gauss-Jordan with partial pivoting.

    A singular matrix gives an inverse of nans. The fits use this, not
    LAPACK, whose first call adds about 1.3 MB to a solve's peak memory.
    """
    n = len(a)
    rows = [list(row) + [float(i == r) for i in range(n)] for r, row in enumerate(a)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c] or math.nan
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c:
                factor = rows[r][c]
                rows[r] = [v - factor * e for v, e in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def power_fit(points: np.ndarray, exponents) -> tuple[list[float], np.ndarray]:
    """(powers kept, inverse) of fitting sum_q c_q p^q to samples at the first J points.

    J is the number of powers kept: the prefix of ``exponents`` grows one
    power at a time while its matrix of powers, scaled to 1 at the J-th
    point, has a condition number (in the max-row-sum norm) of at most
    ``_FIT_COND``; the scaling keeps it independent of the grid step. Row
    q of the inverse maps the J samples to c_q, the coefficient of the
    unscaled p^q.
    """
    exponents = [float(q) for q in exponents]
    kept, inverse, scale = [], [], 1.0
    for j in range(1, min(len(exponents), len(points)) + 1):
        at = points[:j].tolist()
        unit = at[-1] or 1.0
        powers = [[(p / unit) ** q for q in exponents[:j]] for p in at]
        trial = _inverse(powers)
        norm = max(sum(map(abs, row)) for row in powers)
        if not norm * max(sum(map(abs, row)) for row in trial) <= _FIT_COND:  # nan too
            break
        kept, inverse, scale = exponents[:j], trial, unit
    inverse = np.array(inverse).reshape(len(kept), len(kept))
    return kept, inverse / scale ** np.array(kept)[:, None]


def _cached(grid: Grid, key: tuple, build: Callable[[], object]):
    """The grid's cached entry for ``key``, built by ``build()`` on first use."""
    found = grid._weights.get(key)
    if found is None:
        found = grid._weights.setdefault(key, build())
    return found


def node_fit(
    grid: Grid, exponents, first: int = 0, shift: float = 0.0
) -> tuple[list[float], np.ndarray]:
    """:func:`power_fit` at the nodes from ``first`` on, measured from x = ``shift``.

    Cached on the grid for each ``(exponents, first, shift)``.
    """
    return _cached(grid, ("fit", tuple(exponents), first, float(shift)),
                   lambda: power_fit(grid.x[first:] - shift, exponents))


def probe(
    grid: Grid, psi: PsiFunction, gamma: float, phi: Callable, times, origin_powers=()
) -> Callable[[np.ndarray], np.ndarray]:
    """The probe stage of evaluating u at fixed ``times``; returns the apply stage.

    For t <= 0, u is the history: phi is called on those times, here.
    For t > 0 this computes x = psi(t) - psi(0) and x^(gamma-1). The
    returned function takes the node values ``[w0, w_1..w_N]`` of the
    weighted solution, interpolates them linearly in x and unweights by
    ``x^(gamma-1)`` (for gamma < 1 this correctly blows up as t -> 0+).
    Given a (P, N+1) stack of node values, it returns one row of u per
    row of the stack.

    With ``origin_powers`` (J powers q of u = sum_q b_q x^q + ... at
    0+), u at nodes 0..J-1 (u(0+) = w0 when gamma = 1, else 0) is fitted by
    sum_q b_q x^q (:func:`node_fit`), and each b_q times the
    interpolation's error on x^q is added back: the read is then exact on
    those powers, where plain interpolation errs by O(h^q) next to 0. The
    probe stage fixes the errors; the apply stage fits b once per row.
    Times below the history window raise :class:`DelayRangeError`.
    """
    times = np.asarray(times, dtype=float)
    lo = float(grid.history_nodes[0])
    if np.any(times < lo - 1e-12 * max(1.0, abs(lo))):
        raise DelayRangeError(f"time {times.min()} below the covered history window [{lo}, 0]")
    past = times <= 0.0
    known = np.broadcast_to(np.asarray(phi(times[past]), dtype=float), np.count_nonzero(past))
    future = ~past
    xq = np.asarray(psi.shifted(times[future]), dtype=float)
    scale = xq ** (gamma - 1.0)
    x_nodes, shape = grid.x, times.shape
    terms = []  # (weights on w at nodes 0..J-1, interpolation error) per fitted power
    powers, inverse = node_fit(grid, origin_powers)
    j = len(powers)
    if j:
        to_u = np.concatenate(([float(gamma == 1.0)], x_nodes[1:j] ** (gamma - 1.0)))
        # a time within rounding (4 ulps of x_N) of a node reads that node exactly
        near = np.rint(np.interp(xq, x_nodes, np.arange(x_nodes.size, dtype=float))).astype(int)
        off = np.flatnonzero(np.abs(xq - x_nodes[near]) > 8.9e-16 * x_nodes[-1])
        for q, row in zip(powers, inverse):
            # on x^q, w = x^(q+1-gamma): its interpolation is exact when that is 0 or 1
            if off.size and not (gamma == 1.0 and q == round(q)):
                at = xq[off]
                shown = np.interp(at, x_nodes, x_nodes ** (q + 1.0 - gamma)) * scale[off]
                terms.append((row * to_u, at ** q - shown))

    def apply(w_nodes: np.ndarray) -> np.ndarray:
        out = np.empty(np.shape(w_nodes)[:-1] + shape)
        for row, w in zip(out.reshape(-1, *shape), np.reshape(w_nodes, (-1, x_nodes.size))):
            row[past] = known
            u = np.interp(xq, x_nodes, w) * scale
            for weights, error in terms:
                u[off] += error * (weights * w[:j]).sum()
            row[future] = u
        return out

    return apply


def trajectory_values(traj: Trajectory, psi: PsiFunction, t) -> np.ndarray:
    """Evaluate u(t) anywhere on [-r, b] (see :func:`probe`)."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    out = probe(traj.grid, psi, traj.gamma, traj.phi, times)(traj.node_values())
    return out if np.ndim(t) else out[0]


# ---------------------------------------------------------------------------
# product-trapezoid quadrature for the left-sided fractional integral
# ---------------------------------------------------------------------------

def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: each odd 3^i 5^j below the best so far, doubled to >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def _uniform_spectra(alpha: float, h: float, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """FFT length, rfft spectrum of K and row P1(1..N+1), both times h^a/Gamma(a).

    On a uniform x-grid of spacing h the weights are translation invariant:

      I_i = h^a/Gamma(a) [ sum_{j<=i} w_j K(i-j)  -  w_0 P1(i+1) ],
      K(m) = (P0-P1)(m) [m >= 1]  +  P1(m+1),

    with P0, P1 the panel moments at unit spacing, so the sum is one linear
    convolution, done by ``numpy.fft`` without wraparound at ``_fast_len(2N+1)``.
    """
    d = np.arange(0, n + 2, dtype=float)
    da = d ** alpha
    da1 = d ** (alpha + 1.0)
    p0 = (da[1:] - da[:-1]) / alpha  # P0(1..n+1)
    p1 = d[1:] * p0 - (da1[1:] - da1[:-1]) / (alpha + 1.0)  # P1(1..n+1)
    size = _fast_len(2 * n + 1)
    scale = h ** alpha / _gamma(alpha)
    kernel = np.concatenate(([0.0], p0[:-1] - p1[:-1])) + p1
    return size, rfft(scale * kernel, size), scale * p1


def _product_trapezoid_uniform(
    kernel: tuple[int, np.ndarray, np.ndarray], w: np.ndarray
) -> np.ndarray:
    """The rule of :func:`_uniform_spectra` on w, (N+1,) or (P, N+1): one rfft, multiply, irfft."""
    size, k_hat, p1 = kernel
    spectrum = rfft(w, size)
    spectrum *= k_hat
    origin = w[..., :1] * p1  # the w_0 term, then the result: no iterate holds the irfft's buffer
    return np.subtract(irfft(spectrum, size)[..., : p1.size], origin, out=origin)


def _product_trapezoid_general(alpha: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Blockwise panel summation for non-uniform x-grids, divided by Gamma(alpha).

    Panel [x_j, x_{j+1}] gives row X, with A = X - x_j and B = X - x_{j+1},
    the moments M0 = (A^a - B^a)/a of (X - x)^(a-1) and
    M1 = A M0 - (A^(a+1) - B^(a+1))/(a+1) of (x - x_j)(X - x)^(a-1).
    A block of rows reaches only the panels left of its last node, and the
    powers of each endpoint distance serve the two panels that share it.
    A panel right of a row has both distances clamped to 0, so it adds 0.
    w may stack k sample vectors as (k, N+1); each block's moments then
    serve all k.
    """
    n = x.size - 1
    samples = np.atleast_2d(w)
    slopes = np.diff(samples) / np.diff(x)
    out = np.zeros(samples.shape)
    for lo in range(1, n + 1, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n + 1)
        d = np.maximum(x[lo:hi, None] - x[None, :hi], 0.0)
        da = d ** alpha
        da1 = d ** (alpha + 1.0)
        # M0 and M1 with A = d[:, j], B = d[:, j+1]
        m0 = (da[:, :-1] - da[:, 1:]) / alpha
        m1 = d[:, :-1] * m0 - (da1[:, :-1] - da1[:, 1:]) / (alpha + 1.0)
        for row, ws, slope in zip(out, samples, slopes):
            row[lo:hi] = np.sum(ws[: hi - 1] * m0 + slope[: hi - 1] * m1, axis=1)
    return out.reshape(w.shape) / _gamma(alpha)


def _product_trapezoid(alpha: float, x: np.ndarray, kernel, w: np.ndarray) -> np.ndarray:
    """The product trapezoid of w on x over Gamma(alpha): the FFT form when ``kernel`` exists."""
    if kernel is not None:
        return _product_trapezoid_uniform(kernel, w)
    return _product_trapezoid_general(alpha, x, w)


def _power_rule(alpha: float, sigma: float, x: np.ndarray) -> np.ndarray:
    """Gamma(sigma)/Gamma(alpha+sigma) x^(alpha+sigma-1), the integral of x^(sigma-1)."""
    return _gamma(sigma) / _gamma(alpha + sigma) * x ** (alpha + sigma - 1.0)


def _kernel(grid: Grid, alpha: float):
    """The kernel of I^alpha (:func:`_uniform_spectra`) on a psi-uniform grid, else None."""
    if not grid.psi_uniform:
        return None
    x = grid.x
    return _cached(grid, ("kernel", alpha),
                   lambda: _uniform_spectra(alpha, float(np.diff(x).mean()), x.size - 1))


def power_columns(grid: Grid, alpha: float, terms) -> np.ndarray:
    """Correction columns of I^alpha at non-smooth points of the integrand, cached on the grid.

    ``terms`` lists pairs (q, shift). Row j is I^alpha of (x - shift)_+^q
    of the j-th pair by the power rule minus the product trapezoid of its
    samples, at every node: adding c times it to the rule makes the rule
    exact on a term c (x - shift)_+^q of the integrand. The samples are 0
    at and left of ``shift``, and so is the row, so the power 0 is a unit
    jump just right of it. All rows take one quadrature call, which on a
    grid that is not psi-uniform shares each block's panel moments. Like
    the kernel spectrum, the columns are built on first use for each
    ``(alpha, terms)`` and reused by every later call.
    """
    terms = tuple((float(q), float(shift)) for q, shift in terms)

    def build() -> np.ndarray:
        x = grid.x
        # the first node right of each shift
        firsts = np.searchsorted(x, [shift for _, shift in terms], side="right").tolist()
        basis = np.zeros((len(terms), x.size))
        for row, (q, shift), k in zip(basis, terms, firsts):
            row[k:] = np.power(x[k:] - shift, q)  # not **, which takes sqrt at a scalar 1/2
        columns = -_product_trapezoid(alpha, x, _kernel(grid, float(alpha)), basis)
        for column, (q, shift), k in zip(columns, terms, firsts):
            column[:k] = 0.0
            column[k:] += _power_rule(alpha, q + 1.0, x[k:] - shift)
        return columns

    return _cached(grid, ("columns", float(alpha), terms), build)


class Correction(NamedTuple):
    """Columns added to a product-trapezoid integral, with coefficients fitted to its samples.

    The coefficient of ``columns[c]`` is ``sum_m fit[c, m] samples[nodes[m]]``;
    column c adds from node ``first`` on. The origin hint of
    :func:`frac_integral_grid` and the solver's fits at the origin and at
    a delay's breaking point all take this form.
    """

    first: int
    nodes: np.ndarray
    fit: np.ndarray
    columns: np.ndarray


def add_corrections(out: np.ndarray, samples: np.ndarray, corrections) -> None:
    """Add each :class:`Correction` of ``samples`` to the integral ``out``, in place.

    ``samples`` and ``out`` are one row (N+1,) or a (P, N+1) stack. The
    fit's sums run over the nodes in order (``cumsum`` is sequential), and
    each row then takes one multiply-add per column, so a stacked row
    rounds as alone.
    """
    for first, nodes, fit, columns in corrections:
        coefs = np.cumsum(samples[..., nodes][..., None, :] * fit, axis=-1)[..., -1]
        rows = out.reshape(-1, out.shape[-1])
        for row, coef in zip(rows, coefs.reshape(-1, len(columns)).tolist()):
            for column, c in zip(columns, coef):
                row[first:] += column * c


def _origin_hint(grid: Grid, alpha: float, rho: float) -> Correction:
    """The :class:`Correction` of the origin hint ``rho``, cached on the grid per ``(alpha, rho)``.

    It fits x^(rho-1+e), e in {0, alpha, 2 alpha}, to the samples at
    x_1..x_J (:func:`node_fit`) and adds their columns
    (:func:`power_columns`) from node 1 on.
    """
    def build() -> Correction:
        kept, fit = node_fit(grid, [rho - 1.0 + e for e in (0.0, alpha, 2.0 * alpha)], 1)
        columns = power_columns(grid, alpha, [(q, 0.0) for q in kept])
        return Correction(1, np.arange(1, len(kept) + 1), fit, columns[:, 1:])

    return _cached(grid, ("hint", alpha, rho), build)


def frac_integral_grid(
    alpha: float,
    psi: PsiFunction,
    samples: np.ndarray,
    grid: Grid,
    origin_exponent: Optional[float] = None,
) -> np.ndarray:
    """Left-sided psi-fractional integral of grid data, at every node.

    Returns the product-integration approximation of I^{alpha;psi} of the
    sampled function at all grid nodes; the value at t=0 is exactly 0.
    ``samples`` is one row (N+1,) or a (P, N+1) stack of rows, each
    integrated as if alone, bit for bit.
    The scheme is exact whenever the integrand is piecewise linear in
    x = psi(t) - psi(0), which is read from ``grid.x``; ``psi`` must be
    the transform the grid was built with (checked exactly at the last
    node), else :class:`GridError`. When ``grid.psi_uniform`` holds, the
    weights are translation invariant and the integral is an FFT
    convolution; otherwise the panels are summed blockwise at O(N^2) cost.
    The kernel spectrum and the hint's correction depend on the grid and
    the orders only: the first call on a grid builds them and later calls
    with the same ``alpha`` and ``(alpha, origin_exponent)`` reuse them.
    The result is a new array.

    ``origin_exponent=rho`` (in (0, 2); 1 means no hint) declares that the
    integrand behaves like ``x^(rho-1) (c0 + c1 x^alpha + c2 x^(2 alpha) + ...)``
    near the origin. The sample at t=0 is then taken as 0, and a
    :class:`Correction` fitted to the samples at x_1..x_J makes the rule
    exact on ``x^(rho-1+e)`` for e in {0, alpha, 2 alpha}: J = 3, or fewer
    where N < 3 or the fit's condition bound drops powers (below alpha of
    about 0.007 it keeps e = 0 and alpha). Without the hint, the node-0
    sample participates in the first panel like any other.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"frac_integral_grid requires alpha in (0, 1], got {alpha!r}")
    w = np.asarray(samples, dtype=float)
    if w.ndim > 2 or w.shape[-1:] != grid.nodes.shape:
        raise GridError(
            f"samples shape {w.shape} does not match grid shape {grid.nodes.shape}"
        )
    if not np.all(np.isfinite(w)):
        raise ValueError("samples must be finite at every grid node")
    if origin_exponent is not None and not (0.0 < origin_exponent < 2.0):
        raise ValueError(f"origin_exponent must lie in (0, 2), got {origin_exponent!r}")

    x = grid.x
    if psi.shifted(grid.horizon) != x[-1]:
        raise GridError("psi does not match the grid's x coordinates")
    rho = None if origin_exponent is None or origin_exponent == 1.0 else float(origin_exponent)
    kernel = _kernel(grid, float(alpha))
    if rho is None:
        out = _product_trapezoid(alpha, x, kernel, w)
    else:
        data = w.copy()
        data[..., 0] = 0.0
        out = _product_trapezoid(alpha, x, kernel, data)
        add_corrections(out, w, [_origin_hint(grid, float(alpha), rho)])

    out[..., 0] = 0.0
    return out


def power_rule_reference(alpha: float, sigma: float, psi: PsiFunction, t) -> np.ndarray:
    """Closed form of the fractional integral of ``(psi(s)-psi(0))^(sigma-1)``.

    I^{alpha;psi} maps that power to
    ``Gamma(sigma)/Gamma(alpha+sigma) * (psi(t)-psi(0))^(alpha+sigma-1)``;
    this is the quadrature oracle used throughout the tests.
    """
    if not alpha > 0.0:
        raise ValueError(f"power_rule_reference requires alpha > 0, got {alpha!r}")
    if not sigma > 0.0:
        raise ValueError(f"power_rule_reference requires sigma > 0, got {sigma!r}")
    return _power_rule(alpha, sigma, np.asarray(psi.shifted(t), dtype=float))


def hilfer_derivative_grid(
    order: FractionalOrder,
    psi: PsiFunction,
    samples: np.ndarray,
    grid: Grid,
    origin_exponent: Optional[float] = None,
) -> np.ndarray:
    """psi-Hilfer derivative of grid data by its three-stage composition.

    The derivative of order ``alpha`` and type ``beta`` is evaluated as

        I^{beta(1-alpha); psi}  o  (1/psi') d/dt  o  I^{(1-beta)(1-alpha); psi}

    with either fractional integral skipped when its order is zero. The
    middle stage uses 3-point centred differences in t (2nd-order
    one-sided at the ends) and is the dominant error source; callers must
    supply data whose inner integral is differentiable on the grid.

    ``origin_exponent=rho`` declares the data behaves like ``x^(rho-1)``
    near the origin. Besides selecting the inner quadrature's starting
    weights (see :func:`frac_integral_grid`), the hint lets
    the middle stage differentiate the smooth cofactor of ``x^mu`` (with
    ``mu = rho - 1 + (1-beta)(1-alpha)``) instead of the raw inner
    integral, which keeps the stencils away from the origin singularity;
    the node-0 output remains the plain one-sided estimate and is not
    reliable for singular data.
    """
    inner_order = (1.0 - order.beta) * (1.0 - order.alpha)
    outer_order = order.beta * (1.0 - order.alpha)

    if inner_order > 0.0:
        stage = frac_integral_grid(inner_order, psi, samples, grid, origin_exponent)
    else:
        stage = np.asarray(samples, dtype=float).copy()

    psi_prime = np.asarray(psi.deriv(grid.nodes), dtype=float)
    deriv = np.gradient(stage, grid.nodes, edge_order=2) / psi_prime

    hint_out: Optional[float] = None
    if origin_exponent is not None:
        mu = origin_exponent - 1.0 + inner_order
        x = grid.x
        # factor stage = x^mu * v; the quadrature's artificial 0 at node 0
        # never enters because v there is extrapolated
        v = stage.copy() if mu == 0.0 else stage * np.where(x > 0.0, x, 1.0) ** (-mu)
        v[0] = 2.0 * v[1] - v[2]
        dv = np.gradient(v, grid.nodes, edge_order=2) / psi_prime
        if mu == 0.0:
            deriv[1:] = dv[1:]
            deriv[0] = dv[0]
        else:
            deriv[1:] = x[1:] ** (mu - 1.0) * (mu * v[1:] + x[1:] * dv[1:])
        if 0.0 < mu < 2.0:
            hint_out = mu

    if outer_order > 0.0:
        return frac_integral_grid(outer_order, psi, deriv, grid, hint_out)
    return deriv


def weighted_norm(traj: Trajectory) -> float:
    """Max of |w| over the interior nodes and the t -> 0+ weighted limit.

    This is :func:`bielecki_norm` at delta = 0.
    """
    return bielecki_norm(0.0, traj)


def bielecki_norm(delta: float, traj: Trajectory) -> float:
    """Weighted sup-norm with exponential damping exp(-delta (psi(t)-psi(0)))."""
    if delta < 0.0:
        raise ValueError(f"bielecki_norm requires delta >= 0, got {delta!r}")
    damped = np.exp(-delta * traj.grid.x[1:]) * np.abs(traj.weighted_values)
    return max(abs(traj.initial_weight), float(np.max(damped)))
