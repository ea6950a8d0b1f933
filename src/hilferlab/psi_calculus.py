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
``w`` at ``t -> 0+`` separately. An optional ``origin_exponent`` hint
``rho`` lets the quadrature integrate such data: starting weights on the
first samples make it exact on ``x^(rho-1+e)``, e in {0, alpha, 2 alpha}
(Lubich 1986, *Discretized fractional calculus*).

Evaluating a trajectory at fixed times has two stages: :func:`probe` does
the work that depends on the times alone, once, and returns the apply
stage, which maps the node values of w to u(t). A Picard solve probes its
times once and applies every sweep.

Every function here is deterministic and safe to call concurrently. The
one piece of state is a cache of quadrature weights on each
:class:`Grid`: the grid-only part of the fractional integral (the kernel
spectra of the convolution path and the starting weights), built on
first use for each ``(alpha, rho)`` and reused by every later call on
that grid, such as each sweep of a Picard solve. An entry is a pure
function of the grid and its key, so a race between threads only
computes the same weights twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

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
    """Solution grid on [0, b] with its psi coordinates, plus a history grid on [-r, 0].

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
    history_size: int = 128,
    uniform_in: str = "psi",
) -> Grid:
    """Build the default grid: uniform in x = psi(t)-psi(0), or in t.

    Uniform-in-psi spacing is the default because it makes the product
    quadrature translation invariant (a fast convolution) and clusters
    nodes where psi grows slowly.
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
    hist = np.linspace(-r, 0.0, history_size + 1)  # its last node is exactly 0
    return Grid(nodes=t, history_nodes=hist, x=x)


@dataclass
class Trajectory:
    """Grid-sampled solution in weighted representation.

    ``weighted_values[i]`` holds ``w(t_{i+1}) = x(t_{i+1})^(1-gamma) u(t_{i+1})``
    at the interior nodes ``t_1..t_N``; ``initial_weight`` is the finite
    ``t -> 0+`` limit of w (the raw u may blow up like ``x^(gamma-1)``).
    ``history_values`` samples u itself on the history nodes; its last
    entry need not match the t -> 0+ limit of u, since the problem class
    imposes a weighted initial condition rather than continuity at 0.
    """

    grid: Grid
    weighted_values: np.ndarray
    initial_weight: float
    history_values: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        self.weighted_values = np.asarray(self.weighted_values, dtype=float)
        self.history_values = np.asarray(self.history_values, dtype=float)
        if self.weighted_values.shape != (self.grid.n_intervals,):
            raise ValueError(
                f"weighted_values must have one entry per interior node "
                f"({self.grid.n_intervals}), got shape {self.weighted_values.shape}"
            )
        if self.history_values.shape != self.grid.history_nodes.shape:
            raise ValueError("history_values must match history_nodes in length")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if not np.isfinite(self.initial_weight):
            raise ValueError("initial_weight must be finite")
        if not np.all(np.isfinite(self.weighted_values)):
            raise ValueError("weighted_values must be finite")
        if not np.all(np.isfinite(self.history_values)):
            raise ValueError("history_values must be finite")

    def unweight(self, weighted: np.ndarray) -> np.ndarray:
        """Raw values ``weighted * x^(gamma-1)`` of weighted data at the interior nodes."""
        return weighted * self.grid.x[1:] ** (self.gamma - 1.0)

    def node_values(self) -> np.ndarray:
        """The weighted values at every node: ``[initial_weight, w_1..w_N]``."""
        return np.concatenate(([self.initial_weight], self.weighted_values))


def probe(
    grid: Grid, psi: PsiFunction, gamma: float, history_values: np.ndarray, times
) -> Callable[[np.ndarray], np.ndarray]:
    """The probe stage of evaluating u at fixed ``times``; returns the apply stage.

    For t <= 0 the history values are interpolated linearly in t, here.
    For t > 0 this computes x = psi(t) - psi(0) and x^(gamma-1). The
    returned function takes the node values ``[w0, w_1..w_N]`` of the
    weighted solution, interpolates them linearly in x and unweights by
    ``x^(gamma-1)`` (for gamma < 1 this correctly blows up as t -> 0+).
    Given a (P, N+1) stack of node values, it returns one row of u per
    row of the stack.
    Times below the history window raise :class:`DelayRangeError`.
    """
    times = np.asarray(times, dtype=float)
    lo = float(grid.history_nodes[0])
    if np.any(times < lo - 1e-12 * max(1.0, abs(lo))):
        raise DelayRangeError(f"time {times.min()} below the covered history window [{lo}, 0]")
    past = times <= 0.0
    known = np.interp(times[past], grid.history_nodes, history_values)
    future = ~past
    xq = np.asarray(psi.shifted(times[future]), dtype=float)
    scale = xq ** (gamma - 1.0)
    x_nodes, shape = grid.x, times.shape

    def apply(w_nodes: np.ndarray) -> np.ndarray:
        out = np.empty(np.shape(w_nodes)[:-1] + shape)
        for row, w in zip(out.reshape(-1, *shape), np.reshape(w_nodes, (-1, x_nodes.size))):
            row[past] = known
            row[future] = np.interp(xq, x_nodes, w) * scale
        return out

    return apply


def trajectory_values(traj: Trajectory, psi: PsiFunction, t) -> np.ndarray:
    """Evaluate u(t) anywhere on [-r, b] (see :func:`probe`)."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    out = probe(traj.grid, psi, traj.gamma, traj.history_values, times)(traj.node_values())
    return out if np.ndim(t) else out[0]


# ---------------------------------------------------------------------------
# product-trapezoid quadrature for the left-sided fractional integral
# ---------------------------------------------------------------------------

def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: each odd p = 3^i 5^j < 2n doubled up to >= n."""
    odd = (3**i * 5**j for i in range(n.bit_length() + 1) for j in range(n.bit_length() + 1))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd if p < 2 * n)


def _uniform_spectra(alpha: float, h: float, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """FFT length and rfft spectra of the two kernels of the uniform-grid quadrature.

    On a uniform x-grid of spacing h the weights are translation invariant:

      I_i = h^a [ sum_{j<i} w_j (P0-P1)(i-j)  +  sum_{1<=j<=i} w_j P1(i-j+1) ]

    with P0, P1 the panel moments at unit spacing, so both sums are linear
    convolutions, done by ``numpy.fft`` without wraparound at ``_fast_len(2N+1)``.
    """
    d = np.arange(0, n + 1, dtype=float)
    da = d ** alpha
    da1 = d ** (alpha + 1.0)
    p0 = (da[1:] - da[:-1]) / alpha  # P0(1..n)
    p1 = d[1:] * p0 - (da1[1:] - da1[:-1]) / (alpha + 1.0)  # P1(1..n)
    size = _fast_len(2 * n + 1)
    scale = h ** alpha
    left = rfft(scale * np.concatenate(([0.0], p0 - p1)), size)
    right = rfft(scale * p1, size)
    return size, left, right


def _product_trapezoid_uniform(
    spectra: tuple[int, np.ndarray, np.ndarray], w: np.ndarray
) -> np.ndarray:
    """Uniform-grid quadrature: one rfft/irfft pair on w, (N+1,) or a (P, N+1) stack.

    The transforms take the whole stack at once. The spectral combine runs
    row by row: on a stack its complex temporaries outgrow the cache and
    take longer than the rows one at a time.
    """
    size, left, right = spectra
    spectrum = rfft(w, size)
    # ws * left + (ws - w0) * right in place: the second sum skips w_0, and the
    # spectrum of w_0 at index 0 is w_0 everywhere
    for ws, w0 in zip(np.atleast_2d(spectrum), np.atleast_2d(w)[:, :1]):
        skip = ws - w0
        skip *= right
        ws *= left
        ws += skip
    return irfft(spectrum, size)[..., : w.shape[-1]]


def _product_trapezoid_general(alpha: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Blockwise panel summation for non-uniform x-grids.

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
    return out.reshape(w.shape)


def _product_trapezoid(alpha: float, x: np.ndarray, spectra, w: np.ndarray) -> np.ndarray:
    """The product trapezoid of w on x: the FFT form when the kernel spectra exist."""
    if spectra is not None:
        return _product_trapezoid_uniform(spectra, w)
    return _product_trapezoid_general(alpha, x, w)


def _power_rule(alpha: float, sigma: float, x: np.ndarray) -> np.ndarray:
    """Gamma(sigma)/Gamma(alpha+sigma) x^(alpha+sigma-1), the integral of x^(sigma-1)."""
    return _gamma(sigma) / _gamma(alpha + sigma) * x ** (alpha + sigma - 1.0)


def _starting_weights(alpha: float, x: np.ndarray, rho: float, spectra) -> np.ndarray:
    """Starting weights as an (N, J) matrix acting on the samples w[1..J].

    The product trapezoid, with the sample at x=0 set to 0, plus these
    weights integrates each x^(rho-1+e), e in {0, alpha, 2 alpha}, exactly
    at every node (Lubich's correction; J = min(3, N)). The weights solve
    S V = R, where R holds the power rule minus the trapezoid for each
    power at x_1..x_N and V the powers at x_1..x_J; each power is scaled
    to 1 at x_J, which keeps V's condition number independent of h.
    """
    n = x.size - 1
    j = min(3, n)
    sigmas = rho + alpha * np.arange(j)  # e = 0, alpha, 2 alpha
    basis = np.zeros((j, n + 1))
    basis[:, 1:] = x[1:] ** (sigmas[:, None] - 1.0)
    exact = np.array([_gamma(alpha) * _power_rule(alpha, sigma, x[1:]) for sigma in sigmas])
    residual = exact - _product_trapezoid(alpha, x, spectra, basis)[:, 1:]
    scale = 1.0 / basis[:, j]
    values = basis[:, 1 : j + 1] * scale[:, None]  # row e: x_1..x_J
    return np.linalg.solve(values, residual * scale[:, None]).T


def _grid_weights(grid: Grid, alpha: float, rho: Optional[float]) -> tuple:
    """(kernel spectra or None, starting weights or None) of I^alpha on grid, cached on it."""
    found = grid._weights.get((alpha, rho))
    if found is None:
        x = grid.x
        spectra = (_uniform_spectra(alpha, float(np.diff(x).mean()), x.size - 1)
                   if grid.psi_uniform else None)
        start = None if rho is None else _starting_weights(alpha, x, rho, spectra)
        found = grid._weights.setdefault((alpha, rho), (spectra, start))
    return found


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
    The kernel spectra and the starting weights depend on the grid and the
    orders only: the first call on a grid builds them and later calls with
    the same ``(alpha, origin_exponent)`` reuse them.

    ``origin_exponent=rho`` (in (0, 2); 1 means no hint) declares that the
    integrand behaves like ``x^(rho-1) (c0 + c1 x^alpha + c2 x^(2 alpha) + ...)``
    near the origin. The sample at t=0 is then taken as 0, and starting
    weights on the samples at x_1..x_J, J = min(3, N), make the rule exact
    on ``x^(rho-1+e)`` for e in {0, alpha, 2 alpha}. Without the hint, the
    node-0 sample participates in the first panel like any other.
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
    spectra, start = _grid_weights(grid, float(alpha), rho)
    if start is None:
        out = _product_trapezoid(alpha, x, spectra, w)
    else:
        data = w.copy()
        data[..., 0] = 0.0
        out = _product_trapezoid(alpha, x, spectra, data)
        # row by row: a stacked product rounds differently from start @ w in the last bits
        for row, values in zip(np.atleast_2d(out), np.atleast_2d(w)):
            row[1:] += start @ values[1 : start.shape[1] + 1]

    out[..., 0] = 0.0
    return out / _gamma(alpha)


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
