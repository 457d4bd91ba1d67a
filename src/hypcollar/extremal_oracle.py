"""Independent discrete oracle for moduli of curve families.

A domain is discretised on a square lattice (staircase approximation); the
Dirichlet problem u = 0 / 1 on the two electrodes with insulating remaining
boundary is solved with multigrid-preconditioned CG, residual 1e-10 (a
geometric V-cycle with Galerkin coarse operators, after Briggs, Henson &
McCormick, "A Multigrid Tutorial", SIAM 2000), and the modulus of the family
of curves connecting the electrodes is the discrete Dirichlet energy.
Values at two meshes (h and h/2) are combined by Richardson extrapolation
assuming first-order convergence.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

CG_TOL = 1e-10
CG_MAXITER = 200_000
# multigrid preconditioner: damped-Jacobi weight and sweeps per smoothing,
# and the size at which the coarsest level is solved directly
_OMEGA = 2.0 / 3.0
_SWEEPS = 2
_COARSEST = 400


class OracleError(ArithmeticError):
    """The discrete solve failed (no interior, disconnected, or CG stalled)."""


class ResolutionError(ValueError):
    """The mesh is too coarse to separate the domain's features."""


@dataclass(frozen=True)
class GridDomain:
    """A planar domain with two electrodes, ready for discretisation.

    Either give vectorised point predicates (`inside`, `electrode_a`,
    `electrode_b` taking numpy arrays x, y), or a strip profile
    (`f_of_x`, `g_of_x` scalar callables) in which case the region is
    g(x) < y < f(x) with electrode a on the upper graph and b on the lower.
    `periodic_x` identifies x and x + periodic_x.
    """

    h: float
    bbox: Tuple[float, float, float, float]
    inside: Optional[Callable] = None
    electrode_a: Optional[Callable] = None
    electrode_b: Optional[Callable] = None
    f_of_x: Optional[Callable[[float], float]] = None
    g_of_x: Optional[Callable[[float], float]] = None
    periodic_x: Optional[float] = None
    min_feature: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("mesh size must be positive")
        strip = self.f_of_x is not None and self.g_of_x is not None
        preds = (
            self.inside is not None
            and self.electrode_a is not None
            and self.electrode_b is not None
        )
        if not (strip or preds):
            raise ValueError("give either predicates or a strip profile")


@dataclass(frozen=True)
class ModulusEstimate:
    """Result of the discrete solve at the meshes used."""

    value: float
    meshes: tuple
    raw_values: tuple
    error_bar: float
    extrapolated: bool


# node classes
_OUT, _IN, _A, _B = 0, 1, 2, 3


def _classify_strip(dom, h):
    x0, y0, x1, y1 = dom.bbox
    if dom.periodic_x:
        nx = int(round(dom.periodic_x / h))
        if not math.isclose(nx * h, dom.periodic_x, rel_tol=1e-9):
            raise ResolutionError("mesh must divide the period")
        xs = x0 + h * np.arange(nx)
    else:
        nx = int(math.floor((x1 - x0) / h)) + 1
        xs = x0 + h * np.arange(nx)
    ny = int(math.floor((y1 - y0) / h)) + 1
    ys = y0 + h * np.arange(ny)
    fcol = np.array([dom.f_of_x(x) for x in xs])
    gcol = np.array([dom.g_of_x(x) for x in xs])
    if np.min(fcol - gcol) < 3.0 * h:
        raise ResolutionError(
            "gap %.3g is thinner than 3 mesh cells (h = %.3g); refine the mesh"
            % (float(np.min(fcol - gcol)), h)
        )
    Y = ys[None, :]
    F = fcol[:, None]
    G = gcol[:, None]
    cls = np.full((len(xs), ny), _OUT, dtype=np.int8)
    cls[(Y > G) & (Y < F)] = _IN
    cls[Y >= F] = _A
    cls[Y <= G] = _B
    return cls


def _classify_predicates(dom, h):
    x0, y0, x1, y1 = dom.bbox
    if dom.periodic_x:
        nx = int(round(dom.periodic_x / h))
        xs = x0 + h * np.arange(nx)
    else:
        nx = int(math.floor((x1 - x0) / h)) + 1
        xs = x0 + h * np.arange(nx)
    ny = int(math.floor((y1 - y0) / h)) + 1
    ys = y0 + h * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    cls = np.full(X.shape, _OUT, dtype=np.int8)
    a = dom.electrode_a(X, Y)
    b = dom.electrode_b(X, Y) & ~a
    inn = dom.inside(X, Y) & ~a & ~b
    cls[inn] = _IN
    cls[a] = _A
    cls[b] = _B
    return cls


def _lattice(dom, h):
    """Node classes of the domain's lattice at mesh h."""
    if dom.f_of_x is not None and dom.g_of_x is not None:
        return _classify_strip(dom, h)
    cls = _classify_predicates(dom, h)
    if dom.min_feature is not None and dom.min_feature < 3.0 * h:
        raise ResolutionError(
            "feature size %.3g is thinner than 3 mesh cells (h = %.3g)"
            % (dom.min_feature, h)
        )
    return cls


def _neighbour(arr, shift_x, shift_y, wrap, fill):
    """arr[i + shift_x, j + shift_y] at (i, j), or fill off the lattice
    (x wraps around when the domain is periodic)."""
    if shift_x and wrap:
        return np.roll(arr, -shift_x, axis=0)
    out = np.full_like(arr, fill)
    if shift_x == 1:
        out[:-1, :] = arr[1:, :]
    elif shift_x == -1:
        out[1:, :] = arr[:-1, :]
    elif shift_y == 1:
        out[:, :-1] = arr[:, 1:]
    else:
        out[:, 1:] = arr[:, :-1]
    return out


def _assemble(cls, wrap):
    """The 5-point lattice matrix and right-hand side of the interior nodes.

    The unknowns are the interior nodes in row-major lattice order.  An
    electrode neighbour is Dirichlet data (0 on a, 1 on b); an outside
    neighbour is insulating (no link).
    """
    from scipy import sparse

    interior = cls == _IN
    n_unknown = int(interior.sum())
    idx = -np.ones(cls.shape, dtype=np.int64)
    idx[interior] = np.arange(n_unknown)

    rows, cols, vals = [], [], []
    rhs = np.zeros(n_unknown)
    diag = np.zeros(n_unknown)
    for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nc = _neighbour(cls, sx, sy, wrap, _OUT)[interior]
        ni = _neighbour(idx, sx, sy, wrap, -1)[interior]
        diag += nc != _OUT
        rhs += nc == _B
        inter = np.flatnonzero(nc == _IN)
        rows.append(inter)
        cols.append(ni[inter])
        vals.append(-np.ones(len(inter)))

    if not np.any(rhs):
        raise OracleError("electrode b is not adjacent to the interior; "
                          "domain appears disconnected")
    rows.append(np.arange(n_unknown))
    cols.append(np.arange(n_unknown))
    vals.append(diag)
    mat = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_unknown, n_unknown),
    )
    return mat, rhs


def _prolongation(lat, wrap):
    """Interpolation onto a lattice from its even-indexed nodes.

    lat holds node classes; the coarse lattice is lat[::2, ::2] and its
    interior nodes are the coarse unknowns.  A fine node on a coarse node
    takes its value.  A fine node between two coarse nodes of a lattice line
    averages them over its links along the line: an electrode counts with
    value 0 and an outside node not at all, so constants are kept along
    insulating boundaries.  A fine node at a cell centre averages the
    interpolants of its four neighbours the same way.  Every coarse unknown
    is injected at its own fine node, so the interpolation has full column
    rank and the Galerkin operator P^T A P is positive definite with A.

    Returns the sparse interpolation and the coarse node classes.
    """
    from scipy import sparse

    nx, ny = lat.shape
    coarse = lat[::2, ::2]
    n_fine = np.count_nonzero(lat == _IN)
    n_coarse = np.count_nonzero(coarse == _IN)
    cidx = -np.ones(coarse.shape, dtype=np.int64)
    cidx[coarse == _IN] = np.arange(n_coarse)
    # pad to odd sizes, so that every odd line lies between two even ones
    rows = -np.ones((nx + 1 - nx % 2, ny + 1 - ny % 2), dtype=np.int64)
    rows[:nx, :ny][lat == _IN] = np.arange(n_fine)
    if nx % 2 == 0:
        if wrap:
            lat = np.concatenate((lat, lat[:1]))
            cidx = np.concatenate((cidx, cidx[:1]))
        else:
            lat = np.pad(lat, ((0, 1), (0, 0)), constant_values=_OUT)
            cidx = np.pad(cidx, ((0, 1), (0, 0)), constant_values=-1)
    if ny % 2 == 0:
        lat = np.pad(lat, ((0, 0), (0, 1)), constant_values=_OUT)
        cidx = np.pad(cidx, ((0, 0), (0, 1)), constant_values=-1)
    kc = lat[::2, ::2]

    def average(terms):
        """(coarse index, weight) pairs of the mean over linked neighbours;
        terms lists (neighbour class, its (coarse index, weight) pairs)."""
        links = sum((k != _OUT).astype(float) for k, _ in terms)
        inv = np.divide(1.0, links, out=np.zeros_like(links), where=links > 0)
        return [(c, w * ((k == _IN) * inv)) for k, pairs in terms
                for c, w in pairs]

    one = np.ones(kc.shape)
    on_x = average([(kc[:-1], [(cidx[:-1], one[:-1])]),
                    (kc[1:], [(cidx[1:], one[1:])])])
    on_y = average([(kc[:, :-1], [(cidx[:, :-1], one[:, :-1])]),
                    (kc[:, 1:], [(cidx[:, 1:], one[:, 1:])])])
    kx, ky = lat[1::2, ::2], lat[::2, 1::2]
    centre = average([
        (ky[:-1], [(c[:-1], w[:-1]) for c, w in on_y]),
        (ky[1:], [(c[1:], w[1:]) for c, w in on_y]),
        (kx[:, :-1], [(c[:, :-1], w[:, :-1]) for c, w in on_x]),
        (kx[:, 1:], [(c[:, 1:], w[:, 1:]) for c, w in on_x]),
    ])

    r_all, c_all, w_all = [], [], []
    for fine, pairs in ((rows[::2, ::2], [(cidx, one)]),
                        (rows[1::2, ::2], on_x),
                        (rows[::2, 1::2], on_y),
                        (rows[1::2, 1::2], centre)):
        for c, w in pairs:
            keep = (fine >= 0) & (w != 0)
            r_all.append(fine[keep])
            c_all.append(c[keep])
            w_all.append(w[keep])
    interp = sparse.csr_matrix(
        (np.concatenate(w_all),
         (np.concatenate(r_all), np.concatenate(c_all))),
        shape=(n_fine, n_coarse),
    )
    return interp, coarse


def _multigrid(mat, cls, wrap):
    """Geometric multigrid V-cycle for the lattice matrix, as a linear
    operator to precondition CG with.

    Levels are coarsened by _prolongation with Galerkin operators P^T A P
    until at most _COARSEST unknowns are left or the lattice is too thin to
    halve; the coarsest level is solved by sparse LU.  Each level smooths
    with _SWEEPS damped-Jacobi sweeps before and after its coarse
    correction, so the cycle is symmetric positive definite.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, splu

    levels = []
    a, lat = mat, cls
    while a.shape[0] > _COARSEST and min(lat.shape) > 2:
        interp, lat = _prolongation(lat, wrap)
        if interp.shape[1] == 0:
            break
        d = a.diagonal()  # 0 at an interior node with no linked neighbour
        damp = np.divide(_OMEGA, d, out=np.zeros_like(d), where=d > 0)
        levels.append((a, damp, interp))
        a = (interp.T @ (a @ interp)).tocsr()
    # The shift keeps the factorisation defined when some interior nodes are
    # linked to neither electrode: the lattice matrix is then singular, but
    # the system stays consistent and their potential carries no energy.
    shift = 1e-12 * a.diagonal().max()
    coarsest = splu((a + shift * sparse.identity(a.shape[0])).tocsc()).solve

    def vcycle(r):
        down = []
        for a, damp, interp in levels:
            x = damp * r
            for _ in range(_SWEEPS - 1):
                x += damp * (r - a @ x)
            down.append((x, r))
            r = interp.T @ (r - a @ x)
        x = coarsest(r)
        for (a, damp, interp), (xf, rf) in zip(levels[::-1], down[::-1]):
            xf += interp @ x
            for _ in range(_SWEEPS):
                xf += damp * (rf - a @ xf)
            x = xf
        return x

    return LinearOperator(mat.shape, matvec=vcycle, dtype=float)


def cg(A, b, **kwargs):
    """scipy.sparse.linalg.cg, imported on the first solve, so that importing
    this module loads no scipy.  It stays a module attribute for
    `perfbench/tracing.py` to wrap."""
    from scipy.sparse.linalg import cg as scipy_cg

    return scipy_cg(A, b, **kwargs)


def _energy(cls, u, wrap):
    """Dirichlet energy of the lattice potential: u on the interior, 0 on
    electrode a and outside, 1 on electrode b.  Each lattice edge counts
    once; only edges with an interior endpoint and no outside endpoint carry
    flux in a proper domain."""
    U = np.zeros(cls.shape)
    U[cls == _IN] = u
    U[cls == _B] = 1.0
    energy = 0.0
    for sx, sy in ((1, 0), (0, 1)):
        ncls = _neighbour(cls, sx, sy, wrap, _OUT)
        live = (cls == _IN) & (ncls != _OUT)
        live |= (ncls == _IN) & (cls != _OUT)
        d = (U - _neighbour(U, sx, sy, wrap, 0.0))[live]
        energy += float(np.sum(d * d))
    return energy


def _solve_at(dom, h):
    """Discrete energy at mesh h and the number of PCG iterations taken."""
    cls = _lattice(dom, h)
    if not np.any(cls == _IN):
        raise OracleError("no interior nodes at h = %.3g" % h)
    wrap = dom.periodic_x is not None
    mat, rhs = _assemble(cls, wrap)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    u, info = cg(mat, rhs, rtol=CG_TOL, atol=0.0, maxiter=CG_MAXITER,
                 M=_multigrid(mat, cls, wrap), callback=count)
    if info != 0:
        raise OracleError("conjugate gradients did not reach residual %.0e "
                          "within %d iterations" % (CG_TOL, CG_MAXITER))
    energy = _energy(cls, u, wrap)
    if energy <= 0.0:
        raise OracleError("zero energy: electrodes are not connected")
    return energy, iterations


def discrete_modulus(domain, refine=True):
    """Discrete modulus of the family of curves joining the two electrodes.

    Solves at meshes h and h/2 and Richardson-extrapolates assuming
    first-order convergence; error_bar is the difference of the two raw
    values.  With refine=False only the base mesh is used.
    """
    v1, _ = _solve_at(domain, domain.h)
    if not refine:
        return ModulusEstimate(
            value=v1, meshes=(domain.h,), raw_values=(v1,),
            error_bar=math.inf, extrapolated=False,
        )
    v2, _ = _solve_at(domain, 0.5 * domain.h)
    return ModulusEstimate(
        value=2.0 * v2 - v1,
        meshes=(domain.h, 0.5 * domain.h),
        raw_values=(v1, v2),
        error_bar=abs(v2 - v1),
        extrapolated=True,
    )


def rectangle_domain(width, height, h, name="rectangle"):
    """Rectangle [0, w] x [0, h], electrodes = bottom and top sides."""
    return GridDomain(
        h=h,
        bbox=(0.0, 0.0, width, height),
        inside=lambda x, y: (x >= 0) & (x <= width) & (y > 0) & (y < height),
        electrode_a=lambda x, y: (y <= 0) & (x >= 0) & (x <= width),
        electrode_b=lambda x, y: (y >= height) & (x >= 0) & (x <= width),
        name=name,
    )


def annulus_domain(r1, r2, h, name="annulus"):
    """Round annulus, electrodes = the two boundary circles."""
    if not 0 < r1 < r2:
        raise ValueError("need 0 < r1 < r2")
    pad = 2 * h
    return GridDomain(
        h=h,
        bbox=(-r2 - pad, -r2 - pad, r2 + pad, r2 + pad),
        inside=lambda x, y: (np.hypot(x, y) > r1) & (np.hypot(x, y) < r2),
        electrode_a=lambda x, y: np.hypot(x, y) <= r1,
        electrode_b=lambda x, y: np.hypot(x, y) >= r2,
        name=name,
    )


def annular_sector_domain(r1, r2, theta, h, name="annular-sector"):
    """Annular sector of opening theta, electrodes = the two radial sides.

    The modulus of curves joining the radial sides is ln(r2/r1) / theta.
    """
    if not 0 < r1 < r2:
        raise ValueError("need 0 < r1 < r2")
    if not 0 < theta < 2 * math.pi:
        raise ValueError("need 0 < theta < 2 pi")
    pad = 2 * h
    rb = lambda x, y: (np.hypot(x, y) >= r1 - pad) & (np.hypot(x, y) <= r2 + pad)

    def inside(x, y):
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        return (r > r1) & (r < r2) & (phi > 0) & (phi < theta)

    return GridDomain(
        h=h,
        bbox=(
            min(0.0, (r2 + pad) * math.cos(theta)) - pad,
            -2 * pad,
            r2 + pad,
            (r2 + pad) * (math.sin(theta) if theta < math.pi / 2 else 1.0) + pad,
        ),
        inside=inside,
        electrode_a=lambda x, y: (y <= 0) & (x > 0) & rb(x, y),
        electrode_b=lambda x, y: (np.arctan2(y, x) >= theta) & rb(x, y),
        name=name,
    )


def comb_domain(epsilon, h=None, name="comb"):
    """Comb region: [0,1] x [0, eps] minus slits hanging from the top.

    N = ceil(1 / eps^2) and the slits sit at x = k/N, k = 2..N-1, spanning
    eps^2 <= y <= eps.  Bottom side is one electrode; top side together with
    the slits is the other.  The vertical-segment family has modulus 1/eps
    (the slit abscissae have measure zero).
    """
    if not 0 < epsilon < 0.5:
        raise ValueError("need 0 < epsilon < 1/2")
    n_slits = int(math.ceil(1.0 / (epsilon * epsilon)))
    spacing = 1.0 / n_slits
    if h is None:
        h = spacing / 8.0
    if spacing < 3.0 * h:
        raise ResolutionError(
            "mesh h = %.3g too coarse to separate slits %.3g apart; "
            "need h <= %.3g" % (h, spacing, spacing / 3.0)
        )
    y_low = epsilon * epsilon

    def on_slit(x, y):
        k = np.rint(x * n_slits)
        return (
            (y >= y_low)
            & (k >= 2)
            & (k <= n_slits - 1)
            & (np.abs(x - k * spacing) <= 0.51 * h)
        )

    return GridDomain(
        h=h,
        bbox=(0.0, 0.0, 1.0, epsilon),
        inside=lambda x, y: (x >= 0) & (x <= 1) & (y > 0) & (y < epsilon),
        electrode_a=lambda x, y: (y <= 0) & (x >= 0) & (x <= 1),
        electrode_b=lambda x, y: ((y >= epsilon) | on_slit(x, y))
        & (x >= 0) & (x <= 1),
        min_feature=spacing,
        name=name,
    )


def comb_vertical_modulus(epsilon):
    """Modulus of the vertical-segment family of the comb region (= 1/eps)."""
    if not 0 < epsilon < 0.5:
        raise ValueError("need 0 < epsilon < 1/2")
    return 1.0 / epsilon


def strip_domain(pair, h=None, name=None):
    """One period of the region between the graphs of a PeriodicFunctionPair.

    x is periodic with the pair's period; the two graphs are the electrodes,
    so the discrete modulus approximates the periodic-annulus modulus of the
    region (the modulus of the family joining the two boundary curves).
    """
    xs = pair.x1 + pair.period * np.arange(2049) / 2048.0
    gaps = np.array([pair.f(x) - pair.g(x) for x in xs])
    fmax = max(pair.f(x) for x in xs)
    gmin = min(pair.g(x) for x in xs)
    min_gap = float(np.min(gaps))
    if h is None:
        h = min(min_gap / 4.0, pair.period / 64.0)
    # snap to an integer division of the period
    h = pair.period / int(math.ceil(pair.period / h))
    if min_gap < 3.0 * h:
        raise ResolutionError(
            "gap %.3g is thinner than 3 mesh cells (h = %.3g); "
            "need h <= %.3g" % (min_gap, h, min_gap / 3.0)
        )
    pad = 2 * h
    return GridDomain(
        h=h,
        bbox=(pair.x1, gmin - pad, pair.x2, fmax + pad),
        f_of_x=pair.f,
        g_of_x=pair.g,
        periodic_x=pair.period,
        min_feature=min_gap,
        name=name or (pair.label or "strip"),
    )
