"""Independent discrete oracle for moduli of curve families.

A domain is discretised on a square lattice (staircase approximation); the
Dirichlet problem u = 0 / 1 on the two electrodes with insulating remaining
boundary is solved with multigrid-preconditioned CG, residual 1e-10 (a
geometric V-cycle with Galerkin coarse operators, after Briggs, Henson &
McCormick, "A Multigrid Tutorial", SIAM 2000), and the modulus of the family
of curves connecting the electrodes is the discrete Dirichlet energy.
Every estimate solves at two meshes (h and h/2) and combines the values by
Richardson extrapolation assuming first-order convergence.  The two meshes
share one lattice (the one at h is the h/2 lattice at even indices) and one
multigrid hierarchy of transfers, which are bilinear interpolations
renormalised over the nodes that are not outside, each filled as CSR straight
from the node classes of its lattice; the h/2 solve starts from the h
solution interpolated by the first of them, with electrode b at 1.  The
coarsest Galerkin operator is factored by sparse LU after a 1e-12 relative
diagonal shift, added in place.  Each estimate reports, per mesh, the
unknowns, the PCG iterations, the final relative residual and the seconds of
the solve.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from ._lazy import numpy as np

CG_TOL = 1e-10
CG_MAXITER = 200_000
# multigrid preconditioner: damped-Jacobi weight and sweeps per smoothing,
# and the size at which the coarsest level is solved directly
_OMEGA = 2.0 / 3.0
_SWEEPS = 2
_COARSEST = 400
# most lattice nodes: the lattice matrix stores up to five entries per node,
# counted by int32 indices
_MAX_NODES = (2**31 - 1) // 5


class OracleError(ArithmeticError):
    """The discrete solve failed (no interior, disconnected, or CG stalled)."""


class ResolutionError(ValueError):
    """The mesh is too coarse to separate the domain's features, or so fine
    that its lattice passes the solver's int32 index range."""


@dataclass(frozen=True)
class GridDomain:
    """A planar domain with two electrodes, ready for discretisation.

    Either give vectorised point predicates (`inside`, `electrode_a`,
    `electrode_b` taking numpy arrays x, y), or a strip profile
    (`f_of_x`, `g_of_x` numpy functions mapping an array of x to the array of
    values of its shape; a constant may return a scalar) in which case the
    region is g(x) < y < f(x) with electrode a on the upper graph and b on
    the lower.
    `periodic_x` identifies x and x + periodic_x.
    """

    h: float
    bbox: Tuple[float, float, float, float]
    inside: Optional[Callable] = None
    electrode_a: Optional[Callable] = None
    electrode_b: Optional[Callable] = None
    f_of_x: "Optional[Callable[[np.ndarray], np.ndarray]]" = None
    g_of_x: "Optional[Callable[[np.ndarray], np.ndarray]]" = None
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
    unknowns: tuple  # interior nodes at each mesh
    iterations: tuple  # PCG iterations at each mesh
    # at each mesh, |A u - b| / |b| of the returned potential, and the
    # seconds of its solve (assembly, multigrid set-up, CG and energy; the
    # shared lattice and transfers are in neither)
    residuals: tuple = ()
    seconds: tuple = ()


# node classes
_OUT, _IN, _A, _B = 0, 1, 2, 3


def _profile(func, xs):
    """A strip profile on the array xs, broadcast to its shape; overflow,
    division by zero and invalid operations raise FloatingPointError."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return np.broadcast_to(np.asarray(func(xs), dtype=float), xs.shape)


def _classes(dom, h):
    """Node classes of the lattice at mesh h, and for a strip profile the gap
    between the graphs at each lattice column (None for predicates).

    Node coordinates are x0 + h·i and y0 + h·j.  Those of mesh h/2 at even
    indices are those of mesh h bit for bit (0.5·h is exact), so the lattice
    at h is the one at h/2 taken at even indices, once _check has accepted
    both meshes.  A lattice of more than _MAX_NODES nodes is refused before
    any array is allocated, and one whose arrays do not fit in memory.
    """
    x0, y0, x1, y1 = dom.bbox
    nodes = ((dom.periodic_x or x1 - x0) / h + 1) * ((y1 - y0) / h + 1)
    refusal = ("h = %.3g needs a lattice of about %.3g nodes at mesh %.3g, %%s; "
               "coarsen the mesh" % (dom.h, nodes, h))
    if nodes > _MAX_NODES:
        raise ResolutionError(refusal % (
            "past the %d that the solver's int32 indices allow" % _MAX_NODES))
    if dom.periodic_x:
        nx = int(round(dom.periodic_x / h))
    else:
        nx = int(math.floor((x1 - x0) / h)) + 1
    ny = int(math.floor((y1 - y0) / h)) + 1
    try:
        xs = x0 + h * np.arange(nx)
        ys = y0 + h * np.arange(ny)
        if dom.f_of_x is not None and dom.g_of_x is not None:
            fcol = _profile(dom.f_of_x, xs)
            gcol = _profile(dom.g_of_x, xs)
            Y = ys[None, :]
            F = fcol[:, None]
            G = gcol[:, None]
            cls = np.full((nx, ny), _OUT, dtype=np.int8)
            cls[(Y > G) & (Y < F)] = _IN
            cls[Y >= F] = _A
            cls[Y <= G] = _B
            return cls, fcol - gcol
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        cls = np.full(X.shape, _OUT, dtype=np.int8)
        a = dom.electrode_a(X, Y)
        b = dom.electrode_b(X, Y) & ~a
        inn = dom.inside(X, Y) & ~a & ~b
        cls[inn] = _IN
        cls[a] = _A
        cls[b] = _B
        return cls, None
    except MemoryError:
        raise ResolutionError(refusal % "more than fits in memory") from None


def _check(dom, h, gaps):
    """Refuse mesh h if it does not divide the period or cannot resolve the
    domain's thinnest feature; gaps are the strip gaps at its columns."""
    if dom.periodic_x and not math.isclose(
            round(dom.periodic_x / h) * h, dom.periodic_x, rel_tol=1e-9):
        raise ResolutionError("mesh must divide the period")
    if gaps is not None:
        if np.min(gaps) < 3.0 * h:
            raise ResolutionError(
                "gap %.3g is thinner than 3 mesh cells (h = %.3g); "
                "refine the mesh" % (float(np.min(gaps)), h)
            )
    elif dom.min_feature is not None and dom.min_feature < 3.0 * h:
        raise ResolutionError(
            "feature size %.3g is thinner than 3 mesh cells (h = %.3g)"
            % (dom.min_feature, h)
        )


def _lattice(dom, h):
    """Node classes of the domain's lattice at mesh h."""
    cls, gaps = _classes(dom, h)
    _check(dom, h, gaps)
    return cls


def _assemble(cls, wrap):
    """The 5-point lattice matrix and right-hand side of the interior nodes.

    The unknowns are the interior nodes in row-major lattice order.  An
    electrode neighbour is Dirichlet data (0 on a, 1 on b); an outside
    neighbour is insulating (no link).  The CSR arrays are filled straight
    from the lattice, ringed by outside nodes (or, along a periodic x, by
    its own first and last rows), with int32 indices.
    """
    from scipy import sparse

    stride = cls.shape[1] + 2
    ring = np.pad(cls, 1, constant_values=_OUT)
    nodes = np.flatnonzero(ring == _IN)
    n_unknown = len(nodes)
    index = np.full(ring.shape, -1, dtype=np.int32)
    index.flat[nodes] = np.arange(n_unknown, dtype=np.int32)
    if wrap:
        for arr in (ring, index):
            arr[0], arr[-1] = arr[-2], arr[1]
    ring, index = ring.ravel(), index.ravel()

    # a row's links in increasing column order (off the periodic seam):
    # x-1, y-1, the node itself, y+1, x+1
    steps = (-stride, -1, 0, 1, stride)
    near = [ring[nodes + step] for step in steps]
    diag = np.full(n_unknown, -1.0)
    rhs = np.zeros(n_unknown)
    for k in near:
        diag += k != _OUT
        rhs += k == _B
    if not np.any(rhs):
        raise OracleError("electrode b is not adjacent to the interior; "
                          "domain appears disconnected")
    links = [k == _IN for k in near]
    del near

    row_len = np.zeros(n_unknown, dtype=np.int32)
    for link in links:
        row_len += link
    indptr = np.zeros(n_unknown + 1, dtype=np.int32)
    np.cumsum(row_len, out=indptr[1:])
    del row_len
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    at = indptr[:-1].copy()
    for step, link in zip(steps, links):
        slots = at[link]
        indices[slots] = index[nodes[link] + step]
        data[slots] = diag[link] if step == 0 else -1.0
        at[link] += 1
    mat = sparse.csr_matrix((data, indices, indptr),
                            shape=(n_unknown, n_unknown))
    mat.sum_duplicates()  # sorts the seam rows; merges links when nx <= 2
    return mat, rhs


def _prolongation(lat, wrap):
    """Bilinear interpolation onto a lattice from its even-indexed nodes.

    lat holds node classes; the coarse lattice is lat[::2, ::2] and its
    interior nodes are the coarse unknowns.  Fine node (i, j) lies between
    its coarse parents: i // 2, and at odd i also i // 2 + 1 (wrapping along
    a periodic x), times the same along y.  Bilinear interpolation weights
    its up to four parents alike (1, 1/2 or 1/4), and each interior fine row
    is renormalised over the parents that are not outside: an electrode
    counts with its value and an outside node not at all, so constants are
    kept along insulating boundaries.  Each of the k parents not outside
    thus weighs 1/k.  Every coarse unknown is injected at its own fine node,
    so the interpolation has full column rank and the Galerkin operator
    P^T A P is positive definite with A.

    The CSR arrays are filled straight from the lattice, one slot per
    parent in increasing column order, with int32 indices.

    Returns the sparse interpolation of the coarse unknowns, each fine row's
    weight on coarse electrode-b nodes (so that interp @ u + lift lifts a
    coarse potential with b at 1 and a at 0), and the coarse node classes.
    """
    from scipy import sparse

    coarse = lat[::2, ::2]
    inner = coarse == _IN
    n_coarse = np.count_nonzero(inner)
    # a coarse node's column if interior, else -1 outside, -2 on electrode
    # a and -3 on b, with a last row and column of -1 for "no parent"
    code = np.full((coarse.shape[0] + 1, coarse.shape[1] + 1), -1,
                   dtype=np.int32)
    code[:-1, :-1] = -1 - (coarse != _OUT) - (coarse == _B)
    code[:-1, :-1][inner] = np.arange(n_coarse, dtype=np.int32)
    # along each axis, the first and second parents of each fine index
    axes = []
    for n, m, periodic in zip(lat.shape, coarse.shape, (wrap, False)):
        first = np.arange(n) // 2
        after = (first + 1) % m if periodic else first + 1
        axes.append((first, np.where(np.arange(n) % 2, after, m)))
    # the codes of the four parents of each interior fine node, in the order
    # of their coarse columns (off the periodic seam)
    nodes = np.flatnonzero(lat == _IN)
    parents = [code.take(px, axis=0).take(py, axis=1).ravel()[nodes]
               for px in axes[0] for py in axes[1]]
    kept = sum(p != -1 for p in parents)
    share = np.divide(1.0, kept, out=np.zeros(len(nodes)), where=kept > 0)
    lift = share * sum(p == -3 for p in parents)

    cols = np.stack(parents, axis=1)
    row_len = sum(p >= 0 for p in parents)
    indptr = np.zeros(len(nodes) + 1, dtype=np.int32)
    np.cumsum(row_len, out=indptr[1:])
    interp = sparse.csr_matrix(
        (np.repeat(share, row_len), cols[cols >= 0], indptr),
        shape=(len(nodes), n_coarse))
    # sorts the seam rows; merges the two parents along a periodic x of one
    # coarse node
    interp.sum_duplicates()
    return interp, lift, coarse


def _transfers(lat, wrap):
    """The interpolations of the multigrid hierarchy below a lattice, each
    with its restriction (the transpose) stored as CSR and its electrode-b
    lift.

    Lattices are halved by _prolongation until at most _COARSEST unknowns
    are left or the lattice is too thin to halve.  The hierarchy below
    lat[::2, ::2] is this one without its first level, so meshes h and h/2
    share one.
    """
    chain = []
    n = np.count_nonzero(lat == _IN)
    while n > _COARSEST and min(lat.shape) > 2:
        interp, lift, lat = _prolongation(lat, wrap)
        n = interp.shape[1]
        if n == 0:
            break
        chain.append((interp, interp.T.tocsr(), lift))
    return chain


def _coarsest(a):
    """Sparse LU solve of the coarsest operator a + 1e-12 max(diag a) I.

    The shift keeps the factorisation defined when some interior nodes are
    linked to neither electrode: the lattice matrix is then singular, but
    the system stays consistent and their potential carries no energy.  It
    is added in place to the stored diagonal of a CSC copy of a; a row that
    stores none (a Galerkin product drops the zero of an isolated node) gets
    one first.  The ordering is symmetric minimum degree on A + A^T.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    a = a.tocsc()
    n = a.shape[0]
    col = np.repeat(np.arange(n, dtype=a.indices.dtype), np.diff(a.indptr))
    diag = a.indices == col
    if np.count_nonzero(diag) < n:
        # store an explicit zero on each missing diagonal, then shift
        missing = np.setdiff1d(np.arange(n), col[diag], assume_unique=True)
        return _coarsest(sparse.csc_matrix(
            (np.concatenate((a.data, np.zeros(len(missing)))),
             (np.concatenate((a.indices, missing)),
              np.concatenate((col, missing)))),
            shape=a.shape))
    a.data[diag] += 1e-12 * a.data[diag].max()
    return splu(a, permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True}).solve


def _multigrid(mat, transfers):
    """Geometric multigrid V-cycle for the lattice matrix, as a linear
    operator to precondition CG with.

    The levels are those of `transfers` (from _transfers), with Galerkin
    operators R A P; the coarsest level is solved by _coarsest.  Each level
    smooths with _SWEEPS damped-Jacobi sweeps before and after its coarse
    correction, so the cycle is symmetric positive definite.
    """
    from scipy.sparse.linalg import LinearOperator

    levels = []
    a = mat
    for interp, restrict, _ in transfers:
        d = a.diagonal()  # 0 at an interior node with no linked neighbour
        damp = np.divide(_OMEGA, d, out=np.zeros_like(d), where=d > 0)
        levels.append((a, damp, interp, restrict))
        a = (restrict @ (a @ interp)).tocsr()
    coarsest = _coarsest(a)

    def vcycle(r):
        down = []
        for a, damp, _, restrict in levels:
            x = damp * r
            for _ in range(_SWEEPS - 1):
                x += damp * (r - a @ x)
            down.append((x, r))
            r = restrict @ (r - a @ x)
        x = coarsest(r)
        for (a, damp, interp, _), (xf, rf) in zip(levels[::-1], down[::-1]):
            xf += interp @ x
            for _ in range(_SWEEPS):
                xf += damp * (rf - a @ xf)
            x = xf
        return x

    return LinearOperator(mat.shape, matvec=vcycle, dtype=float)


def cg(A, b, **kwargs):
    """scipy.sparse.linalg.cg, imported on the first solve, so that importing
    this module loads no scipy (and, with numpy lazy, no numpy either).  It
    stays a module attribute for `perfbench/tracing.py` to wrap."""
    from scipy.sparse.linalg import cg as scipy_cg

    return scipy_cg(A, b, **kwargs)


def _solve(cls, wrap, transfers, h, x0=None):
    """Discrete energy of the lattice cls at mesh h, its interior potential,
    the number of PCG iterations taken, starting from x0, and the relative
    residual |A u - b| / |b| of the potential."""
    if not np.any(cls == _IN):
        raise OracleError("no interior nodes at h = %.3g" % h)
    mat, rhs = _assemble(cls, wrap)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    u, info = cg(mat, rhs, x0=x0, rtol=CG_TOL, atol=0.0, maxiter=CG_MAXITER,
                 M=_multigrid(mat, transfers), callback=count)
    if info != 0:
        raise OracleError("conjugate gradients did not reach residual %.0e "
                          "within %d iterations" % (CG_TOL, CG_MAXITER))
    # The lattice edge sum of (U_i - U_j)^2, with U = u inside, 0 on
    # electrode a and 1 on b, is u.(A u - 2 rhs) + sum(rhs) for any u.  In
    # this arrangement nothing cancels: rhs.(1 - u) is the flux into b, and
    # u.(A u - rhs) is the residual's small share.
    residual = mat @ u - rhs
    energy = float(u @ residual + rhs @ (1.0 - u))
    if energy <= 0.0:
        raise OracleError("zero energy: electrodes are not connected")
    return (energy, u, iterations,
            float(np.linalg.norm(residual) / np.linalg.norm(rhs)))


def discrete_modulus(domain):
    """Discrete modulus of the family of curves joining the two electrodes.

    Solves at meshes h and h/2 and Richardson-extrapolates assuming
    first-order convergence; error_bar is the difference of the two raw
    values.

    The estimate classifies one lattice, at h/2, and solves on its
    even-indexed nodes at h first, with the multigrid hierarchy of h/2 less
    its first level; the h/2 solve starts from the h potential, with
    electrode b at 1, interpolated by that first level.  Mesh h is checked
    and solved before mesh h/2 is checked, so a refusal is the one a solve
    at h alone would give.
    """
    h = domain.h
    wrap = domain.periodic_x is not None
    fine, gaps = _classes(domain, 0.5 * h)
    _check(domain, h, None if gaps is None else gaps[::2])
    transfers = _transfers(fine, wrap)
    t0 = time.perf_counter()
    v1, u1, it1, res1 = _solve(fine[::2, ::2], wrap, transfers[1:], h)
    t1 = time.perf_counter()
    _check(domain, 0.5 * h, gaps)
    x0 = None
    if transfers:
        interp, _, lift = transfers[0]
        x0 = interp @ u1 + lift
    t2 = time.perf_counter()
    v2, u2, it2, res2 = _solve(fine, wrap, transfers, 0.5 * h, x0)
    t3 = time.perf_counter()
    return ModulusEstimate(
        value=2.0 * v2 - v1,
        meshes=(h, 0.5 * h),
        raw_values=(v1, v2),
        error_bar=abs(v2 - v1),
        extrapolated=True,
        unknowns=(len(u1), len(u2)),
        iterations=(it1, it2),
        residuals=(res1, res2),
        seconds=(t1 - t0, t3 - t2),
    )


def rectangle_domain(width, height, h):
    """Rectangle [0, w] x [0, h], electrodes = bottom and top sides."""
    return GridDomain(
        h=h,
        bbox=(0.0, 0.0, width, height),
        inside=lambda x, y: (x >= 0) & (x <= width) & (y > 0) & (y < height),
        electrode_a=lambda x, y: (y <= 0) & (x >= 0) & (x <= width),
        electrode_b=lambda x, y: (y >= height) & (x >= 0) & (x <= width),
        name="rectangle",
    )


def annulus_domain(r1, r2, h):
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
        name="annulus",
    )


def annular_sector_domain(r1, r2, theta, h):
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
        name="annular-sector",
    )


def comb_domain(epsilon, h=None):
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
        name="comb",
    )


def comb_vertical_modulus(epsilon):
    """Modulus of the vertical-segment family of the comb region (= 1/eps)."""
    if not 0 < epsilon < 0.5:
        raise ValueError("need 0 < epsilon < 1/2")
    return 1.0 / epsilon


def strip_domain(pair, h=None):
    """One period of the region between the graphs of a PeriodicFunctionPair.

    x is periodic with the pair's period; the two graphs are the electrodes,
    so the discrete modulus approximates the periodic-annulus modulus of the
    region (the modulus of the family joining the two boundary curves).
    """
    xs = pair.x1 + pair.period * np.arange(2049) / 2048.0
    fs, gs = _profile(pair.f, xs), _profile(pair.g, xs)
    min_gap = float(np.min(fs - gs))
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
        bbox=(pair.x1, float(np.min(gs)) - pad,
              pair.x2, float(np.max(fs)) + pad),
        f_of_x=pair.f,
        g_of_x=pair.g,
        periodic_x=pair.period,
        name=pair.label or "strip",
    )
