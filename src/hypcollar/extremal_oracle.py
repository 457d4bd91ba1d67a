"""Independent discrete oracle for moduli of curve families.

A domain is three point predicates, its inside and its two electrodes
(GridDomain); a strip gives its graphs so (strip_domain).  Each shape's
constructor refuses a mesh too coarse for its features: a strip's least gap
and a comb's slit spacing must span 3 mesh cells.  The domain is
discretised on a square lattice (staircase approximation); the Dirichlet
problem u = 0 / 1 on the two electrodes with insulating remaining boundary
is solved with multigrid-preconditioned CG (a geometric V-cycle with
Galerkin coarse operators, after Briggs, Henson & McCormick, "A Multigrid
Tutorial", SIAM 2000) to residual 1e-8, where the energy, whose error is
quadratic in the residual, is at its rounding floor; the modulus of the
family of curves connecting the electrodes is the discrete Dirichlet energy.
Every estimate solves at two meshes (h and h/2) and combines the values by
Richardson extrapolation assuming first-order convergence.  The two meshes
share one lattice (the one at h is the h/2 lattice at even indices), whose
node classes the domain's predicates give from one column of abscissae and
one row of ordinates (_classes).
Where its node classes are mirror-symmetric along x, y or both, or square
and equal to their transpose, only a half, quarter or eighth of the lattice
is solved (_fold), and its energy is scaled to the whole lattice's: the
same discrete problem, so the same value up to rounding.  The meshes share
one multigrid hierarchy of bilinear transfers of that part (_transfers);
the h/2 solve starts from the h solution interpolated by the first of them,
with electrode b at 1.  A solve builds its Galerkin operators, and factors
the coarsest, shifted by 1e-12 relative on the diagonal, by banded Cholesky
in lattice order (_lattice_order), on the first call of its preconditioner,
so a solve whose start meets the tolerance builds neither.
Every matrix, transfer and Galerkin product is a bare CSR record (_CSR) of
the arrays that scipy's compiled sparse routines read, and the module calls
those routines itself; an estimate builds no scipy matrix.
Each estimate reports, per mesh, the unknowns and PCG iterations of the part
solved, the final relative residual and the seconds of the solve.
"""

import math
import time
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

from ._lazy import numpy as np

from .graph_modulus import _sample
from .hypgeom import ResolutionError

CG_TOL = 1e-8
CG_MAXITER = 200_000
# multigrid preconditioner: damped-Jacobi weight and sweeps per smoothing,
# and the size at which the coarsest level is solved directly
_OMEGA = 2.0 / 3.0
_SWEEPS = 2
_COARSEST = 1600
# most lattice nodes: the lattice matrix stores up to five entries per node,
# counted by int32 indices
_MAX_NODES = (2**31 - 1) // 5


class OracleError(ArithmeticError):
    """The discrete solve failed (no interior, disconnected, or CG stalled)."""


@dataclass(frozen=True)
class GridDomain:
    """A planar domain with two electrodes, ready for discretisation: three
    vectorised point predicates, `inside`, `electrode_a` and `electrode_b`.

    A predicate is called once per lattice, on the node abscissae x of
    shape (nx, 1) and ordinates y of shape (1, ny), and returns boolean
    values that broadcast to the lattice (nx, ny) (_classes): elementwise
    numpy expressions in x and y do, also ones that read one coordinate.
    `periodic_x` identifies x and x + periodic_x.
    `bbox` (x0, y0, x1, y1) is the domain's own extent; the lattice pads it
    by 2h on every side that is not periodic (_classes).
    """

    h: float
    bbox: Tuple[float, float, float, float]
    inside: Callable
    electrode_a: Callable
    electrode_b: Callable
    periodic_x: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("mesh size must be positive")


@dataclass(frozen=True)
class ModulusEstimate:
    """Result of the discrete solve at the meshes used."""

    value: float
    meshes: tuple
    raw_values: tuple
    error_bar: float
    extrapolated: bool
    # the interior nodes and PCG iterations at each mesh, of the part of the
    # lattice that was solved (a half, quarter or eighth where it has
    # mirrors)
    unknowns: tuple
    iterations: tuple
    # at each mesh, |A u - b| / |b| of the part's potential, and the seconds
    # of its solve (assembly, multigrid set-up, CG and energy; the shared
    # lattice, its mirrors and the transfers are in neither)
    residuals: tuple = ()
    seconds: tuple = ()


# node classes
_OUT, _IN, _A, _B = 0, 1, 2, 3


def _classes(dom, h):
    """Node classes of the lattice at mesh h.

    The lattice covers dom.bbox padded by 2·dom.h on every side that is not
    periodic, so an electrode on the edge of bbox has lattice nodes past the
    interior at both meshes.  Node coordinates are x0 + h·i and y0 + h·j
    from the padded corner.  Those of mesh h/2 at even indices are those of
    mesh h bit for bit (0.5·h is exact), so the lattice at h is the one at
    h/2 taken at even indices.  The predicates are called on the column of
    abscissae and the row of ordinates, and their results are broadcast to
    the lattice, so no array of node coordinates is built.  A lattice of
    more than _MAX_NODES nodes is refused before any array is allocated, and
    one whose arrays do not fit in memory.  Then, along a periodic x, a
    dom.h that does not divide the period is refused, at either mesh: h/2
    divides it where dom.h does.
    """
    pad = 2.0 * dom.h
    x0, y0, x1, y1 = dom.bbox
    y0, y1 = y0 - pad, y1 + pad
    if not dom.periodic_x:
        x0, x1 = x0 - pad, x1 + pad
    nodes = ((dom.periodic_x or x1 - x0) / h + 1) * ((y1 - y0) / h + 1)
    refusal = ("h = %.3g needs a lattice of about %.3g nodes at mesh %.3g, %%s; "
               "coarsen the mesh" % (dom.h, nodes, h))
    if nodes > _MAX_NODES:
        raise ResolutionError(refusal % (
            "past the %d that the solver's int32 indices allow" % _MAX_NODES))
    if dom.periodic_x:
        if not _divides(dom.h, dom.periodic_x):
            raise ResolutionError("mesh must divide the period")
        nx = int(round(dom.periodic_x / h))
    else:
        nx = _steps(h, x1 - x0) + 1
    ny = _steps(h, y1 - y0) + 1
    try:
        x = (x0 + h * np.arange(nx))[:, None]
        y = (y0 + h * np.arange(ny))[None, :]

        def lattice(predicate):
            return np.broadcast_to(predicate(x, y), (nx, ny))

        cls = np.full((nx, ny), _OUT, dtype=np.int8)
        a = lattice(dom.electrode_a)
        b = lattice(dom.electrode_b) & ~a
        inn = lattice(dom.inside) & ~a & ~b
        cls[inn] = _IN
        cls[a] = _A
        cls[b] = _B
        return cls
    except MemoryError:
        raise ResolutionError(refusal % "more than fits in memory") from None


def _divides(h, length):
    """Whether a whole number of mesh steps h spans length."""
    return math.isclose(round(length / h) * h, length, rel_tol=1e-9)


def _steps(h, length):
    """The whole mesh steps h within length; a length that h divides spans
    round(length / h) of them, whichever way the quotient rounds."""
    return int(round(length / h) if _divides(h, length)
               else math.floor(length / h))


class _CSR(NamedTuple):
    """A CSR matrix as the arrays that scipy's compiled routines read: the
    float64 values, their int32 column indices and row pointers, and the
    shape (rows, columns).  No index is checked and nothing is converted."""

    data: object
    indices: object
    indptr: object
    shape: tuple


def _trimmed(arr, nnz):
    """arr[:nnz], copied where that frees more than half of arr: the trim of
    scipy's CSR constructor."""
    return arr[:nnz].copy() if nnz < len(arr) // 2 else arr[:nnz]


def _compressed(cols, vals, n_cols):
    """The CSR matrix (_CSR) of n_cols columns whose row i holds vals[i, k]
    (vals[i] if vals has one value per row) at column cols[i, k] wherever
    cols[i, k] >= 0, for an (n, k) int32 table cols: int32 indices, entries
    in table order.  Where that is not canonical, scipy's compiled routines
    sort the rows out of column order (along a periodic seam) and merge the
    entries that share a column, as csr_matrix.sum_duplicates does (imported
    on the first estimate)."""
    from scipy.sparse._sparsetools import (
        csr_has_canonical_format, csr_sort_indices, csr_sum_duplicates)

    links = cols >= 0
    # each row's links: a sum of columns is faster than a row reduction
    row_len = sum(links.view(np.int8)[:, k] for k in range(cols.shape[1]))
    n = len(cols)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(row_len, out=indptr[1:])
    data = np.repeat(vals, row_len) if vals.ndim == 1 else vals[links]
    indices = cols[links]
    if not csr_has_canonical_format(n, indptr, indices):
        csr_sort_indices(n, indptr, indices, data)
        csr_sum_duplicates(n, n_cols, indptr, indices, data)
        nnz = indptr[-1]
        indices, data = _trimmed(indices, nnz), _trimmed(data, nnz)
    return _CSR(data, indices, indptr, (n, n_cols))


def _assemble(cls, wrap, mirrors=()):
    """The 5-point lattice matrix and right-hand side of the interior nodes.

    The unknowns are the interior nodes in row-major lattice order.  Each
    link has a conductance w: 1/2 along the lattice lines that `mirrors`
    names as (axis, index), and 1 elsewhere.  An electrode neighbour is
    Dirichlet data (0 on a, 1 on b); an outside neighbour is insulating (no
    link).  A row holds -w at each interior neighbour and the sum of w over
    the neighbours that are not outside on the diagonal; its right-hand side
    is the sum of w over the neighbours on b.  The matrix is one (n, 5)
    table of each interior node's neighbours on the lattice, ringed by
    outside nodes (or, along a periodic x, by its own first and last rows),
    with -w and the diagonal beside them, compressed by _compressed.
    """
    stride = cls.shape[1] + 2
    ring = np.pad(cls, 1, constant_values=_OUT)
    # ring positions fit in int32: the lattice has at most _MAX_NODES nodes
    nodes = np.flatnonzero(ring == _IN).astype(np.int32)
    n_unknown = len(nodes)
    index = np.full(ring.shape, -1, dtype=np.int32)
    index.flat[nodes] = np.arange(n_unknown, dtype=np.int32)
    if wrap:
        for arr in (ring, index):
            arr[0], arr[-1] = arr[-2], arr[1]
    ring, index = ring.ravel(), index.ravel()

    # the table: each row's five lattice neighbours in increasing column
    # order (off the periodic seam): x-1, y-1, the node itself, y+1, x+1;
    # and the conductance of each link, 0 to the node itself
    near = np.stack([nodes + step for step in (-stride, -1, 0, 1, stride)],
                    axis=1)
    weight = np.ones(near.shape)
    weight[:, 2] = 0.0
    for axis, line in mirrors:
        # a line of constant x holds links along y, and one of constant y
        # links along x
        coord = (nodes // stride if axis == 0 else nodes % stride) - 1
        on = coord == line % cls.shape[axis]
        for column in ((1, 3) if axis == 0 else (0, 4)):
            weight[on, column] = 0.5
    kinds = ring[near]
    # sums of 1 and 1/2 along each row, by a product with ones (exact)
    rhs = ((kinds == _B) * weight) @ np.ones(5)
    if not np.any(rhs):
        raise OracleError("electrode b is not adjacent to the interior; "
                          "domain appears disconnected")
    diag = ((kinds != _OUT) * weight) @ np.ones(5)
    cols = index[near]
    del kinds, near
    # the values: -w at each link, and the diagonal in the node's own column
    np.negative(weight, out=weight)
    weight[:, 2] = diag
    return _compressed(cols, weight, n_unknown), rhs


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

    The matrix is the (n, 4) table of each interior fine node's parents in
    increasing column order (off the periodic seam), compressed by _compressed.

    Returns the sparse interpolation of the coarse unknowns, each fine row's
    weight on coarse electrode-b nodes (so that interp @ u + lift lifts a
    coarse potential with b at 1 and a at 0), and the coarse node classes.
    """
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

    # along a periodic x of one coarse node, its two parents are merged
    interp = _compressed(np.stack(parents, axis=1), share, n_coarse)
    return interp, lift, coarse


def _transpose(mat):
    """The transpose of a _CSR matrix, as a _CSR matrix: scipy's compiled
    routine of mat.T.tocsr() (imported on the first estimate), on its int32
    arrays, without its index checks."""
    from scipy.sparse._sparsetools import csr_tocsc

    m, n = mat.shape
    nnz = len(mat.data)
    indptr = np.empty(n + 1, dtype=np.int32)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    csr_tocsc(m, n, mat.indptr, mat.indices, mat.data, indptr, indices, data)
    return _CSR(data, indices, indptr, (n, m))


def _matmul(x, y):
    """x @ y of two _CSR matrices, as a _CSR matrix: scipy's compiled
    routines of the sparse product (imported on the first estimate), on
    their int32 arrays, without its dispatch, conversions and index checks.
    As there, entries that sum to zero are dropped, and the arrays are
    trimmed to the entries kept (_trimmed)."""
    from scipy.sparse._sparsetools import csr_matmat, csr_matmat_maxnnz

    m, n = x.shape[0], y.shape[1]
    nnz = csr_matmat_maxnnz(m, n, x.indptr, x.indices, y.indptr, y.indices)
    indptr = np.empty(m + 1, dtype=np.int32)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    csr_matmat(m, n, x.indptr, x.indices, x.data, y.indptr, y.indices,
               y.data, indptr, indices, data)
    nnz = indptr[-1]
    return _CSR(_trimmed(data, nnz), _trimmed(indices, nnz), indptr, (m, n))


def _transfers(lat, wrap):
    """The interpolations of the multigrid hierarchy below a lattice, each
    with its restriction (the transpose, _transpose) stored as CSR and its
    electrode-b lift.

    Lattices are halved by _prolongation until at most _COARSEST unknowns
    are left or the lattice is too thin to halve; the last is solved
    directly (_coarsest), so a lattice of at most _COARSEST unknowns has no
    level below it.  The hierarchy below lat[::2, ::2] is this one without
    its first level, so meshes h and h/2 share one.
    """
    chain = []
    n = np.count_nonzero(lat == _IN)
    while n > _COARSEST and min(lat.shape) > 2:
        interp, lift, lat = _prolongation(lat, wrap)
        n = interp.shape[1]
        if n == 0:
            break
        chain.append((interp, _transpose(interp), lift))
    return chain


def _lattice_order(lat, wrap):
    """The unknowns of the lattice lat (its interior nodes in row-major
    order) row by row along its longer axis, so that a 9-point link spans at
    most the shorter side plus one places (George & Liu, 1981, ch. 4).  A
    periodic x keeps its axis, with its rows in the order 0, N-1, 1, N-2,
    ..., so that a link across the seam spans at most two rows."""
    inner = lat == _IN
    index = np.where(inner, np.cumsum(inner).reshape(lat.shape) - 1, -1)
    if wrap:
        p = np.arange(len(lat))
        index = index[np.where(p % 2, len(lat) - 1 - p // 2, p // 2)]
    elif lat.shape[0] < lat.shape[1]:
        index = index.T
    return index[index >= 0]


def _coarsest(a, order):
    """Banded Cholesky solve of the coarsest operator a + 1e-12 max(diag a) I,
    for a _CSR matrix a: a function r -> x valid until its next call.

    The upper triangle of a, its unknowns in `order` (_lattice_order), is
    scattered into LAPACK upper band storage, factored by dpbtrf and solved
    by dpbtrs.  Only that triangle is read, so the solve is exactly
    symmetric.  The shift keeps the factorisation defined when some interior
    nodes are linked to neither electrode: the lattice matrix is then
    singular, but the system stays consistent and their potential carries no
    energy.  Band storage holds every diagonal entry, also where a Galerkin
    product dropped the zero of an isolated node.
    """
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    n = a.shape[0]
    # rank[i]: the position of unknown i in the order
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    rows = np.repeat(rank, np.diff(a.indptr))
    cols = rank[a.indices]
    upper = rows <= cols
    rows, cols = rows[upper], cols[upper]
    width = int(np.max(cols - rows, initial=0))
    # band[width + i - j, j] holds entry (i, j) of the upper triangle
    band = np.zeros((width + 1, n), order="F")
    band[width + rows - cols, cols] = a.data[upper]
    band[width] += 1e-12 * band[width].max()
    factor, info = dpbtrf(band, overwrite_ab=1)
    if info != 0:
        raise OracleError("the coarsest multigrid operator is not positive "
                          "definite (LAPACK dpbtrf info %d)" % info)
    work, out = np.empty(n), np.empty(n)

    def solve(r):
        np.take(r, order, out=work)
        x, _ = dpbtrs(factor, work, overwrite_b=1)
        return np.take(x, rank, out=out)

    return solve


def _product(mat):
    """The product y = mat @ x of a _CSR matrix, written into a preallocated
    y: scipy's compiled CSR product (imported on the first solve) run on a
    zeroed y, the routine and the arithmetic of `mat @ x` for a scipy
    matrix, without its dispatch and its freshly allocated result."""
    from scipy.sparse._sparsetools import csr_matvec

    m, n = mat.shape
    indptr, indices, data = mat.indptr, mat.indices, mat.data

    def product(x, y):
        y.fill(0.0)
        csr_matvec(m, n, indptr, indices, data, x, y)
        return y

    return product


def _multigrid(mat, transfers, order):
    """Geometric multigrid V-cycle for the lattice matrix: a function
    r -> M r to precondition CG with.

    The levels are those of `transfers` (from _transfers), with Galerkin
    operators R (A P) (_matmul) and each level's diagonal read by scipy's
    compiled csr_diagonal; the coarsest level is solved by _coarsest, its
    unknowns in `order`.
    Each level smooths with _SWEEPS damped-Jacobi sweeps before and after its
    coarse correction, so the cycle is symmetric positive definite.  Each
    level owns preallocated work vectors, and every product writes into one
    of them (_product), in the arithmetic of `x += damp * (r - a @ x)`.  The
    vector returned is one of them (with no level, the coarsest solve's),
    valid until the next call of the V-cycle; the argument r is only read.
    """
    from scipy.sparse._sparsetools import csr_diagonal

    levels = []
    a = mat
    for interp, restrict, _ in transfers:
        n = a.shape[0]
        d = np.empty(n)  # 0 at an interior node with no linked neighbour
        csr_diagonal(0, n, n, a.indptr, a.indices, a.data, d)
        damp = np.divide(_OMEGA, d, out=np.zeros_like(d), where=d > 0)
        levels.append((_product(a), damp, _product(interp), _product(restrict),
                       np.empty(n), np.empty(n), np.empty(restrict.shape[0])))
        a = _matmul(restrict, _matmul(a, interp))
    coarsest = _coarsest(a, order)
    upward = levels[::-1]

    def sweep(a, damp, r, x, t):
        # x += damp * (r - a x), through the work vector t
        np.subtract(r, a(x, t), out=t)
        t *= damp
        x += t

    def vcycle(r):
        rs = []
        for a, damp, _, restrict, x, t, coarse in levels:
            np.multiply(damp, r, out=x)
            for _ in range(_SWEEPS - 1):
                sweep(a, damp, r, x, t)
            rs.append(r)
            r = restrict(np.subtract(r, a(x, t), out=t), coarse)
        x = coarsest(r)
        for (a, damp, interp, _, xf, t, _), rf in zip(upward, reversed(rs)):
            xf += interp(x, t)
            for _ in range(_SWEEPS):
                sweep(a, damp, rf, xf, t)
            x = xf
        return x

    return vcycle


def cg(A, b, x0, M, callback=None):
    """Conjugate gradients for the _CSR matrix A from x0 (only read),
    preconditioned by M (a function r -> M r, such as a V-cycle of
    _multigrid), in the arithmetic of scipy 1.17's scipy.sparse.linalg.cg at
    rtol=CG_TOL and atol=0, step for step: the iterates and the iteration
    count are its own bit for bit.

    The tolerance CG_TOL |b| is tested on |r| before each call of M.  Each
    step sets p = z (first) or p = beta p + z, then x += alpha p and
    r -= alpha q with q = A p, and calls callback(x).  Returns (x, the steps
    taken), or raises OracleError after CG_MAXITER steps.  A p is written
    into one preallocated vector (_product), and M's return is read before M
    is called again, so a V-cycle may return a vector valid until its next
    call.  `perfbench/tracing.py` wraps this module attribute, and calls it
    with A and b first and callback by keyword.
    """
    atol = CG_TOL * float(np.linalg.norm(b))
    n = len(b)
    product = _product(A)
    x = np.array(x0, dtype=float)
    p, q, t = np.empty(n), np.empty(n), np.empty(n)
    r = b - product(x, q) if x.any() else b.copy()
    for iteration in range(CG_MAXITER):
        if np.linalg.norm(r) < atol:
            return x, iteration
        z = M(r)
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p[:] = z
        alpha = rho / np.dot(p, product(p, q))
        x += np.multiply(alpha, p, out=t)
        r -= np.multiply(alpha, q, out=t)
        rho_prev = rho
        if callback:
            callback(x)
    raise OracleError("conjugate gradients did not reach residual %.0e "
                      "within %d iterations" % (CG_TOL, CG_MAXITER))


def _solve(cls, wrap, transfers, h, x0=None, mirrors=()):
    """Discrete energy of the lattice cls at mesh h, with conductance 1/2
    along its `mirrors` (_assemble), its interior potential, the number of
    PCG iterations taken (cg), starting from x0 or else from zero, and the
    relative residual |A u - b| / |b| of the potential.

    The V-cycle is built by the first call of the preconditioner, so a start
    that already meets the tolerance builds no hierarchy."""
    if not np.any(cls == _IN):
        raise OracleError("no interior nodes at h = %.3g" % h)
    mat, rhs = _assemble(cls, wrap, mirrors)
    vcycle = None

    def precondition(r):
        nonlocal vcycle
        if vcycle is None:
            k = 2**len(transfers)  # the coarsest lattice is cls[::k, ::k]
            vcycle = _multigrid(mat, transfers,
                                _lattice_order(cls[::k, ::k], wrap))
        return vcycle(r)

    u, iterations = cg(mat, rhs, np.zeros(len(rhs)) if x0 is None else x0,
                       precondition)
    # The lattice edge sum of w (U_i - U_j)^2, with U = u inside, 0 on
    # electrode a and 1 on b, is u.(A u - 2 rhs) + sum(rhs) for any u.  In
    # this arrangement nothing cancels: rhs.(1 - u) is the flux into b, and
    # u.(A u - rhs) is the residual's small share.
    residual = _product(mat)(u, np.empty(len(u)))
    residual -= rhs
    energy = float(u @ residual + rhs @ (1.0 - u))
    if energy <= 0.0:
        raise OracleError("zero energy: electrodes are not connected")
    return (energy, u, iterations,
            float(np.linalg.norm(residual) / np.linalg.norm(rhs)))


def _half(lat, periodic):
    """The half of the lattice lat on one side of a mirror across its first
    axis, or None where there is none: (half, mirror lines, factor).

    The mirror is the flip about the centre line, or along a periodic axis of
    N lines the reflection k -> -k mod N, which fixes lines 0 and N/2.  Its
    line has an even index, so that the lattice's even-indexed nodes (the
    lattice of the next coarser mesh) have it too.  The half runs from the
    mirror line, its line 0, to the lattice's edge (or, along a periodic
    axis, to line N/2, its line -1), and no longer wraps.
    - Where the flipped classes are the classes, the mirror is symmetric: the
      potential is even about it, the half's mirror lines are returned, and
      the lattice's energy is twice the half's once the links along them,
      which both halves share, have conductance 1/2.
    - Where they are the classes with the electrodes swapped, it is
      antisymmetric: the potential u is 1/2 on the mirror lines.  The half
      holds one electrode; swapped to b if it is a (the energy does not
      depend on the orientation), with the mirror lines as electrode a, it
      carries v = 2u - 1, and the lattice's energy is half the half's.  A
      mirror line that would then be linked to b at either mesh is not
      folded, since a link between two electrodes carries no unknown.
    """
    n = len(lat)
    if periodic and n % 4 == 0:
        flipped = np.roll(lat[::-1], 1, axis=0)
        half, lines = lat[:n // 2 + 1], [0, -1]
    elif not periodic and n % 4 == 1:
        flipped = lat[::-1]
        half, lines = lat[n // 2:], [0]
    else:
        return None
    if np.array_equal(flipped, lat):
        return half, lines, 2.0
    swap = np.array([_OUT, _IN, _B, _A], dtype=np.int8)
    if not np.array_equal(swap[flipped], lat):
        return None
    if np.any(half == _A):
        if np.any(half == _B):
            return None
        half = swap[half]
    else:
        half = half.copy()
    for line, inner in zip(lines, (half[1:3], half[-3:-1])):
        if np.any((half[line] == _IN) & (inner == _B)):
            return None
        half[line][half[line] == _IN] = _A
    return half, [], 0.5


def _fold(cls, wrap):
    """The part of the lattice cls that an estimate solves: one half or
    quarter of it where its node classes are mirror-symmetric along x, y or
    both (_half, tried along x and then along y of that half), else all of
    it; and of that, the nodes on and above its diagonal where it is square,
    does not wrap, equals its transpose, and its mirror lines are none or
    (0, 0) with (1, 0), so that the transpose keeps its conductances.
    Returns the part, whether it wraps along x, its mirror lines as
    (axis, index), along which its links have conductance 1/2, and the
    lattice's energy over the part's.  The part of the lattice at mesh 2h
    is the part's even-indexed nodes.

    The diagonal fold marks the nodes below the diagonal outside and
    doubles the factor.  A 5-point stencil has no link along the diagonal,
    so every link lies on one side of it, and each link below is the
    transpose of one above with the same conductance: the potential is
    symmetric, and the energy of the part's links is half the whole's.  A
    diagonal node keeps its links above the diagonal, so its row is half
    its row in the lattice before the fold.  The diagonal lies on
    even-indexed nodes at every level of the hierarchy."""
    mirrors, scale = [], 1.0
    for axis in (0, 1):
        half = _half(np.moveaxis(cls, axis, 0), wrap and axis == 0)
        if half is None:
            continue
        part, lines, factor = half
        cls = np.ascontiguousarray(np.moveaxis(part, 0, axis))
        mirrors += [(axis, line) for line in lines]
        scale *= factor
        wrap = wrap and axis != 0
    # array_equal is false for a part that is not square
    if (not wrap and mirrors in ([], [(0, 0), (1, 0)])
            and np.array_equal(cls, cls.T)):
        below = np.tri(len(cls), k=-1, dtype=bool)
        cls = np.where(below, np.int8(_OUT), cls)
        scale *= 2.0
    return cls, wrap, tuple(mirrors), scale


def discrete_modulus(domain):
    """Discrete modulus of the family of curves joining the two electrodes.

    Solves at meshes h and h/2 and Richardson-extrapolates assuming
    first-order convergence; error_bar is the difference of the two raw
    values.

    The estimate classifies one lattice, at h/2, and where its node classes
    are mirror-symmetric solves only the half, quarter or eighth of it that
    _fold keeps: the discrete problem is the same, so the scaled energies
    are the whole lattice's up to rounding, while the unknowns, iterations and
    residuals are those of the part.  It solves on the part's even-indexed
    nodes at h first, with the multigrid hierarchy of h/2 less its first
    level; the h/2 solve starts from the h potential, with electrode b at
    1, interpolated by that first level.  The lattice and the period are
    refused by _classes, before any solve; a feature too thin for the mesh
    is refused where the domain is built.
    """
    h = domain.h
    part, wrap, mirrors, scale = _fold(_classes(domain, 0.5 * h),
                                       domain.periodic_x is not None)
    transfers = _transfers(part, wrap)
    t0 = time.perf_counter()
    e1, u1, it1, res1 = _solve(part[::2, ::2], wrap, transfers[1:], h,
                               mirrors=mirrors)
    t1 = time.perf_counter()
    x0 = None
    if transfers:
        interp, _, lift = transfers[0]
        x0 = _product(interp)(u1, np.empty(interp.shape[0]))
        x0 += lift
    t2 = time.perf_counter()
    e2, u2, it2, res2 = _solve(part, wrap, transfers, 0.5 * h, x0,
                               mirrors=mirrors)
    t3 = time.perf_counter()
    v1, v2 = scale * e1, scale * e2
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
    """Rectangle [0, width] x [0, height], electrodes = bottom and top
    sides.  Each side must be positive and finite, and the mesh must divide
    it, so that the sides lie on lattice lines; where side / h is past the
    float range, the lattice is past what the solver takes, and _classes
    refuses it."""
    for side, length in (("width", width), ("height", height)):
        if not 0 < length < math.inf:
            raise ValueError("%s must be positive and finite, got %r"
                             % (side, length))
        if math.isfinite(length / h) and not _divides(h, length):
            raise ResolutionError("mesh h = %.3g does not divide the %s %.3g"
                                  % (h, side, length))
    return GridDomain(
        h=h,
        bbox=(0.0, 0.0, width, height),
        inside=lambda x, y: (x >= 0) & (x <= width) & (y > 0) & (y < height),
        electrode_a=lambda x, y: (y <= 0) & (x >= 0) & (x <= width),
        electrode_b=lambda x, y: (y >= height) & (x >= 0) & (x <= width),
        name="rectangle",
    )


def _on_grid(v, h):
    """The coordinates v read at the multiples of h/2 nearest to them.  A
    lattice whose bbox corners are multiples of h has its nodes at meshes h
    and h/2 there up to rounding; read this way, mirror images are exact
    negatives, and the nodes of mesh h are those of mesh h/2 bit for bit."""
    return np.rint(v * (2.0 / h)) * (0.5 * h)


def _multiple(length, h):
    """The least multiple of the mesh h that is at least length, or length
    itself where length / h is past the float range: its lattice is past
    what the solver takes, and _classes refuses it."""
    if not h > 0:
        raise ValueError("mesh size must be positive")
    steps = length / h
    return h * math.ceil(steps) if math.isfinite(steps) else length


def _per_lattice(geometry):
    """geometry(x, y), computed once for the column x and row y of a lattice
    however many of a domain's predicates read it (_classes calls each on
    the same two arrays).  The value is held through weak references to x
    and y and released when x is freed, so no lattice-sized array outlives
    _classes; other arguments, such as plain floats, are not held."""
    last = []

    def cached(x, y):
        if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)):
            return geometry(x, y)
        if not (last and last[0]() is x and last[1]() is y):
            last[:] = [weakref.ref(x), weakref.ref(y), geometry(x, y)]
            weakref.finalize(x, last.clear)
        return last[2]

    return cached


def annulus_domain(r1, r2, h):
    """Round annulus, electrodes = the two boundary circles.

    The lattice is centred on a node: the bbox is +-R with R the least
    multiple of h at least r2, and the predicates read each node on the grid
    (_on_grid), so the node classes are symmetric in x, in y and across the
    diagonal, and an estimate solves an eighth (_fold).  The three
    predicates share one radius array per lattice (_per_lattice).
    """
    if not 0 < r1 < r2:
        raise ValueError("need 0 < r1 < r2")
    big = _multiple(r2, h)

    @_per_lattice
    def radius(x, y):
        return np.hypot(_on_grid(x, h), _on_grid(y, h))

    def inside(x, y):
        r = radius(x, y)
        return (r > r1) & (r < r2)

    return GridDomain(
        h=h,
        bbox=(-big, -big, big, big),
        inside=inside,
        electrode_a=lambda x, y: radius(x, y) <= r1,
        electrode_b=lambda x, y: radius(x, y) >= r2,
        name="annulus",
    )


def annular_sector_domain(r1, r2, theta, h):
    """Annular sector r1 < r < r2, |phi| < theta/2 about the positive x-axis,
    electrodes = the two radial sides, a below the x-axis and b above it.

    The modulus of curves joining the radial sides is ln(r2/r1) / theta.
    The bbox corners are multiples of h, symmetric in y, and the predicates
    read each node on the grid (_on_grid), so the flip y -> -y maps the node
    classes onto themselves with the electrodes swapped, and an estimate
    solves the half above the x-axis (_fold).  The three predicates share
    one radius and one angle array per lattice (_per_lattice).
    """
    if not 0 < r1 < r2:
        raise ValueError("need 0 < r1 < r2")
    if not 0 < theta < 2 * math.pi:
        raise ValueError("need 0 < theta < 2 pi")
    side_angle = 0.5 * theta
    pad = 2 * h
    # the sector reaches r2 along the x-axis, and its sides' ends at
    # +-theta/2, or r2 along y past a right angle
    top = r2 if side_angle >= 0.5 * math.pi else r2 * math.sin(side_angle)
    left = min(r1 * math.cos(side_angle), r2 * math.cos(side_angle))

    @_per_lattice
    def polar(x, y):
        x, y = _on_grid(x, h), _on_grid(y, h)
        return np.hypot(x, y), np.arctan2(y, x), y

    def inside(x, y):
        r, phi, _ = polar(x, y)
        return (r > r1) & (r < r2) & (np.abs(phi) < side_angle)

    def side(sign):
        # the band r1 - 2h <= r <= r2 + 2h past the radial side on the side
        # of the x-axis given by sign
        def electrode(x, y):
            r, phi, y = polar(x, y)
            return ((r >= r1 - pad) & (r <= r2 + pad)
                    & (sign * phi >= side_angle) & (sign * y > 0))
        return electrode

    big = _multiple(top, h)
    return GridDomain(
        h=h,
        bbox=(-_multiple(-left, h), -big, _multiple(r2, h), big),
        inside=inside,
        electrode_a=side(-1.0),
        electrode_b=side(1.0),
        name="annular-sector",
    )


def comb_domain(epsilon, h=None):
    """Comb region: [0,1] x [0, eps] minus slits hanging from the top.

    N = ceil(1 / eps^2) and the slits sit at x = k/N, k = 2..N-1, spanning
    eps^2 <= y <= eps; on the lattice each is the column of mesh h nearest to
    k/N, so the meshes h and h/2 see the same slits.  Bottom side is one
    electrode; top side together with the slits is the other.  The
    vertical-segment family has modulus 1/eps (the slit abscissae have
    measure zero).
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
        # a column of mesh h is one of mesh h/2 too; 0.25 h takes one node
        # of it at either mesh
        k = np.rint(x * n_slits)
        column = np.rint(k * spacing / h) * h
        return (
            (y >= y_low)
            & (k >= 2)
            & (k <= n_slits - 1)
            & (np.abs(x - column) <= 0.25 * h)
        )

    return GridDomain(
        h=h,
        bbox=(0.0, 0.0, 1.0, epsilon),
        inside=lambda x, y: (x >= 0) & (x <= 1) & (y > 0) & (y < epsilon),
        electrode_a=lambda x, y: (y <= 0) & (x >= 0) & (x <= 1),
        electrode_b=lambda x, y: ((y >= epsilon) | on_slit(x, y))
        & (x >= 0) & (x <= 1),
        name="comb",
    )


def strip_domain(pair, h=None):
    """One period of the region between the graphs of a PeriodicFunctionPair.

    x is periodic with the pair's period; the two graphs are the electrodes,
    so the discrete modulus approximates the periodic-annulus modulus of the
    region (the modulus of the family joining the two boundary curves).
    Electrode a is y >= f(x), electrode b is y <= g(x), and the inside is
    g(x) < y < f(x), each graph read on the lattice's column of abscissae
    (graph_modulus._sample).  The mesh is snapped to divide the period, and
    a mesh whose least gap is thinner than 3 cells is refused here: the gap
    holds at least 3 cells at h and 6 at h/2.  The least gap is read from
    the pair's offsets F + G, as the bounds read it: f - g cancels to 0
    where both graphs are near the midline.
    """
    xs = pair.x1 + pair.period * np.arange(2049) / 2048.0
    fs, gs = _sample(pair.f, xs), _sample(pair.g, xs)
    F, G = pair.offsets()
    min_gap = float(np.min(_sample(F, xs) + _sample(G, xs)))
    if h is None:
        h = min(min_gap / 4.0, pair.period / 64.0)
    # snap to an integer division of the period, unless period / h is past
    # the float range: that lattice is past what the solver takes, and
    # _classes refuses it
    steps = pair.period / h
    if math.isfinite(steps):
        h = pair.period / math.ceil(steps)
    if min_gap < 3.0 * h:
        raise ResolutionError(
            "gap %.3g is thinner than 3 mesh cells (h = %.3g); "
            "need h <= %.3g" % (min_gap, h, min_gap / 3.0)
        )
    return GridDomain(
        h=h,
        bbox=(pair.x1, float(np.min(gs)), pair.x2, float(np.max(fs))),
        inside=lambda x, y: ((y > _sample(pair.g, x))
                             & (y < _sample(pair.f, x))),
        electrode_a=lambda x, y: y >= _sample(pair.f, x),
        electrode_b=lambda x, y: y <= _sample(pair.g, x),
        periodic_x=pair.period,
        name=pair.label or "strip",
    )
