import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from hypcollar import extremal_oracle as eo
from hypcollar import graph_modulus as gm

from helpers import (
    meshgrid_classes,
    profile_classes,
    scipy_csr,
    sinusoid_pair,
    solve_at,
    solve_whole,
)


def test_rectangle_extrapolation_exact():
    # raw discrete value is (W + h)/H; one Richardson step cancels it exactly
    est = eo.discrete_modulus(eo.rectangle_domain(3.0, 1.0, h=1.0 / 32))
    assert est.extrapolated
    assert est.value == pytest.approx(3.0, abs=1e-9)
    assert est.raw_values[0] == pytest.approx(3.0 + 1.0 / 32, abs=1e-9)
    assert est.error_bar == pytest.approx(1.0 / 64, abs=1e-9)
    # the h potential is linear in y, which bilinear interpolation with
    # electrode b at 1 reproduces: the h/2 solve starts at its solution
    assert est.unknowns[1] > eo._COARSEST
    assert est.iterations[1] == 0


def test_rectangle_aspect_sweep():
    for w, ht in ((1.0, 1.0), (2.0, 1.0), (1.0, 4.0)):
        est = eo.discrete_modulus(eo.rectangle_domain(w, ht, h=1.0 / 16))
        assert est.value == pytest.approx(w / ht, rel=1e-6)


def test_electrode_swap_symmetry():
    # conductance between two electrodes does not depend on orientation
    base = eo.rectangle_domain(1.0, 1.0, h=1.0 / 8)
    swapped = eo.GridDomain(
        h=base.h,
        bbox=base.bbox,
        inside=base.inside,
        electrode_a=base.electrode_b,
        electrode_b=base.electrode_a,
        name="swapped",
    )
    a = solve_whole(base, base.h)[0]
    b = solve_whole(swapped, swapped.h)[0]
    assert a == pytest.approx(b, abs=1e-12)


def test_annulus_modulus():
    est = eo.discrete_modulus(eo.annulus_domain(1.0, 2.0, h=1.0 / 32))
    want = 2.0 * math.pi / math.log(2.0)
    assert est.value == pytest.approx(want, rel=0.02)


def test_annular_sector_modulus():
    est = eo.discrete_modulus(
        eo.annular_sector_domain(1.0, math.e, math.pi / 2, h=1.0 / 32)
    )
    assert est.value == pytest.approx((math.pi / 2) ** -1 * 1.0, rel=0.02)


def test_error_bar_shrinks_with_mesh():
    doms = [
        eo.annular_sector_domain(1.0, 2.0, math.pi / 2, h=hh)
        for hh in (1.0 / 16, 1.0 / 32)
    ]
    bars = [eo.discrete_modulus(d).error_bar for d in doms]
    assert bars[1] < bars[0]


def test_periodic_strip_constant_gap_exact():
    pair = gm.constant_pair(0.25)
    est = eo.discrete_modulus(eo.strip_domain(pair))
    assert est.value == pytest.approx(4.0, rel=1e-6)


def test_periodic_strip_matches_quadrature():
    # smooth sinusoidal channel: oracle vs vertical modulus sandwich
    pair = sinusoid_pair(offset=0.5, amplitude=0.2)
    est = eo.discrete_modulus(eo.strip_domain(pair))
    vmod = gm.vertical_modulus(pair)
    assert est.value >= vmod - est.error_bar - 1e-9
    assert est.value <= 3.0 * vmod  # generous sanity ceiling


def test_strip_refusal_on_thin_gap():
    pair = gm.constant_pair(0.01)
    with pytest.raises(eo.ResolutionError):
        eo.strip_domain(pair, h=0.01)


def test_comb_refusal_on_coarse_mesh():
    with pytest.raises(eo.ResolutionError):
        eo.comb_domain(0.1, h=0.05)


def test_disconnected_electrodes_raise():
    dom = eo.GridDomain(
        h=1.0 / 8,
        bbox=(0.0, 0.0, 1.0, 1.0),
        inside=lambda x, y: (x >= 0) & (x <= 1) & (y > 0) & (y < 1),
        electrode_a=lambda x, y: y <= 0,
        electrode_b=lambda x, y: y >= 5.0,  # outside the bounding box
        name="disconnected",
    )
    with pytest.raises(eo.OracleError):
        solve_at(dom, dom.h)


def test_comb_exceeds_vertical_modulus():
    # slits reach down near the bottom electrode, creating short connecting
    # curves: the full-family modulus exceeds that of the vertical segments,
    # 1/eps
    eps = 0.2
    est = eo.discrete_modulus(eo.comb_domain(eps))
    assert est.value > 1.0 / eps


def _edge_energy(cls, u, wrap):
    """Dirichlet energy of the lattice potential (u inside, 0 on electrode a,
    1 on b), one lattice edge at a time: an edge counts when it has an
    interior end and no outside end."""
    U = np.zeros(cls.shape)
    U[cls == eo._IN] = u
    U[cls == eo._B] = 1.0
    nx, ny = cls.shape
    energy = 0.0
    for i in range(nx):
        for j in range(ny):
            for ni, nj in ((i + 1, j), (i, j + 1)):
                if wrap:
                    ni %= nx
                if ni >= nx or nj >= ny:
                    continue
                ends = (cls[i, j], cls[ni, nj])
                if eo._IN in ends and eo._OUT not in ends:
                    energy += (U[i, j] - U[ni, nj]) ** 2
    return energy


@pytest.mark.parametrize(
    "dom",
    [
        eo.annular_sector_domain(1.0, 2.0, math.pi / 2, h=1.0 / 16),
        # slits are electrode-b nodes inside the lattice
        eo.comb_domain(0.2),
        # 45 cells per period at h: the coarse lattices wrap unevenly
        eo.strip_domain(sinusoid_pair(0.5, 0.2), h=1.0 / 45),
        # one interior row: the first coarse lattice has no unknowns
        eo.rectangle_domain(100.0, 1.0 / 8, h=1.0 / 16),
    ],
    ids=["sector", "comb", "odd-periodic-strip", "one-row-rectangle"],
)
def test_preconditioned_solve_matches_direct(dom):
    wrap = dom.periodic_x is not None
    if wrap:
        assert eo._classes(dom, dom.h).shape[0] % 2 == 1
    for h in (dom.h, 0.5 * dom.h):
        cls = eo._classes(dom, h)
        mat, rhs = eo._assemble(cls, wrap)
        direct = _edge_energy(cls, spsolve(scipy_csr(mat).tocsc(), rhs), wrap)
        energy, _, _ = solve_at(dom, h)
        assert energy == pytest.approx(direct, rel=1e-10)


def test_multigrid_iterations_do_not_grow_with_refinement():
    # the count of an unpreconditioned CG grows like 1/h
    dom = eo.annulus_domain(1.0, math.e, h=1.0 / 32)
    _, _, coarse = solve_at(dom, dom.h)
    _, _, fine = solve_at(dom, 0.5 * dom.h)
    assert fine <= 1.5 * coarse


@pytest.mark.parametrize("centre", [(3.0, 0.5), (3.0 + 1.0 / 16, 0.5)])
@pytest.mark.parametrize("radius", [0.01, 0.3])
def test_interior_nodes_linked_to_no_electrode_carry_no_energy(centre, radius):
    # a disc of interior nodes away from the electrodes makes the lattice
    # matrix singular; a single node (radius 0.01) has no links at all
    def domain(extra):
        return eo.GridDomain(
            h=1.0 / 16,
            bbox=(0.0, 0.0, 4.0, 1.0),
            inside=lambda x, y: ((x <= 2) & (y > 0) & (y < 1)) | extra(x, y),
            electrode_a=lambda x, y: (y <= 0) & (x <= 2),
            electrode_b=lambda x, y: (y >= 1) & (x <= 2),
        )

    disc = domain(lambda x, y: np.hypot(x - centre[0], y - centre[1]) < radius)
    plain = domain(lambda x, y: np.zeros_like(x, dtype=bool))
    assert eo.discrete_modulus(disc).raw_values == pytest.approx(
        eo.discrete_modulus(plain).raw_values, rel=1e-10)


@pytest.mark.parametrize(
    "dom",
    [
        eo.rectangle_domain(3.0, 1.0, h=1.0 / 16),
        eo.annulus_domain(1.0, math.e, h=1.0 / 32),
        eo.annular_sector_domain(1.0, 2.0, math.pi / 2, h=1.0 / 16),
        eo.comb_domain(0.2),
        # 45 cells per period
        eo.strip_domain(sinusoid_pair(0.5, 0.2), h=1.0 / 45),
    ],
    ids=["rectangle", "annulus", "sector", "comb", "odd-periodic-strip"],
)
def test_lattice_at_h_is_the_even_nodes_at_half_h(dom):
    coarse = eo._classes(dom, dom.h)
    fine = eo._classes(dom, 0.5 * dom.h)
    assert np.count_nonzero(coarse == eo._IN) > 0
    assert np.array_equal(coarse, fine[::2, ::2])


def test_refusals_keep_their_order(tmp_path, monkeypatch, capsys):
    # a strip whose least gap is under 3 mesh cells is refused where it is
    # built, before any lattice is classified, and the refusal names h
    from hypcollar import cli
    from hypcollar import collar_modulus as cm

    pair = cm.nonstandard_half_collar_graphs(cm.HalfCollarSpec(2.0, math.inf))
    with pytest.raises(eo.ResolutionError, match=r"\(h = 0.125\)"):
        eo.strip_domain(pair, h=0.125)

    def classified(dom, h):
        raise AssertionError("a lattice was classified")

    monkeypatch.setattr(eo, "_classes", classified)
    config = tmp_path / "strip.json"
    config.write_text('{"shape": "half_collar", "l_alpha": 2.0, '
                      '"l_gamma": "inf", "h": 0.125}')
    assert cli.main(["oracle", "--config", str(config)]) == cli.EXIT_RESOLUTION
    assert "(h = 0.125)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dom",
    [
        eo.annulus_domain(1.0, math.e, h=1.0 / 32),
        eo.comb_domain(0.2),
        eo.strip_domain(sinusoid_pair(0.5, 0.2), h=1.0 / 45),
    ],
    ids=["annulus", "comb", "odd-periodic-strip"],
)
def test_refined_estimate_matches_independent_solves(dom):
    est = eo.discrete_modulus(dom)
    coarse = solve_at(dom, dom.h)
    fine = solve_at(dom, 0.5 * dom.h)
    assert est.raw_values == pytest.approx((coarse[0], fine[0]), rel=1e-12)
    assert est.unknowns == (len(coarse[1]), len(fine[1]))
    assert est.iterations[0] == coarse[2]
    # the h/2 solve starts from the interpolated h potential
    assert est.iterations[1] < fine[2]


@pytest.mark.parametrize("wrap", [False, True])
@pytest.mark.parametrize("shape", [(1, 4), (2, 3), (3, 5), (6, 7)])
def test_assembly_matches_a_loop_over_the_lattice(shape, wrap):
    rng = np.random.default_rng(7)
    for _ in range(20):
        cls = rng.choice(4, size=shape, p=[0.2, 0.5, 0.1, 0.2]).astype(np.int8)
        nodes = list(zip(*np.nonzero(cls == eo._IN)))
        if not nodes:
            continue
        number = {node: k for k, node in enumerate(nodes)}
        want = np.zeros((len(nodes), len(nodes)))
        rhs = np.zeros(len(nodes))
        for (i, j), k in number.items():
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if wrap:
                    ni %= shape[0]
                if not (0 <= ni < shape[0] and 0 <= nj < shape[1]):
                    continue
                c = cls[ni, nj]
                want[k, k] += c != eo._OUT
                rhs[k] += c == eo._B
                if c == eo._IN:
                    want[k, number[ni, nj]] -= 1.0
        if not rhs.any():
            with pytest.raises(eo.OracleError):
                eo._assemble(cls, wrap)
            continue
        mat, got_rhs = eo._assemble(cls, wrap)
        mat = scipy_csr(mat)
        assert mat.has_canonical_format
        assert np.array_equal(mat.toarray(), want)
        assert np.array_equal(got_rhs, rhs)


@pytest.mark.parametrize("wrap", [False, True])
@pytest.mark.parametrize("shape", [(3, 3), (4, 5), (5, 6), (8, 7), (9, 10)])
def test_prolongation_matches_a_loop_over_the_lattice(shape, wrap):
    rng = np.random.default_rng(11)
    nx, ny = shape

    def line(i, n, periodic):
        """(coarse index, weight) of 1-D linear interpolation at point i."""
        if i % 2 == 0:
            return [(i // 2, 1.0)]
        right = i // 2 + 1
        if right < (n + 1) // 2:
            return [(i // 2, 0.5), (right, 0.5)]
        return [(i // 2, 0.5), (0, 0.5)] if periodic else [(i // 2, 0.5)]

    for _ in range(20):
        cls = rng.choice(4, size=shape, p=[0.2, 0.5, 0.1, 0.2]).astype(np.int8)
        coarse = cls[::2, ::2]
        fine_rows = list(zip(*np.nonzero(cls == eo._IN)))
        cols = {node: k for k, node in
                enumerate(zip(*np.nonzero(coarse == eo._IN)))}
        want = np.zeros((len(fine_rows), len(cols)))
        want_lift = np.zeros(len(fine_rows))
        for r, (i, j) in enumerate(fine_rows):
            total = 0.0
            for ci, wx in line(i, nx, wrap):
                for cj, wy in line(j, ny, False):
                    c = coarse[ci, cj]
                    if c != eo._OUT:
                        total += wx * wy
                    if c == eo._IN:
                        want[r, cols[ci, cj]] += wx * wy
                    elif c == eo._B:
                        want_lift[r] += wx * wy
            if total > 0:
                want[r] /= total
                want_lift[r] /= total
        interp, lift, got_coarse = eo._prolongation(cls, wrap)
        assert np.array_equal(got_coarse, coarse)
        assert np.array_equal(scipy_csr(interp).toarray(), want)
        assert np.array_equal(lift, want_lift)


def test_periodic_predicates_need_a_dividing_mesh():
    # 1/16 does not divide the period 1.03: the lattice would not close up
    dom = eo.GridDomain(
        h=1.0 / 16,
        bbox=(0.0, 0.0, 1.03, 1.0),
        inside=lambda x, y: (y > 0) & (y < 1),
        electrode_a=lambda x, y: y <= 0,
        electrode_b=lambda x, y: y >= 1,
        periodic_x=1.03,
    )
    with pytest.raises(eo.ResolutionError, match="divide the period"):
        eo.discrete_modulus(dom)


def _kron_prolongation(lat, wrap):
    """The interpolation's definition: the tensor product of 1-D linear
    interpolations from the even-indexed points along x (wrapping along a
    periodic x) and y, restricted to the interior fine rows and the interior
    coarse columns, each row renormalised over the coarse nodes that are not
    outside; and the lift, each row's renormalised weight on electrode b."""
    from scipy import sparse

    def line(n, periodic):
        m = (n + 1) // 2
        odd = np.arange(1, n, 2)
        right = odd // 2 + 1
        keep = periodic | (right < m)
        rows = np.concatenate((np.arange(0, n, 2), odd, odd[keep]))
        cols = np.concatenate((np.arange(m), odd // 2, right[keep] % m))
        vals = np.repeat([1.0, 0.5, 0.5],
                         [m, len(odd), np.count_nonzero(keep)])
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, m))

    kc = lat[::2, ::2].ravel()
    weights = sparse.kron(line(lat.shape[0], wrap), line(lat.shape[1], False),
                          format="csr")
    weights = weights[np.flatnonzero(lat == eo._IN)]
    total = weights @ (kc != eo._OUT).astype(float)
    scale = np.divide(1.0, total, out=np.zeros_like(total), where=total > 0)
    interp = weights[:, np.flatnonzero(kc == eo._IN)]
    interp.data *= np.repeat(scale, np.diff(interp.indptr))
    lift = scale * (weights @ (kc == eo._B).astype(float))
    return interp, lift


@pytest.mark.parametrize("wrap", [False, True])
def test_prolongation_equals_the_kronecker_product(wrap):
    rng = np.random.default_rng(5)
    # odd and even sides from 1 to 14 nodes, so 1-wide lattices and, on a
    # periodic x of 2 nodes, a coarse line of one node
    shapes = [(int(nx), int(ny)) for nx in range(1, 15) for ny in (1, 2, 7, 8)]
    shapes += [tuple(int(k) for k in rng.integers(1, 15, size=2))
               for _ in range(100)]
    for shape in shapes:
        p = rng.dirichlet(np.ones(4))
        cls = rng.choice(4, size=shape, p=p).astype(np.int8)
        interp, lift, coarse = eo._prolongation(cls, wrap)
        interp = scipy_csr(interp)
        want, want_lift = _kron_prolongation(cls, wrap)
        assert interp.shape == want.shape
        assert interp.has_canonical_format
        assert np.array_equal(interp.toarray(), want.toarray())
        assert np.array_equal(lift, want_lift)
        assert np.array_equal(coarse, cls[::2, ::2])
    # a coarse level with no unknowns: every interior node on odd rows
    cls = np.full((9, 7), eo._B, dtype=np.int8)
    cls[1::2] = eo._IN
    interp, lift, _ = eo._prolongation(cls, wrap)
    assert interp.shape == (28, 0)
    assert np.array_equal(lift, _kron_prolongation(cls, wrap)[1])


def _glued_collar_strip():
    from hypcollar import collar_modulus as cm

    spec = cm.GluedCollarSpec(3.0, math.inf, math.inf, 0.25)
    return eo.strip_domain(cm.glued_collar_graphs(spec))


def _coarsest_operator(dom, h):
    """The lattice matrix at mesh h after the Galerkin products of its
    hierarchy, as the multigrid preconditioner forms them, by scipy, and
    the depth of the hierarchy."""
    wrap = dom.periodic_x is not None
    cls = eo._classes(dom, h)
    a, _ = eo._assemble(cls, wrap)
    a = scipy_csr(a)
    transfers = eo._transfers(cls, wrap)
    for interp, restrict, _ in transfers:
        a = (scipy_csr(restrict) @ (a @ scipy_csr(interp))).tocsr()
    return a, len(transfers)


def _floating_clusters(a):
    """The nodes of the connected components of the operator a that have
    more than one node and no link to an electrode: the indicator of each is
    a null vector of a."""
    from scipy.sparse.csgraph import connected_components

    _, component = connected_components(a, directed=False)
    floating = np.zeros(a.shape[0], dtype=bool)
    for label in np.unique(component):
        nodes = component == label
        if np.count_nonzero(nodes) > 1 and not np.any(a @ nodes):
            floating |= nodes
    return floating


@pytest.mark.parametrize(
    "dom, h, levels, floating",
    [
        # one interior node at (3, 0.5), apart from the rest: its Galerkin
        # row stores no diagonal
        (eo.GridDomain(
            h=1.0 / 16,
            bbox=(0.0, 0.0, 4.0, 1.0),
            inside=lambda x, y: (((x <= 2) & (y > 0) & (y < 1))
                                 | (np.hypot(x - 3.0, y - 0.5) < 0.01)),
            electrode_a=lambda x, y: (y <= 0) & (x <= 2),
            electrode_b=lambda x, y: (y >= 1) & (x <= 2),
        ), 1.0 / 64, 2, 0),
        # a 3 x 3 block of interior nodes about (3, 0.5), linked to each
        # other and to neither electrode: the operator is singular
        (eo.GridDomain(
            h=1.0 / 16,
            bbox=(0.0, 0.0, 4.0, 1.0),
            inside=lambda x, y: (((x <= 2) & (y > 0) & (y < 1))
                                 | (np.hypot(x - 3.0, y - 0.5) < 0.09)),
            electrode_a=lambda x, y: (y <= 0) & (x <= 2),
            electrode_b=lambda x, y: (y >= 1) & (x <= 2),
        ), 1.0 / 16, 0, 9),
        # links across the periodic seam, 90 cells per period at h
        (eo.strip_domain(sinusoid_pair(0.5, 0.2), h=1.0 / 90), 1.0 / 180, 2, 0),
        # the glued strip at t = 1/4, which no mirror folds, at the h/2 of its
        # estimate: the seam links nodes about n apart
        (_glued_collar_strip(), 1.0 / 128, 2, 0),
        # 255 unknowns: the lattice is its own coarsest level
        (eo.rectangle_domain(1.0, 1.0, h=1.0 / 16), 1.0 / 16, 0, 0),
    ],
    ids=["isolated-node", "floating-cluster", "periodic-seam", "glued-strip",
         "one-level"],
)
def test_coarsest_solve_matches_the_shifted_system(dom, h, levels, floating,
                                                   monkeypatch):
    from scipy import sparse
    from scipy.linalg import lapack

    a, depth = _coarsest_operator(dom, h)
    assert depth == levels
    n = a.shape[0]
    diag = a.diagonal()
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    cluster = _floating_clusters(a)
    assert np.count_nonzero(cluster) == floating
    if dom.periodic_x:
        # the seam links the first and last columns of x
        assert np.max(np.abs(a.indices - rows)) > n // 2
    elif levels:
        assert np.count_nonzero(diag == 0) == 1
        assert np.count_nonzero(a.indices == rows) == n - 1
    bands = []
    factor = lapack.dpbtrf

    def recorded(ab, **options):
        bands.append(ab.shape)
        return factor(ab, **options)

    monkeypatch.setattr(lapack, "dpbtrf", recorded)
    b = np.random.default_rng(3).standard_normal(n)
    # a coarse residual sums to zero over a floating cluster, so the system
    # is consistent, and the cluster's potential is defined up to a constant
    # that carries no energy
    if floating:
        b[cluster] -= b[cluster].mean()
    shifted = (a + 1e-12 * diag.max() * sparse.identity(n)).tocsc()
    want = spsolve(shifted, b)
    wrap = dom.periodic_x is not None
    lattice = eo._classes(dom, h)[::2**depth, ::2**depth]
    got = eo._coarsest(a, eo._lattice_order(lattice, wrap))(b).copy()
    if floating:
        for x in (got, want):
            x[cluster] -= x[cluster].mean()
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the operator itself is left as it was
    assert np.array_equal(a.diagonal(), diag)
    # one factor, whose order keeps every link within the lattice's shorter
    # side plus one of the diagonal, or two rows across a periodic seam
    (diagonals, columns), = bands
    nx, ny = lattice.shape
    assert columns == n
    assert diagonals - 1 <= (2 * (ny + 1) if wrap else min(nx, ny) + 1)


@settings(max_examples=150, deadline=None)
@given(sides=st.lists(st.integers(1, 24), min_size=2, max_size=2),
       tall=st.booleans(), wrap=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_lattice_order_keeps_every_9_point_link_near_the_diagonal(
        sides, tall, wrap, seed):
    # a coarsest Galerkin operator links each interior node to at most its 8
    # lattice neighbours (wrapping along a periodic x)
    short, long = sorted(sides)
    shape = (short, long) if tall else (long, short)
    nx, ny = shape
    rng = np.random.default_rng(seed)
    cls = rng.choice(4, size=shape, p=[0.2, 0.5, 0.15, 0.15]).astype(np.int8)
    inner = cls == eo._IN
    order = eo._lattice_order(cls, wrap)
    n = np.count_nonzero(inner)
    assert np.array_equal(np.sort(order), np.arange(n))
    place = np.full(shape, -1)
    place[inner] = np.argsort(order)
    bound = 2 * (ny + 1) if wrap else min(nx, ny) + 1
    for i, j in zip(*np.nonzero(inner)):
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                k, m = (i + di) % nx if wrap else i + di, j + dj
                if 0 <= k < nx and 0 <= m < ny and inner[k, m]:
                    assert abs(place[i, j] - place[k, m]) <= bound


def test_an_indefinite_coarsest_operator_is_an_oracle_error():
    from scipy import sparse

    # eigenvalues 3 and -1: banded Cholesky stops at the second pivot
    a = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(eo.OracleError, match="not positive definite"):
        eo._coarsest(a, np.arange(2))


@pytest.mark.parametrize(
    "dom",
    [
        eo.annulus_domain(1.0, math.e, h=1.0 / 32),
        eo.comb_domain(0.2),
        eo.strip_domain(sinusoid_pair(0.5, 0.2), h=1.0 / 45),
    ],
    ids=["annulus", "comb", "odd-periodic-strip"],
)
def test_estimate_reports_residuals_and_seconds(dom):
    est = eo.discrete_modulus(dom)
    assert len(est.residuals) == len(est.seconds) == 2
    for residual in est.residuals:
        assert 0 < residual <= 2 * eo.CG_TOL
    for seconds in est.seconds:
        assert seconds > 0
    # the diagnostics default to empty for estimates built without them
    bare = eo.ModulusEstimate(value=1.0, meshes=(1.0,), raw_values=(1.0,),
                              error_bar=0.0, extrapolated=False,
                              unknowns=(1,), iterations=(0,))
    assert bare.residuals == bare.seconds == ()


def _preconditioned_system(dom):
    """The lattice matrix, right-hand side and V-cycle of the solve at the
    domain's own mesh."""
    wrap = dom.periodic_x is not None
    cls = eo._classes(dom, dom.h)
    mat, rhs = eo._assemble(cls, wrap)
    transfers = eo._transfers(cls, wrap)
    k = 2**len(transfers)
    order = eo._lattice_order(cls[::k, ::k], wrap)
    return mat, rhs, eo._multigrid(mat, transfers, order)


def _half_collar_strip():
    from hypcollar import collar_modulus as cm

    spec = cm.HalfCollarSpec(2.0, math.inf)
    return eo.strip_domain(cm.nonstandard_half_collar_graphs(spec))


_SOLVER_DOMAINS = [
    eo.rectangle_domain(3.0, 1.0, h=1.0 / 32),
    eo.annulus_domain(1.0, math.e, h=1.0 / 16),
    eo.comb_domain(0.2),
    _half_collar_strip(),
]
_SOLVER_IDS = ["rectangle", "annulus", "comb", "half-collar-strip"]


@pytest.mark.parametrize("start", [None, "random"])
@pytest.mark.parametrize("dom", _SOLVER_DOMAINS, ids=_SOLVER_IDS)
def test_cg_is_scipys_cg_bit_for_bit(dom, start, monkeypatch):
    from scipy.sparse.linalg import LinearOperator
    from scipy.sparse.linalg import cg as scipy_cg

    mat, rhs, vcycle = _preconditioned_system(dom)
    # no start is a zero start, as _solve passes it
    x0 = np.zeros(len(rhs))
    if start:
        x0 = np.random.default_rng(5).random(len(rhs))
    kept = x0.copy()

    def ours():
        iterates = []
        x, count = eo.cg(mat, rhs, x0, vcycle,
                         callback=lambda xk: iterates.append(xk.tobytes()))
        return x.tobytes(), count, iterates

    def theirs(maxiter):
        iterates = []
        x, info = scipy_cg(scipy_csr(mat), rhs, x0=x0 if start else None,
                           rtol=eo.CG_TOL, atol=0.0, maxiter=maxiter,
                           M=LinearOperator(mat.shape, matvec=vcycle,
                                            dtype=float),
                           callback=lambda xk: iterates.append(xk.tobytes()))
        return x.tobytes(), info, iterates

    # every iterate, the solution and the iteration count agree byte for byte
    x, count, iterates = ours()
    want, info, want_iterates = theirs(eo.CG_MAXITER)
    assert info == 0 and len(want_iterates) > 2
    assert x == want and iterates == want_iterates
    assert count == len(want_iterates)
    # out of iterations: an OracleError after scipy's two iterates
    _, info, want_iterates = theirs(2)
    assert info == 2 and len(want_iterates) == 2
    iterates = []
    monkeypatch.setattr(eo, "CG_MAXITER", 2)
    with pytest.raises(eo.OracleError, match="within 2 iterations"):
        eo.cg(mat, rhs, x0, vcycle,
              callback=lambda xk: iterates.append(xk.tobytes()))
    assert iterates == want_iterates
    assert np.array_equal(x0, kept)


def test_a_wrapper_of_cg_sees_every_solve_of_an_estimate(monkeypatch):
    # the shape of the benchmark tracer's wrapper: A and b first, callback by
    # keyword, and every other argument passed through
    dom = _half_collar_strip()
    plain = eo.discrete_modulus(dom)
    counts = {"solves": 0, "iterations": 0, "unknowns": 0}
    cg = eo.cg

    def wrapper(A, b, *args, callback=None, **kwargs):
        def counted(xk):
            counts["iterations"] += 1
            if callback is not None:
                callback(xk)

        counts["solves"] += 1
        counts["unknowns"] += len(b)
        return cg(A, b, *args, callback=counted, **kwargs)

    monkeypatch.setattr(eo, "cg", wrapper)
    est = eo.discrete_modulus(dom)
    assert min(est.iterations) > 0 and counts["solves"] == 2
    assert counts["iterations"] == sum(est.iterations)
    assert counts["unknowns"] == sum(est.unknowns)
    assert est.value == plain.value


@pytest.mark.parametrize(
    "dom, h",
    [
        # links across the periodic seam, 45 cells per period at h
        (eo.strip_domain(sinusoid_pair(0.5, 0.2), h=1.0 / 45), 1.0 / 90),
        (eo.annulus_domain(1.0, math.e, h=1.0 / 16), 1.0 / 32),
    ],
    ids=["periodic-seam", "annulus"],
)
def test_kernel_product_is_the_sparse_product(dom, h):
    wrap = dom.periodic_x is not None
    cls = eo._classes(dom, h)
    lattice, _ = eo._assemble(cls, wrap)
    galerkin, depth = _coarsest_operator(dom, h)
    assert depth > 0
    interp, restrict, _ = eo._transfers(cls, wrap)[0]
    rng = np.random.default_rng(11)
    for mat in (lattice, galerkin, interp, restrict):
        x = rng.standard_normal(mat.shape[1])
        # a stale result is overwritten, not added to
        y = np.full(mat.shape[0], np.nan)
        got = eo._product(mat)(x, y)
        assert got is y
        assert got.tobytes() == (scipy_csr(mat) @ x).tobytes()


@pytest.mark.parametrize("dom", _SOLVER_DOMAINS, ids=_SOLVER_IDS)
def test_work_vectors_carry_no_state_between_calls(dom):
    mat, rhs, vcycle = _preconditioned_system(dom)
    r = np.random.default_rng(2).standard_normal(len(rhs))
    kept = r.copy()
    first = vcycle(r).copy()
    vcycle(rhs)
    assert vcycle(r).tobytes() == first.tobytes()
    assert np.array_equal(r, kept)
    # two estimates in a row are one estimate
    one, two = eo.discrete_modulus(dom), eo.discrete_modulus(dom)
    for name in ("value", "raw_values", "unknowns", "iterations", "residuals"):
        assert getattr(one, name) == getattr(two, name)


@pytest.mark.parametrize(
    "dom",
    _SOLVER_DOMAINS + [
        eo.annular_sector_domain(1.0, 2.0, math.pi / 2, h=1.0 / 16),
        _glued_collar_strip(),
    ],
    ids=_SOLVER_IDS + ["sector", "glued-collar-strip"],
)
def test_raw_values_at_cg_tol_are_those_of_a_tight_solve(dom, monkeypatch):
    # the energy's error is quadratic in the residual: at CG_TOL it is at the
    # rounding floor (at 1e-6 these differ by 7e-12 to 2e-11)
    est = eo.discrete_modulus(dom)
    monkeypatch.setattr(eo, "CG_TOL", 1e-12)
    tight = eo.discrete_modulus(dom)
    assert est.raw_values == pytest.approx(tight.raw_values, rel=1e-12, abs=0)
    assert est.unknowns == tight.unknowns


def _csr_bytes(mat):
    return (mat.shape, mat.indptr.dtype, mat.indices.dtype,
            mat.indptr.tobytes(), mat.indices.tobytes(), mat.data.tobytes())


@pytest.mark.parametrize(
    "dom, h",
    [
        # links across the periodic seam, 90 cells per period at h
        (eo.strip_domain(sinusoid_pair(0.5, 0.2), h=1.0 / 90), 1.0 / 180),
        # slits of electrode b inside the lattice
        (eo.comb_domain(0.2), 0.0025),
    ],
    ids=["periodic-seam", "comb"],
)
def test_kernel_galerkin_products_are_the_sparse_products(dom, h):
    wrap = dom.periodic_x is not None
    cls = eo._classes(dom, h)
    a, _ = eo._assemble(cls, wrap)
    transfers = eo._transfers(cls, wrap)
    assert len(transfers) >= 2
    for interp, restrict, _ in transfers:
        # every array, its int32 dtype and the shape, byte for byte
        assert restrict.indices.dtype == np.int32
        assert _csr_bytes(restrict) == _csr_bytes(scipy_csr(interp).T.tocsr())
        assert _csr_bytes(eo._transpose(interp)) == _csr_bytes(restrict)
        galerkin = eo._matmul(restrict, eo._matmul(a, interp))
        want = (scipy_csr(restrict)
                @ (scipy_csr(a) @ scipy_csr(interp))).tocsr()
        assert _csr_bytes(galerkin) == _csr_bytes(want)
        a = galerkin


def _scipy_compressed(cols, vals, n_cols):
    """The CSR matrix of a table of columns, as scipy builds it:
    csr_matrix of the links in table order, then sum_duplicates."""
    from scipy import sparse

    links = cols >= 0
    row_len = np.count_nonzero(links, axis=1)
    indptr = np.concatenate(([0], np.cumsum(row_len))).astype(np.int32)
    data = np.repeat(vals, row_len) if vals.ndim == 1 else vals[links]
    mat = sparse.csr_matrix((data, cols[links], indptr),
                            shape=(len(cols), n_cols))
    mat.sum_duplicates()
    return mat


def test_compressed_is_scipys_sum_duplicates_bit_for_bit(monkeypatch):
    # the tables of periodic lattices of 1 to 6 nodes along x: the seam puts
    # rows out of column order, and along 1 or 2 nodes (1 coarse node) a
    # node's neighbours, or a fine node's parents, share a column
    tables = []
    compressed = eo._compressed

    def recorded(cols, vals, n_cols):
        tables.append((cols, vals, n_cols))
        return compressed(cols, vals, n_cols)

    monkeypatch.setattr(eo, "_compressed", recorded)
    rng = np.random.default_rng(17)
    for nx in range(1, 7):
        for _ in range(5):
            cls = rng.choice(4, size=(nx, 5),
                             p=[0.1, 0.6, 0.1, 0.2]).astype(np.int8)
            eo._prolongation(cls, True)
            try:
                eo._assemble(cls, True)
            except eo.OracleError:  # no electrode b next to the interior
                pass
    merged = unsorted = 0
    for cols, vals, n_cols in tables:
        got = compressed(cols, vals, n_cols)
        want = _scipy_compressed(cols, vals, n_cols)
        assert _csr_bytes(got) == _csr_bytes(want)
        merged += len(got.data) < np.count_nonzero(cols >= 0)
        unsorted += any(np.any(np.diff(row[row >= 0]) < 0) for row in cols)
    assert merged > 0 and unsorted > 0


@pytest.mark.parametrize(
    "dom",
    [
        eo.strip_domain(sinusoid_pair(0.5, 0.2), h=1.0 / 45),
        eo.annulus_domain(1.0, math.e, h=1.0 / 32),
    ],
    ids=["periodic-strip", "annulus"],
)
def test_an_estimate_builds_no_scipy_matrix(dom, monkeypatch):
    # every matrix of an estimate is a bare eo._CSR record
    from scipy import sparse

    built, factored = [], []
    init, coarsest = sparse.csr_matrix.__init__, eo._coarsest

    def counted_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    def counted_coarsest(a, order):
        assert type(a) is eo._CSR
        factored.append(a.shape[0])
        return coarsest(a, order)

    monkeypatch.setattr(sparse.csr_matrix, "__init__", counted_init)
    monkeypatch.setattr(eo, "_coarsest", counted_coarsest)
    est = eo.discrete_modulus(dom)
    assert min(est.iterations) > 0 and len(factored) == 2
    assert len(built) == 0


def test_an_estimate_loads_neither_csgraph_nor_sparse_linalg():
    # a fresh process: the test modules themselves import scipy.sparse.linalg
    code = """if True:
        import sys
        from hypcollar import extremal_oracle as eo
        eo.discrete_modulus(eo.annulus_domain(1.0, 2.0, h=1.0 / 16))
        print(sorted(name for name in sys.modules
                     if name.startswith(("scipy.sparse.csgraph",
                                         "scipy.sparse.linalg"))))
        # the estimate did run scipy's compiled sparse routines
        print("scipy.sparse._sparsetools" in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(eo.__file__)))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["[]", "True"]


def test_a_solve_that_starts_converged_builds_no_hierarchy(monkeypatch):
    built = []
    multigrid = eo._multigrid

    def counted(mat, transfers, order):
        built.append(mat.shape[0])
        return multigrid(mat, transfers, order)

    monkeypatch.setattr(eo, "_multigrid", counted)
    est = eo.discrete_modulus(eo.rectangle_domain(3.0, 1.0, h=1.0 / 32))
    # the h/2 solve starts at its solution (test_rectangle_extrapolation_exact)
    assert est.iterations[0] > 0 and est.iterations[1] == 0
    assert built == [est.unknowns[0]]


def _slit_runs(cls, rows):
    """The lengths of the runs of electrode-b nodes along x in the given
    lattice rows."""
    runs = []
    for row in cls[:, rows].T:
        b = np.concatenate(([0], (row == eo._B).astype(int), [0]))
        edges = np.flatnonzero(np.diff(b))
        runs.extend(edges[1::2] - edges[::2])
    return runs


@pytest.mark.parametrize("eps, h", [(0.2, None), (0.35, 0.01), (0.25, 0.0075)])
def test_comb_slits_are_one_node_wide_at_both_meshes(eps, h):
    dom = eo.comb_domain(eps, h)
    fine = eo._classes(dom, 0.5 * dom.h)
    coarse = fine[::2, ::2]
    # the rows strictly between the slits' lower end and the top electrode,
    # at h and the same rows at h/2, from the padded lattice origin y0 - 2h
    ys = dom.bbox[1] - 2 * dom.h + dom.h * np.arange(coarse.shape[1])
    rows = np.flatnonzero((ys > eps * eps + dom.h) & (ys < eps - dom.h))
    assert len(rows) > 0
    n_slits = math.ceil(1.0 / (eps * eps))
    at_h, at_half = _slit_runs(coarse, rows), _slit_runs(fine, 2 * rows)
    assert len(at_h) == len(at_half) == len(rows) * (n_slits - 2)
    assert set(at_h) == set(at_half) == {1}


def _neighbours(cls, wrap):
    """The classes of each lattice node's neighbours along x and y, outside
    past the lattice's edge (wrapping along a periodic x)."""
    ring = np.pad(cls, 1, constant_values=eo._OUT)
    if wrap:
        ring[0], ring[-1] = ring[-2], ring[1]
    return {"left": ring[:-2, 1:-1], "right": ring[2:, 1:-1],
            "below": ring[1:-1, :-2], "above": ring[1:-1, 2:]}


@pytest.mark.parametrize(
    "dom",
    [
        eo.rectangle_domain(3.0, 1.0, h=1.0 / 16),
        eo.annulus_domain(1.0, math.e, h=1.0 / 32),
        eo.annular_sector_domain(1.0, 2.0, math.pi / 2, h=1.0 / 16),
        eo.strip_domain(sinusoid_pair(0.5, 0.2), h=1.0 / 45),
        # the benchmark's comb of seed 4001 at level 0: h divides neither eps
        # nor 1, and eps lies between lattice rows at both meshes
        eo.comb_domain(0.45511480400657883, h=0.042542284403658905),
    ],
    ids=["rectangle", "annulus", "sector", "odd-periodic-strip", "comb"],
)
def test_both_electrodes_border_the_interior_at_both_meshes(dom):
    wrap = dom.periodic_x is not None
    for h in (dom.h, 0.5 * dom.h):
        cls = eo._classes(dom, h)
        near = _neighbours(cls, wrap)
        inner = cls == eo._IN
        for electrode in (eo._A, eo._B):
            assert any(np.any(inner & (side == electrode))
                       for side in near.values())
        if dom.name == "comb":
            # the top side is electrode b between the slits too: above every
            # interior node of the top interior row
            top = np.flatnonzero(inner.any(axis=0))[-1]
            row = inner[:, top]
            assert np.all(near["above"][row, top] == eo._B)


def _collar_strip(spec):
    from hypcollar import collar_modulus as cm

    if isinstance(spec, cm.GluedCollarSpec):
        return eo.strip_domain(cm.glued_collar_graphs(spec))
    return eo.strip_domain(cm.nonstandard_half_collar_graphs(spec))


def _glued(twist):
    from hypcollar import collar_modulus as cm

    return _collar_strip(cm.GluedCollarSpec(4.0, math.inf, math.inf, twist))


def _half_collar():
    from hypcollar import collar_modulus as cm

    return _collar_strip(cm.HalfCollarSpec(2.0, math.inf))


def _swapped_rectangle():
    """The 3 x 1 rectangle at mesh 1/16 with electrode b at the bottom: the
    half above its y mirror holds electrode a."""
    rect = eo.rectangle_domain(3.0, 1.0, h=1.0 / 16)
    return eo.GridDomain(h=rect.h, bbox=rect.bbox, inside=rect.inside,
                         electrode_a=rect.electrode_b,
                         electrode_b=rect.electrode_a)


@pytest.mark.parametrize(
    "dom, mirrors, scale",
    [
        # 48 x 16 cells: symmetric in x, antisymmetric in y (a quarter)
        (eo.rectangle_domain(3.0, 1.0, h=1.0 / 16), ((0, 0),), 1.0),
        (_swapped_rectangle(), ((0, 0),), 1.0),
        # 49 x 16 cells: the x mirror lies between lines of mesh h
        (eo.rectangle_domain(3.0 + 1.0 / 16, 1.0, h=1.0 / 16), (), 0.5),
        # 32 x 17 cells
        (eo.rectangle_domain(2.0, 1.0 + 1.0 / 16, h=1.0 / 16), ((0, 0),), 2.0),
        # one interior row at h, on the y mirror: folded, it would link the
        # mirror's electrode a to b, so only x is folded
        (eo.rectangle_domain(100.0, 1.0 / 8, h=1.0 / 16), ((0, 0),), 2.0),
        # a quarter, and of it the eighth on and above its diagonal
        (eo.annulus_domain(1.0, math.e, h=1.0 / 32), ((0, 0), (1, 0)), 8.0),
        (eo.annulus_domain(1.0, 2.0, h=1.0 / 24), ((0, 0), (1, 0)), 8.0),
        # the padded side over h/2 rounds to just below 48: the side that h
        # divides keeps its last line, and the lattice its centre
        (eo.annulus_domain(0.5, 1.0, h=0.1), ((0, 0), (1, 0)), 8.0),
        (eo.annular_sector_domain(1.0, 2.0, math.pi / 2, h=1.0 / 16), (), 0.5),
        # past a right angle either side of the bisector
        (eo.annular_sector_domain(1.0, 2.5, 4.0, h=1.0 / 24), (), 0.5),
        # a periodic x folds to the lines 0 to N/2 of the period
        (_half_collar(), ((0, 0), (0, -1)), 2.0),
        (_glued(0.0), ((0, 0), (0, -1)), 2.0),
        (_glued(0.5), ((0, 0), (0, -1)), 2.0),
        (eo.strip_domain(gm.constant_pair(0.25)), ((0, 0), (0, -1)), 1.0),
    ],
    ids=["rectangle-even", "rectangle-b-below", "rectangle-odd-x",
         "rectangle-odd-y",
         "one-row-rectangle", "annulus", "annulus-24", "annulus-h0.1", "sector",
         "wide-sector", "half-collar-strip", "glued-t0", "glued-t1/2",
         "flat-strip"],
)
def test_mirror_part_gives_the_whole_lattice_raw_values(dom, mirrors, scale):
    wrap = dom.periodic_x is not None
    fine = eo._classes(dom, 0.5 * dom.h)
    part, part_wrap, got_mirrors, got_scale = eo._fold(fine, wrap)
    assert (got_mirrors, got_scale) == (mirrors, scale)
    assert not part_wrap
    # the part is a half (or a quarter) of the lattice and starts on its
    # mirror lines
    folded = [n for n, m in zip(fine.shape, part.shape) if m < n]
    assert folded and all(m == n // 2 + 1 for n, m in
                          zip(fine.shape, part.shape) if m < n)
    # only an annulus's quarter is folded across its diagonal: nothing is
    # left below it but outside nodes
    below = np.tri(*part.shape, k=-1, dtype=bool)
    assert np.all(part[below] == eo._OUT) == (dom.name == "annulus")
    est = eo.discrete_modulus(dom)
    whole = [solve_whole(dom, h)[0] for h in est.meshes]
    assert est.raw_values == pytest.approx(whole, rel=1e-12, abs=0)
    assert est.unknowns[1] == np.count_nonzero(part == eo._IN)
    assert est.unknowns[1] < np.count_nonzero(fine == eo._IN) * (
        0.6 if len(folded) == 1 else 0.3)


def _rectangle_less_one_node(h):
    """The 2 x 1 rectangle at mesh h (symmetric in x, antisymmetric in y)
    with its node (1/4, 1/4) outside."""
    rect = eo.rectangle_domain(2.0, 1.0, h)

    def inside(x, y):
        return rect.inside(x, y) & ~((x == 0.25) & (y == 0.25))

    return eo.GridDomain(h=h, bbox=rect.bbox, inside=inside,
                         electrode_a=rect.electrode_a,
                         electrode_b=rect.electrode_b)


@pytest.mark.parametrize(
    "dom",
    [
        _rectangle_less_one_node(1.0 / 16),
        eo.comb_domain(0.2),
        _glued(0.125),
        # 33 x 17 cells: symmetric in x and antisymmetric in y, but each
        # mirror lies between lines of mesh h
        eo.rectangle_domain(2.0 + 1.0 / 16, 1.0 + 1.0 / 16, h=1.0 / 16),
        # 45 cells per period: the reflection's line N/2 lies between lines
        # of mesh h
        eo.strip_domain(gm.constant_pair(0.25), h=1.0 / 45),
    ],
    ids=["rectangle-less-one-node", "comb", "glued-t1/8", "odd-mirror-lines",
         "odd-periodic-flat-strip"],
)
def test_mirror_not_found_solves_the_whole_lattice(dom):
    wrap = dom.periodic_x is not None
    fine = eo._classes(dom, 0.5 * dom.h)
    part, part_wrap, mirrors, scale = eo._fold(fine, wrap)
    assert part is fine and part_wrap == wrap
    assert (mirrors, scale) == ((), 1.0)
    assert eo.discrete_modulus(dom).unknowns[1] == np.count_nonzero(
        fine == eo._IN)
    # the flips are mirrors of the lattice at h/2: only their lines' odd
    # index keeps them from being folded
    if dom.name == "rectangle":
        swap = np.array([eo._OUT, eo._IN, eo._B, eo._A], dtype=np.int8)
        assert np.array_equal(fine[::-1], fine)
        assert np.array_equal(swap[fine[:, ::-1]], fine)
    elif wrap and dom.name == "constant-gap":
        assert np.array_equal(np.roll(fine[::-1], 1, axis=0), fine)


@pytest.mark.parametrize("wrap", [False, True])
@pytest.mark.parametrize("shape", [(1, 4), (3, 5), (6, 7), (9, 9)])
def test_mirror_weighted_assembly_matches_a_loop_over_the_lattice(shape, wrap):
    rng = np.random.default_rng(13)
    choices = [((0, 0),), ((1, 0),), ((0, -1),), ((0, 0), (0, -1), (1, 0)),
               ((1, 0), (1, -1))]
    for trial in range(20):
        mirrors = choices[trial % len(choices)]
        cls = rng.choice(4, size=shape, p=[0.2, 0.5, 0.1, 0.2]).astype(np.int8)
        nodes = list(zip(*np.nonzero(cls == eo._IN)))
        if not nodes:
            continue
        number = {node: k for k, node in enumerate(nodes)}
        want = np.zeros((len(nodes), len(nodes)))
        rhs = np.zeros(len(nodes))
        for (i, j), k in number.items():
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if wrap:
                    ni %= shape[0]
                if not (0 <= ni < shape[0] and 0 <= nj < shape[1]):
                    continue
                # a link along y lies on the line x = i, one along x on y = j
                axis, line = (0, i) if di == 0 else (1, j)
                w = 0.5 if any(a == axis and line == m % shape[a]
                               for a, m in mirrors) else 1.0
                c = cls[ni, nj]
                want[k, k] += w * (c != eo._OUT)
                rhs[k] += w * (c == eo._B)
                if c == eo._IN:
                    want[k, number[ni, nj]] -= w
        if not rhs.any():
            with pytest.raises(eo.OracleError):
                eo._assemble(cls, wrap, mirrors)
            continue
        mat, got_rhs = eo._assemble(cls, wrap, mirrors)
        mat = scipy_csr(mat)
        assert mat.has_canonical_format
        assert np.array_equal(mat.toarray(), want)
        assert np.array_equal(got_rhs, rhs)


_SWAP = np.array([eo._OUT, eo._IN, eo._B, eo._A], dtype=np.int8)


def _transpose_symmetric(n, seed):
    """An n x n lattice of random node classes that equals its transpose."""
    rng = np.random.default_rng(seed)
    cls = rng.choice(4, size=(n, n), p=[0.2, 0.5, 0.15, 0.15]).astype(np.int8)
    return np.triu(cls) + np.triu(cls, 1).T


def test_diagonal_mirror_folds_a_square_transpose_symmetric_lattice():
    # 6 lines per side: no x or y mirror on a line of even index
    cls = _transpose_symmetric(6, 5)
    part, wrap, mirrors, scale = eo._fold(cls, False)
    assert (wrap, mirrors, scale) == (False, (), 2.0)
    below = np.tri(6, k=-1, dtype=bool)
    assert np.all(part[below] == eo._OUT)
    assert np.array_equal(part[~below], cls[~below])


def _swapped_across_the_diagonal():
    """A 6 x 6 lattice whose transpose swaps its electrodes."""
    upper = np.triu(_transpose_symmetric(6, 7), 1)
    cls = upper + _SWAP[upper].T
    assert np.array_equal(cls.T, _SWAP[cls])
    assert not np.array_equal(cls.T, cls)
    return cls


def _x_mirror_of_a_transpose_symmetric_half():
    """A 9 x 5 lattice symmetric about its line x = 4, whose half from that
    line is 5 x 5 and equals its transpose, with no mirror along y."""
    half = _transpose_symmetric(5, 11)
    flipped = half[:, ::-1]
    assert not (np.array_equal(flipped, half)
                or np.array_equal(_SWAP[flipped], half))
    return np.concatenate([half[:0:-1], half]), half


def test_diagonal_mirror_is_not_folded_where_the_transpose_changes_the_part():
    cls = _transpose_symmetric(6, 5)
    # periodic along x, with 6 lines per period: no x mirror to unwrap it
    assert eo._fold(cls, True) == (cls, True, (), 1.0)
    # not square
    wide = np.concatenate([cls, cls[:, :1]], axis=1)
    assert eo._fold(wide, False) == (wide, False, (), 1.0)
    # antisymmetric across the diagonal
    swapped = _swapped_across_the_diagonal()
    assert eo._fold(swapped, False) == (swapped, False, (), 1.0)
    # only the x mirror (0, 0): its links along x = 0 have conductance 1/2,
    # and their transposes along y = 0 would have 1, so the half stays whole
    lattice, half = _x_mirror_of_a_transpose_symmetric_half()
    part, wrap, mirrors, scale = eo._fold(lattice, False)
    assert (wrap, mirrors, scale) == (False, ((0, 0),), 2.0)
    assert np.array_equal(part, half)


def _corner_square(h):
    """The unit square with electrode a on its corner x + y <= 1/2 and b on
    x + y >= 3/2: its node classes equal their transpose, and no mirror
    along x or y maps them onto themselves."""
    def square(x, y):
        return (x >= 0) & (x <= 1) & (y >= 0) & (y <= 1)

    return eo.GridDomain(
        h=h, bbox=(0.0, 0.0, 1.0, 1.0), inside=square,
        electrode_a=lambda x, y: square(x, y) & (x + y <= 0.5),
        electrode_b=lambda x, y: square(x, y) & (x + y >= 1.5),
        name="corner-square")


@pytest.mark.parametrize("h", [1.0 / 8, 1.0 / 16, 1.0 / 32])
def test_diagonal_mirror_part_gives_the_whole_lattice_raw_values(h):
    dom = _corner_square(h)
    fine = eo._classes(dom, 0.5 * h)
    assert np.array_equal(fine, fine.T)
    part, wrap, mirrors, scale = eo._fold(fine, False)
    assert (wrap, mirrors, scale) == (False, (), 2.0)
    est = eo.discrete_modulus(dom)
    whole = [solve_whole(dom, mesh)[0] for mesh in est.meshes]
    assert est.raw_values == pytest.approx(whole, rel=1e-12, abs=0)
    assert est.unknowns[1] == np.count_nonzero(part == eo._IN)
    assert est.unknowns[1] < 0.6 * np.count_nonzero(fine == eo._IN)


def _y_band(h):
    """The band 0 < y < 1 over 0 <= x <= 1, whose predicates read y alone."""
    return eo.GridDomain(h=h, bbox=(0.0, 0.0, 1.0, 1.0),
                         inside=lambda x, y: (y > 0) & (y < 1),
                         electrode_a=lambda x, y: y <= 0,
                         electrode_b=lambda x, y: y >= 1, name="y-band")


@pytest.mark.parametrize("make, meshes", [
    (lambda h: eo.rectangle_domain(3.0, 1.0, h), (1.0 / 8, 1.0 / 16, 0.1)),
    (lambda h: eo.annulus_domain(1.0, math.e, h), (1.0 / 8, 1.0 / 24, 0.1)),
    (lambda h: eo.annular_sector_domain(1.0, 2.5, 4.0, h),
     (1.0 / 8, 1.0 / 24, 0.1)),
    (lambda h: eo.comb_domain(0.2, h), (1.0 / 80, 1.0 / 128, 0.0125)),
    (_y_band, (1.0 / 8, 1.0 / 16, 0.1)),
], ids=["rectangle", "annulus", "sector", "comb", "y-band"])
def test_broadcast_classes_are_the_meshgrid_classes(make, meshes):
    for h in meshes:
        dom = make(h)
        for mesh in (h, 0.5 * h):
            got = eo._classes(dom, mesh)
            want = meshgrid_classes(dom, mesh)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _half_collar_pair(l_alpha, l_gamma):
    from hypcollar import collar_modulus as cm
    from hypcollar.hypgeom import collar_width

    if l_gamma is None:  # just past the collar constraint
        l_gamma = collar_width(0.5 * l_alpha) + 0.3
    spec = cm.HalfCollarSpec(l_alpha, l_gamma)
    return cm.nonstandard_half_collar_graphs(spec)


def _glued_pair(twist):
    from hypcollar import collar_modulus as cm
    from hypcollar.hypgeom import collar_width

    return cm.glued_collar_graphs(cm.GluedCollarSpec(
        2.6, math.inf, collar_width(1.3) + 0.5, twist))


@pytest.mark.parametrize("make, h", [
    *[pytest.param(lambda l=l, g=g: _half_collar_pair(l, g), None,
                   id="half-collar-%g-%s" % (l, "inf" if g else "r+0.3"))
      for l in (1.5, 4.85, 8.0) for g in (math.inf, None)],
    *[pytest.param(lambda t=t: _glued_pair(t), None, id="glued-%g" % t)
      for t in (0.0, 0.5, -0.125)],
    pytest.param(lambda: sinusoid_pair(0.5, 0.2), 1.0 / 45, id="sinusoid"),
    pytest.param(lambda: gm.constant_pair(0.25), None, id="constant"),
])
def test_strip_predicates_classify_as_the_profile(make, h):
    # the strip's predicates, called on a column and a row and broadcast,
    # against the profile reference, f and g sampled once per column
    pair = make()
    dom = eo.strip_domain(pair, h)
    for mesh, want in zip((dom.h, 0.5 * dom.h), profile_classes(pair, h)):
        got = eo._classes(dom, mesh)
        assert np.count_nonzero(want == eo._IN) > 0
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dom, geometry", [
    (eo.annulus_domain(1.0, math.e, h=1.0 / 32), ("hypot",)),
    (eo.annular_sector_domain(1.0, 2.5, 4.0, h=1.0 / 16),
     ("hypot", "arctan2")),
], ids=["annulus", "sector"])
def test_predicates_share_one_geometry_per_lattice(dom, geometry,
                                                   monkeypatch):
    import dataclasses

    # a point, not a lattice, is read as before
    assert dom.inside(1.5, 0.0) and not dom.electrode_a(1.5, 0.0)
    calls, arrays = [], []

    def counted(name, ufunc):
        def call(*args, **kwargs):
            calls.append(name)
            out = ufunc(*args, **kwargs)
            arrays.append(weakref.ref(out))
            return out
        return call

    for name in geometry:
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    inside = dom.inside

    def recorded(x, y):
        arrays.append(weakref.ref(x))
        return inside(x, y)

    dom = dataclasses.replace(dom, inside=recorded)
    for mesh in (dom.h, 0.5 * dom.h):
        calls.clear()
        arrays.clear()
        eo._classes(dom, mesh)
        # once per lattice for all three predicates, at each lattice
        assert sorted(calls) == sorted(geometry)
        # the geometry and the abscissae are freed with the lattice
        assert len(arrays) == len(geometry) + 1
        assert all(ref() is None for ref in arrays)
