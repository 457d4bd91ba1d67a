import math

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from hypcollar import extremal_oracle as eo
from hypcollar import graph_modulus as gm

from helpers import sinusoid_pair, solve_at


def test_rectangle_extrapolation_exact():
    # raw discrete value is (W + h)/H; one Richardson step cancels it exactly
    est = eo.discrete_modulus(eo.rectangle_domain(3.0, 1.0, h=1.0 / 16))
    assert est.extrapolated
    assert est.value == pytest.approx(3.0, abs=1e-9)
    assert est.raw_values[0] == pytest.approx(3.0 + 1.0 / 16, abs=1e-9)
    assert est.error_bar == pytest.approx(1.0 / 32, abs=1e-9)
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
    a = solve_at(base, base.h)[0]
    b = solve_at(swapped, swapped.h)[0]
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
    # curves: the full-family modulus exceeds that of the vertical segments
    eps = 0.2
    est = eo.discrete_modulus(eo.comb_domain(eps))
    assert est.value > eo.comb_vertical_modulus(eps)


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
        assert eo._lattice(dom, dom.h).shape[0] % 2 == 1
    for h in (dom.h, 0.5 * dom.h):
        cls = eo._lattice(dom, h)
        mat, rhs = eo._assemble(cls, wrap)
        direct = _edge_energy(cls, spsolve(mat.tocsc(), rhs), wrap)
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
    coarse = eo._lattice(dom, dom.h)
    fine = eo._lattice(dom, 0.5 * dom.h)
    assert np.count_nonzero(coarse == eo._IN) > 0
    assert np.array_equal(coarse, fine[::2, ::2])


def _flat_strip(gap, dip_at=None, dip=None, h=1.0 / 16):
    """Periodic strip 0 < y < gap over [0, 1); at x == dip_at the upper
    graph comes down to dip."""
    return eo.GridDomain(
        h=h,
        bbox=(0.0, -2 * h, 1.0, gap + 2 * h),
        f_of_x=lambda x: np.where(x == dip_at, dip, gap),
        g_of_x=lambda x: 0.0,
        periodic_x=1.0,
    )


def test_refusals_keep_their_order(tmp_path, monkeypatch, capsys):
    from hypcollar import cli

    h = 1.0 / 16
    # 2.5 h passes at h/2 (>= 1.5 h) but not at h: the refusal names h
    thin = _flat_strip(2.5 * h)
    eo._lattice(thin, 0.5 * h)
    with pytest.raises(eo.ResolutionError, match=r"\(h = %.3g\)" % h):
        eo.discrete_modulus(thin)
    monkeypatch.setattr(cli, "_oracle_domain", lambda cfg: thin)
    config = tmp_path / "strip.json"
    config.write_text('{"shape": "rectangle"}')
    assert cli.main(["oracle", "--config", str(config)]) == cli.EXIT_RESOLUTION
    assert "(h = %.3g)" % h in capsys.readouterr().err
    # a dip at an odd node of h/2 is seen at h/2 only: h is refused first
    # when both are, and h is solved first when only h/2 is
    for gap, refused in ((2.5 * h, h), (4 * h, 0.5 * h)):
        dipped = _flat_strip(gap, dip_at=0.5 * h, dip=h)
        with pytest.raises(eo.ResolutionError, match=r"\(h = %.3g\)" % refused):
            eo.discrete_modulus(dipped)
    assert solve_at(dipped, dipped.h)[0] > 0


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
        assert np.array_equal(interp.toarray(), want)
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


def _coarsest_operator(dom, h):
    """The lattice matrix at mesh h after the Galerkin products of its
    hierarchy, as the multigrid preconditioner forms them."""
    wrap = dom.periodic_x is not None
    cls = eo._lattice(dom, h)
    a, _ = eo._assemble(cls, wrap)
    transfers = eo._transfers(cls, wrap)
    for interp, restrict, _ in transfers:
        a = (restrict @ (a @ interp)).tocsr()
    return a, len(transfers)


@pytest.mark.parametrize(
    "dom, h, levels",
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
        ), 1.0 / 32, 2),
        # links across the periodic seam, 45 cells per period at h
        (eo.strip_domain(sinusoid_pair(0.5, 0.2), h=1.0 / 45), 1.0 / 90, 2),
        # 255 unknowns: the lattice is its own coarsest level
        (eo.rectangle_domain(1.0, 1.0, h=1.0 / 16), 1.0 / 16, 0),
    ],
    ids=["isolated-node", "periodic-seam", "one-level"],
)
def test_coarsest_solve_matches_the_shifted_system(dom, h, levels):
    from scipy import sparse

    a, depth = _coarsest_operator(dom, h)
    assert depth == levels
    n = a.shape[0]
    diag = a.diagonal()
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    if dom.periodic_x:
        # the seam links the first and last columns of x
        assert np.max(np.abs(a.indices - rows)) > n // 2
    elif levels:
        assert np.count_nonzero(diag == 0) == 1
        assert np.count_nonzero(a.indices == rows) == n - 1
    shifted = (a + 1e-12 * diag.max() * sparse.identity(n)).tocsc()
    b = np.random.default_rng(3).standard_normal(n)
    want = spsolve(shifted, b)
    got = eo._coarsest(a)(b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the operator itself is left as it was
    assert np.array_equal(a.diagonal(), diag)


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
