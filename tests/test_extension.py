"""The half-ball solver: exactness oracles (constants, homogeneous
profiles), linearity, convergence, and the field container behaviour."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from conftest import free_block, kron_forms

from conefrac.cones import ConeProfile, SphericalCap, cap_of_cone
from conefrac.errors import DomainError
from conefrac.extension import (build_halfball_grid, load_field,
                                manufactured_field, save_field,
                                solve_extension)
from conefrac.expressions import parse_expression
from conefrac.params import ProblemParams
from conefrac.spectral import solve_eigs
from conefrac.sphercap import band_to_dense, build_mesh


def _weighted_l2_error(fld, es, mode, grid, mesh, s):
    g = es.gamma[mode]
    num = den = 0.0
    for k, r in enumerate(grid.r_nodes):
        exact = r ** g * es.vectors[mode]
        diff = fld.values[k] - exact
        w = r ** (3.0 - 2.0 * s)
        num += w * float(diff @ (mesh.M @ diff))
        den += w * float(exact @ (mesh.M @ exact))
    return math.sqrt(num / den)


def test_constant_solution_full_circle():
    s = 0.5
    p = ProblemParams(s=s, lam=0.0)
    cap = SphericalCap.full_circle()
    mesh = build_mesh(12, 24, s, cap)
    grid = build_halfball_grid(10, 1e-3, mesh)
    es = solve_eigs(mesh, p, k=10)
    fld = solve_extension(grid, p, np.ones(mesh.n_nodes), es=es)
    assert np.abs(fld.values - 1.0).max() < 1e-9


def test_homogeneous_profile_reproduction(half_es, half_params, half_mesh):
    grid = build_halfball_grid(16, 1e-3, half_es.mesh)
    fld = solve_extension(grid, half_params, half_es.vectors[0], es=half_es)
    err = _weighted_l2_error(fld, half_es, 0, grid, half_mesh,
                             half_params.s)
    assert err < 0.03
    assert fld.meta["inner_mode"] == 0


def test_trace_vanishes_off_cap(half_es, half_params):
    grid = build_halfball_grid(8, 1e-2, half_es.mesh)
    fld = solve_extension(grid, half_params, half_es.vectors[0], es=half_es)
    mesh = half_es.mesh
    assert np.abs(fld.values[:, mesh.dirichlet_ids]).max() == 0.0


def test_linearity_in_boundary_data(half_es, half_params):
    grid = build_halfball_grid(8, 1e-2, half_es.mesh)
    lid = half_es.vectors[0]
    f1 = solve_extension(grid, half_params, lid, es=half_es)
    f3 = solve_extension(grid, half_params, 3.0 * lid, es=half_es)
    np.testing.assert_allclose(f3.values, 3.0 * f1.values,
                               rtol=1e-8, atol=1e-12)


def test_perturbation_linear_response(half_es, half_params):
    # deviation from the homogeneous profile scales like the size of h
    grid = build_halfball_grid(10, 1e-2, half_es.mesh)
    lid = half_es.vectors[0]
    base = solve_extension(grid, half_params, lid, es=half_es)
    devs = []
    for c in (0.1, 0.05):
        posed = dataclasses.replace(half_params, h=parse_expression(str(c)))
        fld = solve_extension(grid, posed, lid, es=half_es)
        # compare on the outer shells (the h-run uses a natural inner
        # boundary, the base run pins the inner shell)
        sel = slice(3, grid.n_surfaces)
        devs.append(np.linalg.norm(fld.values[sel] - base.values[sel]))
    assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.15)


def test_refinement_convergence(half_params, half_cap):
    s = half_params.s
    errors = []
    for nt, ntheta, nr in ((12, 24, 8), (24, 48, 16)):
        mesh = build_mesh(nt, ntheta, s, half_cap)
        es = solve_eigs(mesh, half_params, k=3)
        grid = build_halfball_grid(nr, 1e-3, mesh)
        fld = solve_extension(grid, half_params, es.vectors[0], es=es)
        errors.append(_weighted_l2_error(fld, es, 0, grid, mesh, s))
    assert errors[0] / errors[1] >= 1.5


def test_manufactured_field_basics(half_es):
    fld = manufactured_field(half_es, [(0, 1.0), (3, 0.25)])
    mesh = half_es.mesh
    # trace vanishes off the cap
    tr = fld.trace_values(0.5)
    eq_mask = np.zeros(mesh.ntheta, dtype=bool)
    eq_mask[np.flatnonzero(mesh.robin_mask)] = True
    assert np.abs(tr[~eq_mask]).max() == 0.0
    # mode-wise scaling under dilation
    v1 = fld.sphere_values(1.0)
    tau = 0.5
    expected = (fld.betas * tau ** fld.gammas) @ fld.table
    np.testing.assert_allclose(fld.sphere_values(tau), expected,
                               rtol=1e-13, atol=1e-15)
    assert v1.shape == (mesh.n_nodes,)


def test_manufactured_field_validation(half_es):
    with pytest.raises(DomainError):
        manufactured_field(half_es, [])
    with pytest.raises(DomainError):
        manufactured_field(half_es, [(99, 1.0)])


def test_field_save_load_round_trip(tmp_path, solver_field):
    fld = solver_field
    path = tmp_path / "field.bin"
    save_field(path, fld)
    back = load_field(path)
    np.testing.assert_allclose(back.values, fld.values, atol=0.0)
    np.testing.assert_allclose(back.grid.r_nodes, fld.grid.r_nodes)
    assert back.mesh.cap.a == pytest.approx(fld.mesh.cap.a)
    assert back.mesh.nt == fld.mesh.nt
    assert (back.params.s, back.params.lam) == (fld.params.s, fld.params.lam)
    assert back.params.h is None
    # the file holds no h: given params carry it, and the field owns them
    assert load_field(path, fld.params).params is fld.params
    # header is little-endian with the documented magic
    raw = path.read_bytes()
    assert raw[:4] == b"CFXF"


@pytest.mark.parametrize("change", [{"lam": 0.2}, {"s": 0.6}])
def test_load_rejects_params_that_disagree_with_the_file(tmp_path,
                                                         solver_field_h0,
                                                         change):
    path = tmp_path / "field.bin"
    save_field(path, solver_field_h0)
    params = dataclasses.replace(solver_field_h0.params, **change)
    with pytest.raises(DomainError):
        load_field(path, params)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DomainError):
        load_field(path)


HEADER = 68                      # magic, version, dims, six doubles


def _put(fmt, offset, value):
    def edit(raw):
        struct.pack_into(fmt, raw, offset, value)
        return raw
    return edit


def _one_more_shell(raw):
    return _put("<I", 8, struct.unpack_from("<I", raw, 8)[0] + 1)(raw)


def _five_shells(raw):
    # a consistent file with too few shells for the radial slope stencils
    n_surf, nt, ntheta = struct.unpack_from("<3I", raw, 8)
    body = raw[HEADER:]
    shells = body[:8 * 5] + body[8 * n_surf:8 * (n_surf + 5 * nt * ntheta)]
    return _put("<I", 8, 5)(raw[:HEADER]) + shells


@pytest.mark.parametrize("edit", [
    lambda raw: raw[:HEADER - 10],              # truncated header
    lambda raw: raw[:HEADER + 8],               # truncated payload
    lambda raw: raw[:-3],
    lambda raw: raw + b"\x00" * 8,              # trailing bytes
    _one_more_shell,                            # counts disagree
    _put("<d", HEADER - 8, math.nan),           # non-finite grading
    _put("<d", HEADER + 8 * 40, math.inf),      # non-finite node value
    _put("<d", HEADER + 8 * 3, 0.5),            # non-geometric radii
    _five_shells,
])
def test_load_rejects_corrupt_files(tmp_path, solver_field_h0, edit):
    path = tmp_path / "field.bin"
    save_field(path, solver_field_h0)
    path.write_bytes(bytes(edit(bytearray(path.read_bytes()))))
    with pytest.raises(DomainError):
        load_field(path)


def test_grid_field_interpolation_consistency(solver_field_h0):
    fld = solver_field_h0
    # at shell radii the interpolant reproduces the stored values
    for k in (0, 5, 12):
        r = fld.grid.r_nodes[k]
        np.testing.assert_allclose(fld.sphere_values(r), fld.values[k],
                                   rtol=1e-10, atol=1e-12)
    # an array of radii gives one row per radius, equal to the scalar
    # calls, below the inner shell, between shells and on them
    shells = [0, 5, 12, fld.grid.n_surfaces - 1]
    radii = np.concatenate([[0.4 * fld.grid.r_min],
                            np.geomspace(fld.grid.r_min, 1.0, 7)[1:-1],
                            fld.grid.r_nodes[shells]])
    for method in (fld.sphere_values, fld.sphere_radial_derivative,
                   fld.trace_values):
        rows = method(radii)
        assert rows.shape[0] == len(radii)
        for r, row in zip(radii, rows):
            np.testing.assert_array_equal(row, method(r))
    np.testing.assert_array_equal(fld.sphere_values(radii[-4:]),
                                  fld.values[shells])
    eq = fld.mesh.equator_ids
    np.testing.assert_array_equal(fld.trace_values(radii[-4:]),
                                  fld.values[shells][:, eq])
    with pytest.raises(DomainError):
        fld.sphere_values(np.array([0.5, 1.5]))


def test_grid_field_power_continuation(solver_field_h0, half_es):
    fld = solver_field_h0
    # below r_min the field continues as the local power; the h = 0 solve
    # pins the inner shell to the first eigenmode, so the local exponent is
    # close to gamma_1
    g = fld.local_power()
    assert g == pytest.approx(half_es.gamma[0], abs=0.05)
    r = 0.5 * fld.grid.r_min
    inner = fld.values[0]
    live = np.abs(inner) > 1e-12 * np.abs(inner).max()
    ratio = fld.sphere_values(r)[live] / inner[live]
    assert np.allclose(ratio, (r / fld.grid.r_min) ** g, rtol=1e-10)


def test_grid_validation(half_es):
    for n_r in (2, 4):   # the radial slope stencils need six shells
        with pytest.raises(DomainError):
            build_halfball_grid(n_r, 1e-3, half_es.mesh)
    with pytest.raises(DomainError):
        build_halfball_grid(8, 2.0, half_es.mesh)


def test_solver_rejects_bad_lid(half_es, half_params):
    grid = build_halfball_grid(8, 1e-2, half_es.mesh)
    with pytest.raises(DomainError):
        solve_extension(grid, half_params, np.ones(5), es=half_es)


# ---------------------------------------------------------------------------
# fast diagonalization, the matrix-free operator and batched diagnostics
# ---------------------------------------------------------------------------

def _radial_pair(grid, s, shells):
    from conefrac.extension import radial_mass, radial_stiffness
    sel = np.ix_(shells, shells)
    return (radial_stiffness(grid.r_nodes, 3.0 - 2.0 * s)[sel],
            radial_mass(grid.r_nodes, 1.0 - 2.0 * s)[sel])


@pytest.mark.parametrize("cap, ntheta, inner_free", [
    (SphericalCap.full_circle(), 8, True),       # no Dirichlet nodes
    (cap_of_cone(ConeProfile.half_plane()), 8, False),
    (SphericalCap(0.3, 2.0), 12, True),          # Dirichlet set wraps 0
    (cap_of_cone(ConeProfile.half_plane()), 9, True),   # odd ntheta
    (cap_of_cone(ConeProfile.half_plane()), 8, None),   # Hardy's one shift
])
def test_fast_diag_preconditioner_is_exact_inverse(cap, ntheta, inner_free):
    from conefrac.extension import _FastDiagPreconditioner
    s = 0.5
    mesh = build_mesh(5, ntheta, s, cap)
    if inner_free is None:
        Sr, Mr = np.array([[ProblemParams(s=s).half_order ** 2]]), np.eye(1)
    else:
        grid = build_halfball_grid(5, 1e-2, mesh)
        shells = np.arange(0 if inner_free else 1, grid.n_surfaces - 1)
        Sr, Mr = _radial_pair(grid, s, shells)
    p = ProblemParams(s=s, lam=0.1)
    K, M, B = kron_forms(mesh)
    for rho in (0.0, p.lam * p.kappa):     # exact in the lambda term too
        A = (np.kron(Sr, free_block(M, mesh).toarray())
             + np.kron(Mr, free_block(K - rho * B, mesh).toarray()))
        precond = _FastDiagPreconditioner(Sr, Mr, mesh, rho)
        free = (np.arange(len(Sr))[:, None] * mesh.n_nodes
                + mesh.free_nodes).ravel()
        P = np.column_stack([precond.apply(e)[free] for e in
                             np.eye(len(Sr) * mesh.n_nodes)[free]])
        exact = np.linalg.inv(A)
        assert np.abs(P - exact).max() <= 1e-12 * np.abs(exact).max()


def _assembled_operator(grid, params, mesh):
    """The 3-D operator assembled with sp.kron from the dense 1-D factors,
    as the reference for the matrix-free one; the h trace term is the
    matrix of ``_trace_h``, probed column by column on the equator."""
    import scipy.sparse as sp
    from conefrac.extension import _trace_h
    s = params.s
    Sr, Mr = _radial_pair(grid, s, np.arange(grid.n_surfaces))
    K, M, B = kron_forms(mesh)
    A = (sp.kron(Sr, M) + sp.kron(Mr, K)
         - params.lam * params.kappa * sp.kron(Mr, B))
    if params.h is not None:
        trace_h = _trace_h(grid, params.h)
        shape = (grid.n_surfaces, grid.mesh.n_nodes)
        eq = (np.arange(shape[0])[:, None] * shape[1]
              + grid.mesh.equator_ids).ravel()
        T = np.zeros((grid.n_nodes, grid.n_nodes))
        for col in eq:
            U = np.zeros(shape)
            U.flat[col] = 1.0
            T[eq, col] = trace_h(U).ravel()
        A = A - params.kappa * sp.csr_matrix(T)
    return A.tocsr()


def _segment_form(mesh, g):
    """int g(theta) N_a N_b dtheta over the cap segments by 20-point
    Gauss, as a dense ntheta x ntheta matrix."""
    xg, wg = np.polynomial.legendre.leggauss(20)
    dtheta = 2.0 * math.pi / mesh.ntheta
    hats = np.array([1.0 - 0.5 * (xg + 1.0), 0.5 * (xg + 1.0)])
    C = np.zeros((mesh.ntheta, mesh.ntheta))
    for j in np.flatnonzero(mesh.segment_mask):
        theta = mesh.theta_nodes[j] + 0.5 * dtheta * (xg + 1.0)
        nodes = np.array([j, (j + 1) % mesh.ntheta])
        C[np.ix_(nodes, nodes)] += (hats * (0.5 * dtheta * wg * g(theta))
                                    ) @ hats.T
    return C


@pytest.mark.parametrize("cap", [cap_of_cone(ConeProfile.half_plane()),
                                 SphericalCap(-0.7, 2.1)])   # wraps 0
def test_separable_trace_h_matches_kron(cap):
    # h = 0.3 and h = x1 = r cos(theta) separate in (r, theta): the equator
    # form is kron(int r^(1+q) N_i N_j dr, int g N_a N_b dtheta); on 96
    # segments the 4-point Gauss rule in theta is exact to rounding
    from conefrac.extension import _trace_h, radial_mass
    mesh = build_mesh(6, 96, 0.5, cap)
    grid = build_halfball_grid(6, 1e-2, mesh)
    rng = np.random.default_rng(4)
    U = rng.standard_normal((grid.n_surfaces, mesh.n_nodes))
    for h, q, g in (("0.3", 0.0, lambda th: 0.3 + 0.0 * th),
                    ("x1", 1.0, np.cos)):
        ref = np.kron(radial_mass(grid.r_nodes, 1.0 + q),
                      _segment_form(mesh, g))
        if h == "0.3":
            np.testing.assert_allclose(_segment_form(mesh, g),
                                       0.3 * band_to_dense(mesh.Bth),
                                       rtol=0.0, atol=1e-15)
        expect = ref @ U[:, :mesh.ntheta].ravel()
        got = _trace_h(grid, parse_expression(h))(U)
        np.testing.assert_allclose(got.ravel(), expect, rtol=0.0,
                                   atol=1e-12 * np.abs(expect).max())


@pytest.mark.parametrize("h", [None, "0.1 + 0.05*x1"])
def test_matrix_free_operator_matches_assembled(half_params, half_cap, h):
    from conefrac.extension import _extension_operator
    params = dataclasses.replace(
        half_params, h=None if h is None else parse_expression(h))
    mesh = build_mesh(6, 12, params.s, half_cap)
    grid = build_halfball_grid(6, 1e-2, mesh)
    A = _assembled_operator(grid, params, mesh)
    apply, *_ = _extension_operator(grid, params)
    rng = np.random.default_rng(7)
    for u in rng.standard_normal((3, grid.n_nodes)):
        ref = A @ u
        np.testing.assert_allclose(apply(u), ref, rtol=0.0,
                                   atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("h", [None, "0.1", "0.1*x1 + 0.05*x2^2",
                               "0.1*cos(theta)"])
def test_solve_matches_direct_solve(half_params, half_cap, h):
    import scipy.sparse.linalg as spla
    h = None if h is None else parse_expression(h)
    params = dataclasses.replace(half_params, h=h)
    mesh = build_mesh(12, 24, params.s, half_cap)
    es = solve_eigs(mesh, params, k=4)
    grid = build_halfball_grid(8, 1e-2, mesh)
    fld = solve_extension(grid, params, es.vectors[0], es=es)
    assert fld.mesh is mesh and fld.params is params
    # the preconditioner inverts everything but the h term
    if h is None:
        assert fld.meta["cg_iters"] == 0
    else:
        assert 0 < fld.meta["cg_iters"] <= 5
    assert fld.meta["cg_residual"] <= 1e-10

    # the same Dirichlet data, solved directly on the assembled system
    A = _assembled_operator(grid, params, mesh)
    u = fld.values.ravel().copy()
    fixed = np.ones((grid.n_surfaces, mesh.n_nodes), dtype=bool)
    fixed[1 if h is None else 0:-1, mesh.free_nodes] = False
    free = np.flatnonzero(~fixed.ravel())
    u[free] = 0.0
    direct = spla.spsolve(A[free][:, free].tocsc(), -(A[free] @ u))
    err = np.abs(fld.values.ravel()[free] - direct).max()
    assert err <= 1e-8 * np.abs(direct).max()


@pytest.mark.parametrize("h", ["0.05", "0.15"])
def test_pcg_matches_scipy_cg(monkeypatch, half_cap, h):
    """On the benchmark's solve-ext system (48 x 96, 32 shells) the numpy
    PCG takes as many iterations as scipy's cg run on the same operator,
    preconditioner and right-hand side, and returns the same solution; the
    system is the equator-trace one that ``solve_extension`` iterates on."""
    import scipy.sparse.linalg as spla

    import conefrac.extension as ext
    params = ProblemParams(s=0.5, lam=0.1, h=parse_expression(h))
    mesh = build_mesh(48, 96, params.s, half_cap)
    es = solve_eigs(mesh, params, k=8)
    seen, pcg = {}, ext._pcg

    def spy(matvec, precond, b):
        seen.update(matvec=matvec, precond=precond, b=b.copy())
        seen["x"], seen["iters"] = pcg(matvec, precond, b)
        return seen["x"], seen["iters"]

    monkeypatch.setattr(ext, "_pcg", spy)
    fld = solve_extension(build_halfball_grid(32, 1e-3, mesh), params,
                          es.vectors[1], es=es)
    assert fld.meta["cg_iters"] == seen["iters"]
    assert fld.meta["cg_residual"] <= 1e-10
    n, count = len(seen["b"]), []
    ref, info = spla.cg(
        spla.LinearOperator((n, n), matvec=seen["matvec"], dtype=float),
        seen["b"], rtol=ext.CG_TOL, atol=0.0, maxiter=ext.CG_MAXITER,
        M=spla.LinearOperator((n, n), matvec=seen["precond"], dtype=float),
        callback=count.append)
    assert info == 0
    assert len(count) == seen["iters"]
    assert np.abs(seen["x"] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("h", [None, "0.15"])
def test_solve_applies_operator_and_fast_inverse_at_most_three_times(
        monkeypatch, half_params, half_cap, h):
    # the CG runs on the equator trace: the 3-D operator builds the right-
    # hand side, refines once and checks the residual; the fast inverse
    # solves for x0, for the trace correction and for the refinement
    import conefrac.extension as ext
    params = dataclasses.replace(
        half_params, h=None if h is None else parse_expression(h))
    mesh = build_mesh(12, 24, params.s, half_cap)
    es = solve_eigs(mesh, params, k=4)
    counts = {"operator": 0, "fast": 0}
    make_operator, fast_apply = (ext._extension_operator,
                                 ext._FastDiagPreconditioner.apply)

    def spy_operator(grid, params):
        apply, *rest = make_operator(grid, params)

        def counted(u):
            counts["operator"] += 1
            return apply(u)
        return (counted, *rest)

    def spy_fast(self, x):
        counts["fast"] += 1
        return fast_apply(self, x)

    monkeypatch.setattr(ext, "_extension_operator", spy_operator)
    monkeypatch.setattr(ext._FastDiagPreconditioner, "apply", spy_fast)
    fld = solve_extension(build_halfball_grid(8, 1e-2, mesh), params,
                          es.vectors[0], es=es)
    if h is None:                           # without h, A = A0: no CG
        assert fld.meta["cg_iters"] == 0
    else:
        assert fld.meta["cg_iters"] >= 1
    assert counts["operator"] <= 3 and counts["fast"] <= 3


def test_batched_pohozaev_rows_equal_scalar_calls(half_es):
    from conefrac.almgren import pohozaev_check
    fld = manufactured_field(half_es, [(0, 1.0), (3, 0.25)])
    radii = np.linspace(0.3, 0.7, 5)
    reports = pohozaev_check(fld, radii)
    assert len(reports) == len(radii)
    for r, rep in zip(radii, reports):
        assert rep == pohozaev_check(fld, float(r))
