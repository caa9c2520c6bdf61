# chart-level tensor calculus: curvature oracles, operators, sampling

import ast
import inspect
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import manifest as mf
from solitonlab import soliton as so
from solitonlab import spaces as sp

from kernel_paths import SETTINGS
from oracles import (DegeneratePlaneError, eval_checked, evaluate, gnorm_fsum, riemann_sectional,
                     sample_points_full_batch)


def euclidean_setup(n=3):
    space = sp.make_euclidean(n)
    return space.chart, space.metric


def perturbed_metric(n=3, seed=3):
    """delta_ij plus a small polynomial perturbation, SPD on the box."""
    rng = np.random.default_rng(seed)
    chart = geo.Chart(tuple(f"x{i+1}" for i in range(n)), ((-1.0, 1.0),) * n)
    entries = []
    for i in range(n):
        for j in range(i, n):
            base = ex.ONE if i == j else ex.ZERO
            bump = ex.nsum(
                ex.mul(ex.const(rng.uniform(-0.05, 0.05)),
                       ex.mul(ex.coord(a), ex.coord(b)))
                for a in range(n) for b in range(a, n)
            )
            entries.append(ex.add(base, bump))
    return chart, geo.MetricField(chart, geo.sym_rows(entries))


def test_chart_validation():
    with pytest.raises(ValueError):
        geo.Chart(("x1", "x2"), ((-1, 1),))  # box/coords mismatch
    with pytest.raises(ValueError):
        geo.Chart(("x1",), ((1.0, -1.0),))  # degenerate interval
    with pytest.raises(ValueError):
        geo.Chart(("x1",), ((-1, 1),), domain=(ex.coord(4),))
    c = geo.Chart(("x1", "x2"), ((-1, 1), (0, 2)), domain=(ex.coord(1),))
    assert c.dim == 2
    assert c.parse("x1 + x2") is ex.add(ex.coord(0), ex.coord(1))


def test_sym_rows_counts_and_sharing():
    rows = geo.sym_rows([1.0, 2.0, 3.0])  # n = 2
    assert rows[0][1] is rows[1][0]
    assert rows[0][0].payload == 1.0
    with pytest.raises(ValueError):
        geo.sym_rows([1.0, 2.0])  # 2 is not n(n+1)/2


def test_sym2_calls_entry_once_per_upper_entry_in_row_major_order():
    for n in range(5):
        calls = []

        def entry(i, j):
            calls.append((i, j))
            return object()

        rows = geo.sym2(n, entry)
        assert calls == [(i, j) for i in range(n) for j in range(i, n)]
        assert len(calls) == n * (n + 1) // 2
        assert len(rows) == n and all(len(r) == n for r in rows)
        assert all(rows[i][j] is rows[j][i] for i in range(n) for j in range(n))


def test_tensor_field_shape_checks():
    chart, g = euclidean_setup(2)
    with pytest.raises(ValueError):
        geo.VectorField(chart, (ex.ONE,))
    with pytest.raises(ValueError):
        # asymmetric storage must be rejected
        geo.SymTensorField(chart, ((ex.ZERO, ex.ONE), (ex.coord(0), ex.ZERO)))


def test_christoffel_flat_space_vanishes():
    _, g = euclidean_setup(3)
    gam = geo.christoffel(g)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert gam[k][i][j] is ex.ZERO


def test_christoffel_stereographic_sphere_origin():
    # conformal factor is critical at the chart origin, so all Gamma vanish there
    g = sp.make_sphere(2, 1.0).metric
    gam = geo.christoffel(g)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert evaluate(gam[k][i][j], (0.0, 0.0)) == pytest.approx(0.0, abs=1e-14)


def test_christoffel_half_plane_hand_values():
    # g = x2^-2 delta at (0, 1)
    g = sp.make_hyperbolic(2).metric
    gam = geo.christoffel(g)
    pt = (0.0, 1.0)
    expected = {(1, 0, 0): 1.0, (0, 0, 1): -1.0, (0, 1, 0): -1.0, (1, 1, 1): -1.0}
    for k in range(2):
        for i in range(2):
            for j in range(2):
                want = expected.get((k, i, j), 0.0)
                assert evaluate(gam[k][i][j], pt) == pytest.approx(want, abs=1e-12)


def test_christoffel_symmetry_random_metric():
    _, g = perturbed_metric(3)
    gam = geo.christoffel(g)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert gam[k][i][j] is gam[k][j][i]


@pytest.mark.parametrize("n,r", [(2, 1.0), (3, 1.0), (3, 2.0)])
def test_sphere_curvatures(n, r):
    space = sp.make_sphere(n, r)
    g = space.metric
    ric = geo.ricci(g)
    R = geo.scalar_curvature(g)
    pts = geo.points_array(geo.sample_points(space.chart, 25, seed=5))
    rv = geo.eval_sym2_comps(ric.comps, pts)
    gv = geo.eval_sym2_comps(g.comps, pts)
    mu = (n - 1) / r ** 2
    assert np.max(np.abs(rv - mu * gv)) < 1e-9
    Rv = geo.eval_scalar(R, pts)
    assert np.max(np.abs(Rv - n * (n - 1) / r ** 2)) < 1e-9


def test_sphere_scalar_curvature_n3_r2_value():
    space = sp.make_sphere(3, 2.0)
    Rv = geo.eval_scalar(geo.scalar_curvature(space.metric), np.array([[0.3, -0.1, 0.7]]))
    assert Rv[0] == pytest.approx(1.5, abs=1e-12)


def test_hyperbolic_curvatures():
    space = sp.make_hyperbolic(3)
    g = space.metric
    ric = geo.ricci(g)
    pts = geo.points_array(geo.sample_points(space.chart, 25, seed=5))
    rv = geo.eval_sym2_comps(ric.comps, pts)
    gv = geo.eval_sym2_comps(g.comps, pts)
    assert np.max(np.abs(rv + 2.0 * gv)) < 1e-9
    Rv = geo.eval_scalar(geo.scalar_curvature(g), pts)
    assert np.max(np.abs(Rv + 6.0)) < 1e-9


def test_sectional_curvature_space_forms():
    s3 = sp.make_sphere(3, 1.0)
    val = riemann_sectional(s3.metric, (0.3, -0.2, 0.5), (1, 0, 0), (0, 1, 0))
    assert val == pytest.approx(1.0, abs=1e-10)
    h3 = sp.make_hyperbolic(3)
    val = riemann_sectional(h3.metric, (0.1, 0.2, 1.3), (1, 0, 0), (0, 0, 1))
    assert val == pytest.approx(-1.0, abs=1e-10)
    # radius scales sectional curvature by 1/r^2
    s2 = sp.make_sphere(2, 2.0)
    val = riemann_sectional(s2.metric, (0.4, 0.1), (1, 0), (0, 1))
    assert val == pytest.approx(0.25, abs=1e-10)


def test_sectional_degenerate_plane():
    s3 = sp.make_sphere(3, 1.0)
    with pytest.raises(DegeneratePlaneError):
        riemann_sectional(s3.metric, (0.0, 0.0, 0.0), (1, 0, 0), (2, 0, 0))


def test_inverse_metric_and_determinant():
    chart, g = perturbed_metric(3, seed=8)
    inv = geo.inverse_metric(g)
    det = geo.metric_determinant(g)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 3))
    gv = geo.eval_sym2_comps(g.comps, pts)
    iv = geo.eval_sym2_comps(inv, pts)
    for a in range(20):
        np.testing.assert_allclose(gv[a] @ iv[a], np.eye(3), atol=1e-11)
    dv = geo.eval_scalar(det, pts)
    np.testing.assert_allclose(dv, np.linalg.det(gv), atol=1e-12)


def full_expansion(rows, idx_rows, idx_cols):
    """Laplace expansion along the first row, every minor expanded."""
    if len(idx_rows) == 1:
        return rows[idx_rows[0]][idx_cols[0]]
    terms = []
    for pos, c in enumerate(idx_cols):
        minor = full_expansion(rows, idx_rows[1:], idx_cols[:pos] + idx_cols[pos + 1:])
        t = ex.mul(rows[idx_rows[0]][c], minor)
        terms.append(t if pos % 2 == 0 else ex.neg(t))
    return ex.nsum(terms)


def test_determinant_skips_the_minors_of_zero_entries(monkeypatch):
    # a zero entry's term folds to zero, so its minor is never expanded: the
    # nodes are those of the full expansion, built with far fewer expansions
    S = sp.make_sphere(2)
    w = sp.make_warped(S, sp.make_hyperbolic(2), geo.ScalarField(S.chart, S.chart.parse("2 + x1^2")))
    for g in (sp.make_sphere(4).metric, sp.make_hyperbolic(4).metric, w.metric):
        n, idx = g.chart.dim, tuple(range(g.chart.dim))
        det = full_expansion(g.comps, idx, idx)
        assert geo.metric_determinant.__wrapped__(g).expr is det
        inv = geo._inverse.__wrapped__(g.comps)
        for i in range(n):
            for j in range(n):
                cof = full_expansion(g.comps, tuple(r for r in idx if r != j),
                                     tuple(c for c in idx if c != i))
                assert inv[i][j] is ex.div(ex.neg(cof) if (i + j) % 2 else cof, det)
    calls = []
    expand = geo._det
    monkeypatch.setattr(geo, "_det", lambda *args: calls.append(args) or expand(*args))
    geo._inverse.__wrapped__(sp.make_sphere(10).metric.comps)
    assert 0 < len(calls) < 300  # 32,163 when every minor was expanded


def test_metric_compatibility():
    # nabla g = 0 identically
    chart, g = perturbed_metric(3)
    T = geo.SymTensorField(chart, g.comps)
    D = geo.covariant_derivative_sym2(g, T)
    flat = [D[a][i][j] for a in range(3) for i in range(3) for j in range(3)]
    pts = np.random.default_rng(1).uniform(-1, 1, size=(40, 3))
    vals = ex.eval_many(flat, pts)
    assert np.max(np.abs(vals)) < 1e-12


def test_gradient_hessian_laplacian_flat():
    chart, g = euclidean_setup(3)
    phi = geo.ScalarField(chart, chart.parse("x1^2 + x2^2 + x3^2"))
    grad = geo.gradient(g, phi)
    hess = geo.hessian(g, phi)
    lap = geo.laplacian(g, phi)
    pts = np.array([[0.2, -0.4, 1.0]])
    gvec = ex.eval_many(grad.comps, pts).T[0]
    np.testing.assert_allclose(gvec, [0.4, -0.8, 2.0], atol=1e-14)
    hv = geo.eval_sym2_comps(hess.comps, pts)[0]
    np.testing.assert_allclose(hv, 2.0 * np.eye(3), atol=1e-14)
    assert geo.eval_scalar(lap, pts)[0] == pytest.approx(6.0)
    gn = geo.eval_scalar(geo.grad_norm2(g, phi), pts)[0]
    assert gn == pytest.approx(0.16 + 0.64 + 4.0)


def test_height_function_hessian_equation_sphere():
    # Hess h_v = -c h_v g on the round sphere
    space = sp.make_sphere(3, 1.0)
    hf = sp.height_function(space, (0.0, 0.0, 0.0, 1.0))
    hess = geo.hessian(space.metric, hf.field)
    pts = geo.points_array(geo.sample_points(space.chart, 40, seed=2))
    hv = geo.eval_sym2_comps(hess.comps, pts)
    hval = geo.eval_scalar(hf.field, pts)
    gv = geo.eval_sym2_comps(space.metric.comps, pts)
    resid = hv + hval[:, None, None] * gv
    assert np.max(np.abs(resid)) < 1e-9


def test_height_function_hessian_equation_hyperbolic():
    space = sp.make_hyperbolic(3)
    hf = sp.height_function(space, (0.0, 0.0, 0.0, 1.0))
    hess = geo.hessian(space.metric, hf.field)
    pts = geo.points_array(geo.sample_points(space.chart, 40, seed=2))
    hv = geo.eval_sym2_comps(hess.comps, pts)
    hval = geo.eval_scalar(hf.field, pts)
    gv = geo.eval_sym2_comps(space.metric.comps, pts)
    resid = hv - hval[:, None, None] * gv  # c = -1
    assert np.max(np.abs(resid)) < 1e-9


def test_lie_derivative_of_gradient_is_twice_hessian():
    chart, g = perturbed_metric(3, seed=12)
    phi = geo.ScalarField(chart, chart.parse("sin(x1) + x2^2*x3"))
    lie = geo.lie_derivative_metric(g, geo.gradient(g, phi))
    hess = geo.hessian(g, phi)
    pts = np.random.default_rng(4).uniform(-1, 1, size=(30, 3))
    lv = geo.eval_sym2_comps(lie.comps, pts)
    hv = geo.eval_sym2_comps(hess.comps, pts)
    assert np.max(np.abs(lv - 2.0 * hv)) < 1e-10


def test_divergence_of_position_field_flat():
    chart, g = euclidean_setup(3)
    X = geo.VectorField(chart, chart.coord_exprs())
    div = geo.divergence_vector(g, X)
    assert geo.eval_scalar(div, np.array([[0.1, 0.2, 0.3]]))[0] == pytest.approx(3.0)


def test_trace_and_traceless():
    chart, g = perturbed_metric(3)
    T = geo.SymTensorField(chart, g.comps)
    tr = geo.trace(g, T)
    pts = np.random.default_rng(6).uniform(-1, 1, size=(10, 3))
    np.testing.assert_allclose(geo.eval_scalar(tr, pts), 3.0, atol=1e-12)
    T0 = geo.traceless(g, T)
    vals = geo.eval_sym2_comps(T0.comps, pts)
    assert np.max(np.abs(vals)) < 1e-12
    inner = geo.tensor_inner(g, T, T)
    np.testing.assert_allclose(geo.eval_scalar(inner, pts), 3.0, atol=1e-12)


def test_musical_isomorphisms_round_trip():
    chart, g = perturbed_metric(3, seed=9)
    X = geo.VectorField(chart, (chart.parse("x2"), chart.parse("exp(x1)"), ex.ONE))
    back = geo.oneform_to_vector(g, geo.vector_to_oneform(g, X))
    pts = np.random.default_rng(7).uniform(-1, 1, size=(15, 3))
    xv = ex.eval_many(X.comps, pts).T
    bv = ex.eval_many(back.comps, pts).T
    np.testing.assert_allclose(xv, bv, atol=1e-11)


def test_sym2_apply_on_metric_is_identity():
    chart, g = perturbed_metric(3, seed=10)
    T = geo.SymTensorField(chart, g.comps)
    X = geo.VectorField(chart, (ex.coord(0), ex.coord(1), ex.coord(2)))
    TX = geo.sym2_apply(g, T, X)
    pts = np.random.default_rng(8).uniform(-1, 1, size=(15, 3))
    np.testing.assert_allclose(
        ex.eval_many(TX.comps, pts).T,
        ex.eval_many(X.comps, pts).T, atol=1e-11)


def test_gnorm_against_direct_contraction():
    chart, g = perturbed_metric(2, seed=13)
    T = geo.SymTensorField(chart, geo.sym_rows([chart.parse("x1"), ex.ONE, chart.parse("x2^2")]))
    pts = np.random.default_rng(3).uniform(-1, 1, size=(12, 2))
    gv, ginv = geo.eval_metric(g, pts)
    tv = geo.eval_sym2_comps(T.comps, pts)
    got = geo.gnorm_sym2(tv, ginv)
    assert_near_exact_sums(got, ginv, tv)
    # one list-form call over ranks 0-3 gives, for each residual, the g-norm of
    # the reference interpreter's values, bit for bit
    f = chart.parse("x1*x2 - 0.3")
    w = [chart.parse("x1^2"), chart.parse("sin(x2)")]
    folded = [ex.mul(ex.ZERO, f), ex.const(0.5)]
    assert all(e.kind == "const" for e in folded)
    residuals = [f, T.comps, w, geo.covariant_derivative_sym2(g, T), folded]
    norms = geo.gnorms(g, residuals, pts)
    assert len(norms) == len(residuals)
    np.testing.assert_array_equal(norms[1], got)
    # the reduction's inverse is the reference interpreter's inverse_metric rows
    inv = geo.inverse_metric(g)
    flat_inv = [inv[i][j] for i in range(2) for j in range(2)]
    ginv_ref = eval_checked(flat_inv, pts).T.reshape(-1, 2, 2)
    reduce = {1: geo.gnorm_oneform, 2: geo.gnorm_sym2, 3: geo.gnorm_rank3}
    for r, got_r in zip(residuals, norms):
        arr = np.array(r, dtype=object)
        vals = eval_checked(list(arr.flat), pts).T.reshape((len(pts),) + arr.shape)
        want_r = vals if arr.ndim == 0 else reduce[arr.ndim](vals, ginv_ref)
        assert got_r.shape == (len(pts),)
        np.testing.assert_array_equal(got_r, want_r)
    # rank-0 residuals alone never evaluate the metric, which is undefined at x1 = 0
    g0 = geo.MetricField(chart, geo.sym_rows([chart.parse("1/x1"), ex.ZERO, ex.ONE]))
    at_zero = np.array([[0.5, 0.5], [0.0, 0.25]])
    scalars = geo.gnorms(g0, [f, chart.parse("x2")], at_zero)
    np.testing.assert_array_equal(scalars[0], at_zero[:, 0] * at_zero[:, 1] - 0.3)
    np.testing.assert_array_equal(scalars[1], at_zero[:, 1])
    with pytest.raises(ex.DomainError, match="division by zero at point index 1"):
        geo.gnorms(g0, [f, w], at_zero)
    # a residual raises before the ones after it, as if each were evaluated alone
    ln_x2, inv_x1 = chart.parse("ln(x2 - 0.3)"), chart.parse("1/x1")
    for first, why in ((ln_x2, "logarithm of a non-positive value at point index 1"),
                       (inv_x1, "division by zero at point index 1")):
        with pytest.raises(ex.DomainError, match=why):
            geo.gnorms(g, [first, [ln_x2, inv_x1]], at_zero)


EINSUMS = {1: ("nij,ni,nj->n", geo.gnorm_oneform),
           2: ("nik,njl,nij,nkl->n", geo.gnorm_sym2),
           3: ("nad,nbe,ncf,nabc,ndef->n", geo.gnorm_rank3)}


def residual_values(rank, dim, n, rng):
    """(N,) + (dim,) * rank values viewed, as eval_tensors returns them, from
    one row per component, with signed zeros among them."""
    rows = rng.standard_normal((dim ** rank, n)) * np.exp(rng.uniform(-3, 3, (dim ** rank, n)))
    rows[::5] = -0.0  # zero components whose products are signed zeros
    return rows.T.reshape((n,) + (dim,) * rank)


def reduction_operands(rank, dim, n, rng, count=1):
    """(ginv, residual values) as gnorms passes them: the inverse of SPD
    matrices, and the values of one residual, or a list of `count` of them."""
    a = rng.standard_normal((n, dim, dim))
    ginv = np.linalg.inv(a @ a.transpose(0, 2, 1) + dim * np.eye(dim))
    tvs = [residual_values(rank, dim, n, rng) for _ in range(count)]
    return ginv, tvs[0] if count == 1 else tvs


def as_evaluated(values):
    """A copy of (N,) + shape values laid out as eval_tensors returns them."""
    n = len(values)
    return np.ascontiguousarray(values.reshape(n, -1).T).T.reshape(values.shape)


def assert_near_exact_sums(got, ginv, tv, at=None):
    """got[p], the g-norm of tv[p], within the rounding bound of the exact sum
    of its terms (oracles.gnorm_fsum), at each point p of `at` (default all).

    A rank-r chain adds each term to the square through at most
    m = r*d + d**r roundings: one product and d - 1 sums in each of the r
    factors that carry a raised index, one product and d**r - 1 sums in the
    last contraction.  So the square is off by at most gamma(m + 2r) times
    the sum A of the terms' magnitudes, the oracle's 2r product roundings
    included, and its root by that over the root, or by the root of that
    (whichever is less), plus each side's square-root rounding.
    """
    at = range(len(tv)) if at is None else at
    r, d, eps = tv.ndim - 1, ginv.shape[1], np.finfo(float).eps
    want, size = gnorm_fsum(ginv, tv, at)
    m = r * d + d ** r + 2 * r
    err = m * eps / (1 - m * eps) * size
    got = np.asarray(got)[list(at)]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 where tv[p] is 0
        bound = np.fmin(err / want, np.sqrt(err)) + eps * np.maximum(got, want)
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / bound)


# rank 1 and 2 up to d = 12, rank 3 up to d = 6; one point, two, an odd
# count and counts that span several blocks of points
@pytest.mark.parametrize("rank,dim", [(1, d) for d in range(1, 13)]
                         + [(2, d) for d in range(1, 13)] + [(3, d) for d in range(1, 7)])
def test_gnorms_agree_with_an_exact_sum_of_their_terms(rank, dim):
    reduce = EINSUMS[rank][1]
    rng = np.random.default_rng(10 * rank + dim)
    ginvs, values = reduction_operands(rank, dim, 1024, rng, count=2)
    if rank == 2:  # every rank-2 residual is symmetric (geometry.sym2)
        values = [tv + tv.transpose(0, 2, 1) for tv in values]
    for n in (1, 2, 57, 1024, 20_000):
        # the first n points, repeated past 1,024, laid out as eval_tensors gives them
        pick = np.arange(n) % 1024
        ginv, tvs = ginvs[pick], [as_evaluated(tv[pick]) for tv in values]
        norms = reduce(tvs, ginv)
        at = range(n) if n <= 57 else [0, 1, n - 1, *rng.choice(n, 16, replace=False)]
        for tv, norm in zip(tvs, norms):
            assert norm.shape == (n,)
            assert_near_exact_sums(norm, ginv, tv, at)
        # one residual alone, and each point alone in its own layout, keeps its bits
        np.testing.assert_array_equal(reduce(tvs[1], ginv), norms[1])
        for p in at[:3]:
            alone = reduce(as_evaluated(tvs[0][p:p + 1]), ginv[p:p + 1].copy())
            np.testing.assert_array_equal(alone, norms[0][p:p + 1])


# the operands of the reduction-bits test: ranks 1-3 at d = 3-6, 300 points
# each, with the reduction's bits printed per (rank, d) by a fresh process
REDUCE_BITS = """
import hashlib, sys
import numpy as np
from solitonlab import geometry as geo
ops = np.load(sys.argv[1])
for rank, reduce in enumerate((geo.gnorm_oneform, geo.gnorm_sym2, geo.gnorm_rank3), 1):
    for d in range(3, 7):
        norms = reduce(ops[f"t{rank}_{d}"], ops[f"g{rank}_{d}"])
        print(rank, d, hashlib.sha256(norms.tobytes()).hexdigest())
"""


def test_gnorm_bits_do_not_depend_on_numpys_simd_kernels(tmp_path):
    # the reduction calls no BLAS and no kernel that the host's SIMD
    # extensions select: the same operands give the same bytes on every path
    rng = np.random.default_rng(21)
    ops = {}
    for rank in (1, 2, 3):
        for d in range(3, 7):
            ginv, tv = reduction_operands(rank, d, 300, rng)
            if rank == 2:
                tv = as_evaluated(tv + tv.transpose(0, 2, 1))
            ops[f"g{rank}_{d}"], ops[f"t{rank}_{d}"] = ginv, tv
    np.savez(tmp_path / "ops.npz", **ops)
    outs = {}
    for path, setting in SETTINGS.items():
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=setting, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
        outs[path] = subprocess.run([sys.executable, "-c", REDUCE_BITS, str(tmp_path / "ops.npz")],
                                    env=env, check=True, capture_output=True,
                                    text=True).stdout.splitlines()
    assert len(outs["X86_V4"]) == 12
    for path, lines in outs.items():
        assert lines == outs["X86_V4"], path


def test_gnorm_temporaries_are_bounded_in_terms_and_points():
    # one slab of products (256 kB) and the (N,) sums, whatever the point
    # count, and one slab for four residuals reduced in one pass
    rng = np.random.default_rng(5)
    for rank, dim, n, count in ((2, 3, 20_000, 1), (3, 4, 1024, 1), (2, 3, 20_000, 4)):
        ginv, tv = reduction_operands(rank, dim, n, rng, count)
        tracemalloc.start()
        try:
            norms = EINSUMS[rank][1](tv, ginv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(r.nbytes for r in norms) if count > 1 else norms.nbytes
        assert peak - held <= 2 * 2**20, (rank, count, peak)


def refuse_numeric_inverse(monkeypatch):
    """Make every np.linalg.inv call from now on fail the test."""
    def refused(a):
        raise AssertionError(f"np.linalg.inv called on a {np.shape(a)} array")

    monkeypatch.setattr(np.linalg, "inv", refused)


def test_gnorms_take_no_numeric_inverse_and_keep_each_residuals_bits(monkeypatch):
    chart, g = perturbed_metric(2, seed=13)
    pts = np.random.default_rng(3).uniform(-1, 1, size=(12, 2))
    T = geo.sym_rows([chart.parse("x1"), ex.ONE, chart.parse("x2^2")])
    w = [chart.parse("x1^2"), chart.parse("sin(x2)")]
    # the reduction reads the evaluated inverse_metric rows, at every rank
    refuse_numeric_inverse(monkeypatch)
    alone = [geo.gnorms(g, [r], pts)[0] for r in (T, w)]
    together = geo.gnorms(g, [T, chart.parse("x1"), w], pts)
    for got, want in zip(together[::2], alone):
        np.testing.assert_array_equal(got, want)


def test_a_faulting_metric_raises_before_any_residual():
    chart = geo.Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
    g0 = geo.MetricField(chart, geo.sym_rows([chart.parse("1/x1"), ex.ZERO, ex.ONE]))
    at_zero = np.array([[0.5, 0.5], [0.0, 0.25]])
    # the residual faults at point 0, the metric only at point 1
    early = chart.parse("ln(x2 - 0.6)")
    for residuals in ([[early, ex.ONE]], [early, [ex.ONE, ex.ONE]]):
        with pytest.raises(ex.DomainError, match="division by zero at point index 1"):
            geo.gnorms(g0, residuals, at_zero)


def test_overflowing_rank3_gnorm_is_a_domain_error_without_a_warning():
    # the components are finite at 1e200, their products in the g-norm are not
    chart, g = perturbed_metric(3, seed=4)
    T = geo.SymTensorField(chart, geo.sym2(3, lambda i, j: chart.parse(f"x{i + 1}*x{j + 1} + 2")))
    big = ex.const(1e200)
    scaled = tuple(tuple(tuple(ex.mul(big, e) for e in row) for row in m)
                   for m in geo.covariant_derivative_sym2(g, T))
    pts = np.random.default_rng(6).uniform(-1, 1, size=(30, 3))
    assert np.isfinite(geo.eval_tensors(chart, [scaled], pts)[0]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ex.DomainError, match="non-finite g-norm at point index 0"):
            geo.gnorms(g, [scaled], pts)


REDUCTIONS = {"gnorm_sym2", "gnorm_oneform", "gnorm_rank3"}


def name_uses(source, names=REDUCTIONS):
    """(enclosing function, name) for every use of one of `names`."""
    uses = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else func)
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in names:
                uses.append((func, name))
            walk(child, inner)

    walk(ast.parse(source), None)
    return uses


SRC = Path(geo.__file__).resolve().parent


def uses_in_src(names):
    return {(path.name, func) for path in sorted(SRC.glob("*.py"))
            for func, _ in name_uses(path.read_text(encoding="utf-8"), names)}


def test_only_gnorms_reduces():
    # every residual reaches gnorm_* through geometry.gnorms alone
    assert uses_in_src(REDUCTIONS) == {("geometry.py", "gnorms")}
    assert sorted(n for _, n in name_uses((SRC / "geometry.py").read_text(
        encoding="utf-8"))) == sorted(REDUCTIONS)
    assert name_uses("def f(g):\n    return geo.gnorm_oneform(1, 2)\n") == [
        ("f", "gnorm_oneform")]


def test_eval_many_callers_are_pinned():
    # every strict evaluation at sample points goes through eval_tensors; the
    # sampler's masked calls and eval_sym2_comps, which the tests and the
    # acceptance gate use on parameter-free components, are the only other callers
    assert uses_in_src({"eval_many"}) == {
        ("geometry.py", "eval_tensors"), ("geometry.py", "eval_sym2_comps"),
        ("geometry.py", "sample_points"),
    }


def test_eval_tensors_matches_the_reference_interpreter():
    # each tensor's values are the reference interpreter's, bit for bit, at
    # ranks 0-3, for a folded constant and for a chart parameter
    chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)), params=(("a", 0.7),))
    g = geo.MetricField(chart, geo.sym_rows([chart.parse("1 + a*x1^2"), ex.ZERO, ex.ONE]))
    T = geo.SymTensorField(chart, geo.sym_rows(
        [chart.parse("x1"), chart.parse("a"), chart.parse("x2^2")]))
    folded = ex.mul(ex.ZERO, chart.parse("x1*x2"))
    assert folded.kind == "const"
    tensors = [chart.parse("a*x1*x2 - 0.3"), [chart.parse("x1^2"), chart.parse("sin(a*x2)")],
               T.comps, geo.covariant_derivative_sym2(g, T), folded, [folded, ex.const(0.5)]]
    pts = np.random.default_rng(5).uniform(-1, 1, size=(9, 2))
    got = geo.eval_tensors(chart, tensors, pts)
    assert len(got) == len(tensors)
    for t, v in zip(tensors, got):
        arr = np.array(t, dtype=object)
        want = eval_checked(list(arr.flat), pts, chart.binding)
        assert v.shape == (len(pts),) + arr.shape
        np.testing.assert_array_equal(v, want.T.reshape(v.shape))
    # a rank-0 value is a contiguous row, so reductions over it see today's strides
    assert got[0].flags.c_contiguous
    # the first faulting tensor in the list names the error
    at_zero = np.array([[0.5, 0.5], [0.0, 0.25]])
    ln_x2, inv_x1 = chart.parse("ln(x2 - 0.3)"), chart.parse("1/x1")
    for first, why in ((ln_x2, "logarithm of a non-positive value at point index 1"),
                       ([[inv_x1]], "division by zero at point index 1")):
        with pytest.raises(ex.DomainError, match=why):
            geo.eval_tensors(chart, [first, [ln_x2, inv_x1]], at_zero)


def mirror_writers(source):
    """Functions that store both x[a][b] and x[b][a] for one x and a != b."""
    found = []

    def walk(node, stores):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = set()
                walk(child, inner)
                if any((x, b, a) in inner for x, a, b in inner if a != b):
                    found.append(child.name)
                continue
            if (isinstance(child, ast.Subscript) and isinstance(child.ctx, ast.Store)
                    and isinstance(child.value, ast.Subscript)):
                stores.add((ast.dump(child.value.value), ast.dump(child.value.slice),
                            ast.dump(child.slice)))
            walk(child, stores)

    walk(ast.parse(source), set())
    return sorted(found)


def test_sym2_is_the_only_mirror_writer():
    # every symmetric 2-tensor gets its lower triangle from geometry.sym2
    src = Path(geo.__file__).resolve().parent
    writers = {path.name: mirror_writers(path.read_text(encoding="utf-8"))
               for path in sorted(src.glob("*.py"))}
    assert {name: w for name, w in writers.items() if w} == {"geometry.py": ["sym2"]}
    assert mirror_writers("def f(r, i, j, v):\n    r[i][j] = r[j][i] = v\n") == ["f"]
    assert mirror_writers("def f(r, k, i, j, v):\n    r[k][i][j] = v\n"
                          "    r[k][j][i] = v\n") == ["f"]
    assert mirror_writers("def f(r, i, j, v):\n    r[i][j] = v\n    r[i][i] = v\n") == []


def binding_takers(source):
    """Functions, nested ones too, with a parameter named `binding`."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and "binding" in {a.arg for a in ast.walk(node.args)
                                    if isinstance(a, ast.arg)})


def test_parameter_values_live_on_the_chart():
    # an evaluator given a chart, or a field on one, reads the values there;
    # only the expression layer, which sees bare component arrays, takes them
    src = Path(geo.__file__).resolve().parent
    takers = {f"{path.stem}.{name}" for path in sorted(src.glob("*.py"))
              for name in binding_takers(path.read_text(encoding="utf-8"))}
    assert takers == {"expr.eval_many", "expr._run"}
    assert binding_takers("def f(g, *, binding=None):\n    pass\n") == ["f"]
    assert "binding" not in so.SolitonStructure._fields
    assert list(inspect.signature(mf.Manifest).parameters) == [
        "document", "structure", "digest"]


def test_sample_points_deterministic_and_admissible():
    space = sp.make_hyperbolic(3)
    a = geo.sample_points(space.chart, 50, seed=123)
    assert isinstance(a, np.ndarray)
    assert a.shape == (50, 3) and a.dtype == np.float64
    b = geo.sample_points(space.chart, 50, seed=123)
    assert np.array_equal(a, b)
    c = geo.sample_points(space.chart, 50, seed=124)
    assert not np.array_equal(a, c)
    assert np.all(a[:, 2] > 0.0)  # domain predicate x3 > 0


def test_sample_points_respects_domain_predicate():
    chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)),
                      domain=(ex.sub(ex.coord(0), ex.coord(1)),))
    pts = geo.sample_points(chart, 200, seed=0)
    assert pts.shape == (200, 2)
    assert np.all(pts[:, 0] > pts[:, 1])


def test_sample_points_spd_guard():
    # metric [[1,0],[0,x1]] is only positive definite for x1 > 0
    chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)))
    g = geo.MetricField(chart, geo.sym_rows([ex.ONE, ex.ZERO, ex.coord(0)]))
    pts = geo.sample_points(chart, 100, seed=1, metric=g)
    assert pts.shape == (100, 2)
    assert np.all(pts[:, 0] > 0.0)


def test_sample_points_condition_limit(monkeypatch):
    chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)))
    g = geo.MetricField(chart, geo.sym_rows([ex.ONE, ex.ZERO, ex.powi(ex.coord(0), 2)]))
    monkeypatch.setattr(geo, "_COND_LIMIT", 100.0)
    pts = geo.sample_points(chart, 100, seed=1, metric=g)
    assert pts.shape == (100, 2)
    assert np.all(np.abs(pts[:, 0]) > 0.1 - 1e-12)


def test_sample_points_exhaustion():
    chart = geo.Chart(("x1",), ((-1, 1),),
                      domain=(ex.sub(ex.coord(0), ex.const(10.0)),))
    with pytest.raises(geo.SamplingError, match="domain predicate too tight"):
        geo.sample_points(chart, 10, seed=0)
    with pytest.raises(ValueError):
        geo.sample_points(chart, 0, seed=0)


def test_sample_points_exhaustion_names_the_condition_number_cap():
    # diag(1, 1e-9) is positive definite with condition number 1e9 everywhere
    chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)))
    g = geo.MetricField(chart, geo.sym_rows([ex.ONE, ex.ZERO, ex.const(1e-9)]))
    with pytest.raises(geo.SamplingError, match="condition-number cap") as err:
        geo.sample_points(chart, 10, seed=0, metric=g)
    assert "domain predicate" not in str(err.value)


def assert_samples_as_the_full_batch_sampler(chart, count, seed, metric=None):
    """sample_points gives the full-batch reference's points, or raises its
    SamplingError with the same message."""
    try:
        want = sample_points_full_batch(chart, count, seed, metric=metric)
    except geo.SamplingError as err:
        with pytest.raises(geo.SamplingError) as got:
            geo.sample_points(chart, count, seed, metric=metric)
        assert str(got.value) == str(err)
        return str(err)
    got = geo.sample_points(chart, count, seed, metric=metric)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    return got


# the catalog's charts with their metrics; two carry a domain predicate
SAMPLED_STRUCTURES = [("space-form-gradient", {}), ("space-form-gradient", {"c": -1}),
                      ("euclidean-gradient", {}), ("pseudo-hyperbolic", {}),
                      ("pseudo-hyperbolic", {"l": 4.0}), ("neg-m-sphere", {})]


@pytest.mark.parametrize("count", [1, 200, 511, 512, 513, 20_000])
@pytest.mark.parametrize("example, params", SAMPLED_STRUCTURES,
                         ids=[f"{e}{p}" for e, p in SAMPLED_STRUCTURES])
def test_sample_points_keeps_the_full_batch_points_on_the_catalog(example, params, count):
    s = exm.build_structure(example, params)
    assert_samples_as_the_full_batch_sampler(s.chart, count, 7, s.metric)


@pytest.mark.parametrize("count", [1, 200, 511, 512, 513, 20_000])
def test_sample_points_keeps_the_full_batch_points_without_a_metric(count):
    assert_samples_as_the_full_batch_sampler(sp.make_euclidean(3).chart, count, 7)


@pytest.mark.parametrize("count", [1, 200, 511, 512, 513, 20_000])
def test_sample_points_keeps_the_full_batch_points_under_partial_acceptance(count):
    # the unit disk keeps about 79% of the box's draws, and diag(1, x1 + 0.6)
    # is positive definite on about 80% of the disk, so most batches reject
    # some of the draws tested first and go on to the rest
    chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)),
                      domain=(ex.sub(ex.ONE, ex.add(ex.powi(ex.coord(0), 2),
                                                    ex.powi(ex.coord(1), 2))),))
    g = geo.MetricField(chart, geo.sym_rows(
        [ex.ONE, ex.ZERO, ex.add(ex.coord(0), ex.const(0.6))]))
    pts = assert_samples_as_the_full_batch_sampler(chart, count, 3, g)
    assert np.all(pts[:, 0] > -0.6) and np.all(np.hypot(pts[:, 0], pts[:, 1]) < 1)


@pytest.mark.parametrize("count", [1, 10, 600])
def test_sample_points_cap_exhaustion_message_matches_the_full_batch_sampler(count):
    chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)))
    g = geo.MetricField(chart, geo.sym_rows([ex.ONE, ex.ZERO, ex.const(1e-9)]))
    assert "condition-number cap" in assert_samples_as_the_full_batch_sampler(
        chart, count, 0, g)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("with_metric", [False, True])
def test_sample_points_domain_exhaustion_message_matches_the_full_batch_sampler(
        seed, with_metric):
    # a disk of radius 0.05 keeps about 0.2% of the draws: 600 points are
    # not reached before the acceptance is checked at 1e5 draws
    chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)), domain=(ex.sub(
        ex.const(0.0025), ex.add(ex.powi(ex.coord(0), 2), ex.powi(ex.coord(1), 2))),))
    g = geo.MetricField(chart, geo.sym_rows([ex.ONE, ex.ZERO, ex.ONE]))
    assert "domain predicate" in assert_samples_as_the_full_batch_sampler(
        chart, 600, seed, g if with_metric else None)


def test_sample_points_exhaustion_counts_the_rejections_of_the_whole_last_batch(
        monkeypatch):
    # with one batch allowed, the first draw with x1 > 0.3 has x2 > 0.5 and is
    # accepted, but the batch still ends in a SamplingError: 155 draws fail the
    # predicate, and 172 of the rest fail the metric diag(1, x2 - 0.5) after it
    monkeypatch.setattr(geo, "_EXHAUSTION_DRAWS", geo._BATCH)
    chart = geo.Chart(("x1", "x2"), ((0, 1), (0, 1)),
                      domain=(ex.sub(ex.coord(0), ex.const(0.3)),))
    g = geo.MetricField(chart, geo.sym_rows(
        [ex.ONE, ex.ZERO, ex.sub(ex.coord(1), ex.const(0.5))]))
    batch = np.random.default_rng(1).uniform(np.zeros(2), np.ones(2), size=(geo._BATCH, 2))
    assert batch[batch[:, 0] > 0.3][0, 1] > 0.5
    msg = assert_samples_as_the_full_batch_sampler(chart, 1, 1, g)
    assert msg.startswith("acceptance rate 1/512 below 1%") and "condition-number cap" in msg


def test_sample_points_has_no_draw_cap():
    # every draw is accepted, so only the count bounds the draws; a cap of
    # 2,000,000 draws stopped this run at 2,000,384 points, one short
    pts = geo.sample_points(geo.Chart(("x1",), ((-1, 1),)), 2_000_385, seed=0)
    assert pts.shape == (2_000_385, 1)


def test_sample_points_makes_one_masked_call_per_batch(monkeypatch):
    # x1 > 0 keeps about half of each 512-point batch; the metric is SPD throughout
    chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)), domain=(ex.coord(0),))
    g = geo.MetricField(chart, geo.sym_rows([ex.ONE, ex.ZERO, ex.exp(ex.coord(1))]))
    calls = []
    eval_many = ex.eval_many

    def recorded(exprs, points, binding=None, mode="strict"):
        calls.append((mode, list(exprs), len(points)))
        return eval_many(exprs, points, binding, mode)

    monkeypatch.setattr(ex, "eval_many", recorded)
    pts = geo.sample_points(chart, 600, seed=0, metric=g)
    assert pts.shape == (600, 2) and np.all(pts[:, 0] > 0.0)
    roots = [ex.coord(0)] + [g.comps[i][j] for i in range(2) for j in range(2)]
    assert calls == [("masked", roots, 512)] * 3


def test_chart_parameters_drive_sampling_and_evaluation():
    a = ex.param("a")
    chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)), params=(("a", 0.5),),
                      domain=(ex.sub(ex.coord(0), a),))
    assert chart.params == (("a", 0.5),) and chart.binding == {"a": 0.5}
    pts = geo.sample_points(chart, 50, seed=0)
    assert np.all(pts[:, 0] > 0.5)
    ax2 = ex.mul(a, ex.coord(1))
    np.testing.assert_array_equal(geo.eval_scalar(geo.ScalarField(chart, ax2), pts),
                                  0.5 * pts[:, 1])
    g = geo.MetricField(chart, geo.sym_rows([a, ex.ZERO, a]))
    np.testing.assert_array_equal(geo.gnorms(g, [ax2], pts)[0], 0.5 * pts[:, 1])
    # g = a * delta, so a one-form w has |w|_g = |w| / sqrt(a)
    np.testing.assert_allclose(geo.gnorms(g, [[ex.coord(0), ex.coord(1)]], pts)[0],
                               np.hypot(pts[:, 0], pts[:, 1]) / np.sqrt(0.5))


def test_charts_differing_in_a_parameter_value_share_no_curvature():
    def sphere(r):
        chart = geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1)), params=(("r", r),))
        conf = chart.parse("4*r^4/(r^2 + x1^2 + x2^2)^2")
        return geo.MetricField(chart, geo.sym_rows([conf, ex.ZERO, conf]))

    g1, g2 = sphere(1.0), sphere(2.0)
    assert g1.comps == g2.comps and g1.chart != g2.chart and g1 != g2
    pts = geo.sample_points(g1.chart, 20, seed=0)
    # the radius-1 curvature is cached first; radius 2 must not be served it
    for g, r in ((g1, 1.0), (g2, 2.0)):
        R = geo.scalar_curvature(g)
        assert R.chart is g.chart
        np.testing.assert_allclose(geo.eval_scalar(R, pts), 2.0 / r ** 2, rtol=1e-12)


def test_points_array_forms():
    pts = geo.points_array([(1, 2.0), np.array([3.0, 4.0])])
    np.testing.assert_allclose(pts, [[1.0, 2.0], [3.0, 4.0]])
    assert pts.dtype == np.float64
    arr = np.array([5.0, 6.0])
    assert geo.points_array(arr).shape == (1, 2)
    sample = geo.sample_points(geo.Chart(("x1", "x2"), ((-1, 1), (-1, 1))), 4, seed=0)
    assert np.array_equal(geo.points_array(sample), sample)
