"""Coordinate charts and the curvature calculus over exact expressions.

Every field type is a frozen dataclass holding interned Expressions, so the
symbolic operators (Christoffel symbols, Ricci, divergences, ...) are pure
functions of their inputs and memoized with lru_cache.  Derived fields are
themselves Expression arrays: anything computed here can be differentiated
again exactly, which the structural identity checks rely on (they take
exterior derivatives of quantities that already contain two derivatives of
the metric).

Vector fields are stored contravariantly, one-forms covariantly; symmetric
tensors store the full matrix with mirrored upper-triangle nodes, so stored
symmetry is exact by construction.  Residual magnitudes use the g-norm
sqrt(g^{ik} g^{jl} T_ij T_kl), evaluated with numpy over point batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import expr as ex


class GeometryError(Exception):
    """Base class for chart/metric/sampling errors."""


class SamplingError(GeometryError):
    """Rejection sampling could not produce enough admissible points."""


class DegeneratePlaneError(GeometryError):
    """Sectional curvature requested for a degenerate 2-plane."""


@dataclass(frozen=True)
class Chart:
    """Coordinate chart: names, sampling box, domain predicate, parameters.

    Domain predicate expressions are required to be > 0 at admissible points.
    """

    coords: tuple
    box: tuple
    domain: tuple = ()
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        object.__setattr__(self, "box", tuple(tuple(b) for b in self.box))
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "params", tuple(self.params))
        ex.check_names(self.coords, self.params)
        if len(self.coords) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(self.box) != len(self.coords):
            raise ValueError("sampling box must have one interval per coordinate")
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"degenerate box interval ({lo}, {hi})")
        for e in self.domain:
            if not ex.free_coords(e) <= set(range(self.dim)):
                raise ValueError("domain predicate references unknown coordinates")
            if not ex.free_params(e) <= set(self.params):
                raise ValueError("domain predicate references undeclared parameters")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def parse(self, text: str) -> ex.Expression:
        return ex.parse_expression(text, self.coords, self.params)

    def text(self, e: ex.Expression) -> str:
        return ex.to_text(e, self.coords)

    def coord_exprs(self):
        return tuple(ex.coord(i) for i in range(self.dim))


def _as_tuple_matrix(rows):
    return tuple(tuple(r) for r in rows)


def _check_square_sym(comps, n, what):
    if len(comps) != n or any(len(r) != n for r in comps):
        raise ValueError(f"{what} must be an {n}x{n} array")
    for i in range(n):
        for j in range(i + 1, n):
            if comps[i][j] is not comps[j][i]:
                raise ValueError(f"{what} must be stored symmetrically (use sym_rows)")


def sym_rows(entries):
    """Build full symmetric rows from upper-triangle row-major entries.

    For n coordinates, `entries` has n(n+1)/2 expressions ordered
    (0,0), (0,1), ..., (0,n-1), (1,1), ..., (n-1,n-1); the lower triangle
    mirrors the same interned nodes.
    """
    entries = [e if isinstance(e, ex.Expression) else ex.const(e) for e in entries]
    count = len(entries)
    n = int((np.sqrt(8 * count + 1) - 1) / 2)
    if n * (n + 1) // 2 != count:
        raise ValueError(f"{count} entries is not an upper triangle count n(n+1)/2")
    rows = [[None] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            e = next(it)
            rows[i][j] = e
            rows[j][i] = e
    return _as_tuple_matrix(rows)


@dataclass(frozen=True)
class ScalarField:
    chart: Chart
    expr: ex.Expression


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    comps: tuple

    def __post_init__(self):
        object.__setattr__(self, "comps", tuple(self.comps))
        if len(self.comps) != self.chart.dim:
            raise ValueError("vector field needs one component per coordinate")


@dataclass(frozen=True)
class OneFormField:
    chart: Chart
    comps: tuple

    def __post_init__(self):
        object.__setattr__(self, "comps", tuple(self.comps))
        if len(self.comps) != self.chart.dim:
            raise ValueError("one-form needs one component per coordinate")


@dataclass(frozen=True)
class SymTensorField:
    chart: Chart
    comps: tuple

    def __post_init__(self):
        object.__setattr__(self, "comps", _as_tuple_matrix(self.comps))
        _check_square_sym(self.comps, self.chart.dim, "symmetric tensor")


@dataclass(frozen=True)
class MetricField:
    chart: Chart
    comps: tuple

    def __post_init__(self):
        object.__setattr__(self, "comps", _as_tuple_matrix(self.comps))
        _check_square_sym(self.comps, self.chart.dim, "metric")


@dataclass(frozen=True)
class PointSample:
    coords: tuple
    admissible: bool = True

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))


def points_array(points) -> np.ndarray:
    """(N, n) float array from PointSamples, sequences, or an ndarray."""
    if isinstance(points, np.ndarray):
        return np.atleast_2d(np.asarray(points, dtype=float))
    rows = []
    for p in points:
        rows.append(p.coords if isinstance(p, PointSample) else tuple(p))
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# symbolic linear algebra


def _det(rows, idx_rows, idx_cols, memo):
    key = (idx_rows, idx_cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if len(idx_rows) == 1:
        d = rows[idx_rows[0]][idx_cols[0]]
    else:
        r = idx_rows[0]
        rest = idx_rows[1:]
        terms = []
        for pos, c in enumerate(idx_cols):
            entry = rows[r][c]
            sub_cols = idx_cols[:pos] + idx_cols[pos + 1:]
            minor = _det(rows, rest, sub_cols, memo)
            t = ex.mul(entry, minor)
            terms.append(t if pos % 2 == 0 else ex.neg(t))
        d = ex.nsum(terms)
    memo[key] = d
    return d


@lru_cache(maxsize=None)
def metric_determinant(g: MetricField) -> ScalarField:
    n = g.chart.dim
    idx = tuple(range(n))
    return ScalarField(g.chart, _det(g.comps, idx, idx, {}))


@lru_cache(maxsize=None)
def inverse_metric(g: MetricField):
    """Contravariant components g^{ij} as an n x n symmetric expression array."""
    n = g.chart.dim
    idx = tuple(range(n))
    memo: dict = {}
    det = _det(g.comps, idx, idx, memo)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sub_rows = tuple(r for r in idx if r != j)
            sub_cols = tuple(c for c in idx if c != i)
            cof = _det(g.comps, sub_rows, sub_cols, memo) if n > 1 else ex.ONE
            if (i + j) % 2:
                cof = ex.neg(cof)
            entry = ex.div(cof, det)
            rows[i][j] = entry
            rows[j][i] = entry
    return _as_tuple_matrix(rows)


# ---------------------------------------------------------------------------
# curvature operators


@lru_cache(maxsize=None)
def christoffel(g: MetricField):
    """Levi-Civita coefficients Gamma[k][i][j] = ½ g^{kl}(∂_i g_lj + ∂_j g_li − ∂_l g_ij)."""
    n = g.chart.dim
    inv = inverse_metric(g)
    dg = [[[ex.differentiate(g.comps[i][j], a) for j in range(n)] for i in range(n)] for a in range(n)]
    half = ex.const(0.5)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                terms = []
                for l in range(n):
                    bracket = ex.sub(ex.add(dg[i][l][j], dg[j][l][i]), dg[l][i][j])
                    terms.append(ex.mul(inv[k][l], bracket))
                val = ex.mul(half, ex.nsum(terms))
                gamma[k][i][j] = val
                gamma[k][j][i] = val
    return tuple(_as_tuple_matrix(m) for m in gamma)


@lru_cache(maxsize=None)
def ricci(g: MetricField) -> SymTensorField:
    """Ric_jk = ∂_iΓ^i_jk − ∂_jΓ^i_ik + Γ^i_ipΓ^p_jk − Γ^i_jpΓ^p_ik."""
    n = g.chart.dim
    gam = christoffel(g)
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            t1 = ex.nsum(ex.differentiate(gam[i][j][k], i) for i in range(n))
            t2 = ex.nsum(ex.differentiate(gam[i][i][k], j) for i in range(n))
            t3 = ex.nsum(ex.mul(gam[i][i][p], gam[p][j][k]) for i in range(n) for p in range(n))
            t4 = ex.nsum(ex.mul(gam[i][j][p], gam[p][i][k]) for i in range(n) for p in range(n))
            val = ex.sub(ex.add(ex.sub(t1, t2), t3), t4)
            rows[j][k] = val
            rows[k][j] = val
    return SymTensorField(g.chart, rows)


@lru_cache(maxsize=None)
def scalar_curvature(g: MetricField) -> ScalarField:
    n = g.chart.dim
    inv = inverse_metric(g)
    ric = ricci(g).comps
    r = ex.nsum(ex.mul(inv[j][k], ric[j][k]) for j in range(n) for k in range(n))
    return ScalarField(g.chart, r)


@lru_cache(maxsize=None)
def riemann_up(g: MetricField):
    """R[l][k][i][j]: component along ∂_l of R(∂_i, ∂_j)∂_k."""
    n = g.chart.dim
    gam = christoffel(g)
    out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    t1 = ex.differentiate(gam[l][j][k], i)
                    t2 = ex.differentiate(gam[l][i][k], j)
                    t3 = ex.nsum(ex.mul(gam[l][i][p], gam[p][j][k]) for p in range(n))
                    t4 = ex.nsum(ex.mul(gam[l][j][p], gam[p][i][k]) for p in range(n))
                    out[l][k][i][j] = ex.sub(ex.add(ex.sub(t1, t2), t3), t4)
    return tuple(tuple(tuple(tuple(r) for r in m) for m in b) for b in out)


def riemann_sectional(g: MetricField, p, u, v, binding=None) -> float:
    """Sectional curvature of span(u, v) at the point p."""
    n = g.chart.dim
    pt = points_array([p])
    gv = eval_sym2_comps(g.comps, pt, g.chart, binding)[0]
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    uu = u @ gv @ u
    vv = v @ gv @ v
    uv = u @ gv @ v
    denom = uu * vv - uv * uv
    if denom <= 1e-12:
        raise DegeneratePlaneError("plane is degenerate at the given point")
    rup = riemann_up(g)
    flat = [rup[l][k][i][j] for l in range(n) for k in range(n) for i in range(n) for j in range(n)]
    rv = ex.eval_many(flat, pt, binding)[:, 0].reshape(n, n, n, n)
    # g(R(u,v)v, u) with R(u,v)w = u^i v^j w^k R[l][k][i][j] ∂_l
    rw = np.einsum("lkij,i,j,k->l", rv, u, v, v)
    num = rw @ gv @ u
    return float(num / denom)


def gradient(g: MetricField, phi: ScalarField) -> VectorField:
    n = g.chart.dim
    inv = inverse_metric(g)
    dphi = [ex.differentiate(phi.expr, j) for j in range(n)]
    comps = [ex.nsum(ex.mul(inv[i][j], dphi[j]) for j in range(n)) for i in range(n)]
    return VectorField(g.chart, comps)


@lru_cache(maxsize=None)
def hessian(g: MetricField, phi: ScalarField) -> SymTensorField:
    """∇²φ_ij = ∂_i∂_jφ − Γ^k_ij ∂_kφ."""
    n = g.chart.dim
    gam = christoffel(g)
    dphi = [ex.differentiate(phi.expr, k) for k in range(n)]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            second = ex.differentiate(dphi[j], i)
            corr = ex.nsum(ex.mul(gam[k][i][j], dphi[k]) for k in range(n))
            val = ex.sub(second, corr)
            rows[i][j] = val
            rows[j][i] = val
    return SymTensorField(g.chart, rows)


def laplacian(g: MetricField, phi: ScalarField) -> ScalarField:
    return trace(g, hessian(g, phi))


def lie_derivative_metric(g: MetricField, X: VectorField) -> SymTensorField:
    """(L_X g)_ij = X^k ∂_k g_ij + g_kj ∂_i X^k + g_ik ∂_j X^k."""
    n = g.chart.dim
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t1 = ex.nsum(ex.mul(X.comps[k], ex.differentiate(g.comps[i][j], k)) for k in range(n))
            t2 = ex.nsum(ex.mul(g.comps[k][j], ex.differentiate(X.comps[k], i)) for k in range(n))
            t3 = ex.nsum(ex.mul(g.comps[i][k], ex.differentiate(X.comps[k], j)) for k in range(n))
            val = ex.add(ex.add(t1, t2), t3)
            rows[i][j] = val
            rows[j][i] = val
    return SymTensorField(g.chart, rows)


def divergence_vector(g: MetricField, X: VectorField) -> ScalarField:
    """div X = ∂_i X^i + Γ^i_ik X^k."""
    n = g.chart.dim
    gam = christoffel(g)
    t1 = ex.nsum(ex.differentiate(X.comps[i], i) for i in range(n))
    t2 = ex.nsum(ex.mul(gam[i][i][k], X.comps[k]) for i in range(n) for k in range(n))
    return ScalarField(g.chart, ex.add(t1, t2))


def covariant_derivative_sym2(g: MetricField, T: SymTensorField):
    """∇_a T_ij as a rank-(0,3) nested tuple D[a][i][j]."""
    n = g.chart.dim
    gam = christoffel(g)
    out = []
    for a in range(n):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                d = ex.differentiate(T.comps[i][j], a)
                c1 = ex.nsum(ex.mul(gam[p][a][i], T.comps[p][j]) for p in range(n))
                c2 = ex.nsum(ex.mul(gam[p][a][j], T.comps[i][p]) for p in range(n))
                row.append(ex.sub(ex.sub(d, c1), c2))
            rows.append(tuple(row))
        out.append(tuple(rows))
    return tuple(out)


def divergence_sym2(g: MetricField, T: SymTensorField) -> OneFormField:
    """(div T)_j = g^{ik} ∇_i T_kj."""
    n = g.chart.dim
    inv = inverse_metric(g)
    D = covariant_derivative_sym2(g, T)
    comps = [
        ex.nsum(ex.mul(inv[i][k], D[i][k][j]) for i in range(n) for k in range(n))
        for j in range(n)
    ]
    return OneFormField(g.chart, comps)


def trace(g: MetricField, T: SymTensorField) -> ScalarField:
    n = g.chart.dim
    inv = inverse_metric(g)
    return ScalarField(g.chart, ex.nsum(ex.mul(inv[i][j], T.comps[i][j]) for i in range(n) for j in range(n)))


def traceless(g: MetricField, T: SymTensorField) -> SymTensorField:
    n = g.chart.dim
    tr_over_n = ex.div(trace(g, T).expr, ex.const(n))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = ex.sub(T.comps[i][j], ex.mul(tr_over_n, g.comps[i][j]))
            rows[i][j] = val
            rows[j][i] = val
    return SymTensorField(g.chart, rows)


def tensor_inner(g: MetricField, A: SymTensorField, B: SymTensorField) -> ScalarField:
    """⟨A, B⟩ = g^{ik} g^{jl} A_ij B_kl."""
    n = g.chart.dim
    inv = inverse_metric(g)
    terms = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    terms.append(ex.mul(ex.mul(inv[i][k], inv[j][l]), ex.mul(A.comps[i][j], B.comps[k][l])))
    return ScalarField(g.chart, ex.nsum(terms))


def tensor_norm(g: MetricField, T: SymTensorField, p, binding=None) -> float:
    pt = points_array([p])
    gv = eval_sym2_comps(g.comps, pt, g.chart, binding)
    tv = eval_sym2_comps(T.comps, pt, g.chart, binding)
    return float(gnorm_sym2(tv, np.linalg.inv(gv))[0])


def grad_norm2(g: MetricField, phi: ScalarField) -> ScalarField:
    """|grad phi|^2 = g^{ij} ∂_i phi ∂_j phi."""
    n = g.chart.dim
    inv = inverse_metric(g)
    dphi = [ex.differentiate(phi.expr, i) for i in range(n)]
    return ScalarField(g.chart, ex.nsum(
        ex.mul(ex.mul(inv[i][j], dphi[i]), dphi[j]) for i in range(n) for j in range(n)
    ))


def covariant_derivative_vector(g: MetricField, X: VectorField):
    """Lowered covariant derivative (∇X)_ij = g_jk ∇_i X^k, as rows[i][j]."""
    n = g.chart.dim
    gam = christoffel(g)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = []
            for k in range(n):
                covk = ex.add(ex.differentiate(X.comps[k], i),
                              ex.nsum(ex.mul(gam[k][i][p], X.comps[p]) for p in range(n)))
                terms.append(ex.mul(g.comps[j][k], covk))
            row.append(ex.nsum(terms))
        rows.append(tuple(row))
    return tuple(rows)


def inner_rank2(g: MetricField, A, B) -> ScalarField:
    """⟨A, B⟩ = g^{ik} g^{jl} A_ij B_kl for general rank-2 component arrays."""
    n = g.chart.dim
    inv = inverse_metric(g)
    a = A.comps if hasattr(A, "comps") else A
    b = B.comps if hasattr(B, "comps") else B
    terms = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    terms.append(ex.mul(ex.mul(inv[i][k], inv[j][l]), ex.mul(a[i][j], b[k][l])))
    return ScalarField(g.chart, ex.nsum(terms))


def vector_to_oneform(g: MetricField, X: VectorField) -> OneFormField:
    n = g.chart.dim
    return OneFormField(g.chart, [
        ex.nsum(ex.mul(g.comps[i][j], X.comps[j]) for j in range(n)) for i in range(n)
    ])


def oneform_to_vector(g: MetricField, w: OneFormField) -> VectorField:
    n = g.chart.dim
    inv = inverse_metric(g)
    return VectorField(g.chart, [
        ex.nsum(ex.mul(inv[i][j], w.comps[j]) for j in range(n)) for i in range(n)
    ])


def sym2_apply(g: MetricField, T: SymTensorField, X: VectorField) -> VectorField:
    """The vector T(X)^i = g^{ik} T_kj X^j."""
    n = g.chart.dim
    inv = inverse_metric(g)
    comps = []
    for i in range(n):
        comps.append(ex.nsum(
            ex.mul(ex.mul(inv[i][k], T.comps[k][j]), X.comps[j])
            for k in range(n) for j in range(n)
        ))
    return VectorField(g.chart, comps)


# ---------------------------------------------------------------------------
# numeric evaluation over batches


def eval_scalar(f: ScalarField, points, binding=None) -> np.ndarray:
    pts = points_array(points)
    return ex.eval_many([f.expr], pts, binding)[0]


def eval_components(comps, points, chart: Chart, binding=None) -> np.ndarray:
    """(N, k) array for a flat sequence of k expressions."""
    pts = points_array(points)
    return ex.eval_many(list(comps), pts, binding).T


def eval_sym2_comps(comps, points, chart: Chart, binding=None) -> np.ndarray:
    """(N, n, n) array for an n x n nested tuple of expressions."""
    n = len(comps)
    flat = [comps[i][j] for i in range(n) for j in range(n)]
    pts = points_array(points)
    vals = ex.eval_many(flat, pts, binding)
    return vals.T.reshape(-1, n, n)


def eval_metric(g: MetricField, points, binding=None):
    """Metric values and numeric inverses: pair of (N, n, n) arrays."""
    gv = eval_sym2_comps(g.comps, points, g.chart, binding)
    return gv, np.linalg.inv(gv)


def gnorm_sym2(tv: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    sq = np.einsum("nik,njl,nij,nkl->n", ginv, ginv, tv, tv)
    return np.sqrt(np.clip(sq, 0.0, None))


def gnorm_oneform(wv: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    sq = np.einsum("nij,ni,nj->n", ginv, wv, wv)
    return np.sqrt(np.clip(sq, 0.0, None))


def gnorm_rank3(av: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    sq = np.einsum("nad,nbe,ncf,nabc,ndef->n", ginv, ginv, ginv, av, av)
    return np.sqrt(np.clip(sq, 0.0, None))


# ---------------------------------------------------------------------------
# sampling

_BATCH = 512
_MAX_DRAWS = 2_000_000
_EXHAUSTION_DRAWS = 100_000
_EXHAUSTION_RATE = 0.01
_COND_LIMIT = 1e8


def sample_points(chart: Chart, count: int, seed: int, *, metric: MetricField = None,
                  binding=None, cond_limit: float = _COND_LIMIT):
    """Deterministic rejection sampling of admissible chart points.

    Draws uniformly from the chart box, keeps points where every domain
    predicate is > 0 and (when `metric` is given) the metric matrix is
    positive definite with condition number below `cond_limit`.  Raises
    SamplingError when acceptance stays under 1% after 1e5 draws.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = chart.dim
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    rng = np.random.default_rng(seed)
    out = []
    drawn = 0
    while len(out) < count:
        if drawn >= _MAX_DRAWS:
            raise SamplingError(
                f"sampling exhausted after {drawn} draws ({len(out)}/{count} accepted)"
            )
        batch = rng.uniform(lo, hi, size=(_BATCH, n))
        drawn += _BATCH
        ok = np.ones(_BATCH, dtype=bool)
        if chart.domain:
            vals, valid = ex.eval_many(list(chart.domain), batch, binding, mode="masked")
            ok &= valid
            with np.errstate(invalid="ignore"):
                ok &= np.all(vals > 0.0, axis=0)
        if metric is not None and np.any(ok):
            flat = [metric.comps[i][j] for i in range(n) for j in range(n)]
            gv, gvalid = ex.eval_many(flat, batch, binding, mode="masked")
            ok &= gvalid
            idx = np.nonzero(ok)[0]
            if idx.size:
                mats = gv[:, idx].T.reshape(-1, n, n)
                eig = np.linalg.eigvalsh(mats)
                good = (eig[:, 0] > 0.0) & (eig[:, -1] < cond_limit * eig[:, 0])
                bad_idx = idx[~good]
                ok[bad_idx] = False
        for row in batch[ok]:
            out.append(PointSample(tuple(row)))
            if len(out) == count:
                break
        if drawn >= _EXHAUSTION_DRAWS and len(out) < max(1, _EXHAUSTION_RATE * drawn):
            raise SamplingError(
                f"acceptance rate {len(out)}/{drawn} below 1% — domain predicate "
                "too tight for the sampling box"
            )
    return out
