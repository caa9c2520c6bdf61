"""Coordinate charts and the curvature calculus over exact expressions.

Every field type is a frozen record holding interned Expressions, so the
symbolic operators (Christoffel symbols, Ricci, divergences, ...) are pure
functions of their inputs.  Every operator that builds symbols (determinant,
inverse, Christoffel symbols, Riemann, Ricci, scalar curvature, gradients,
Hessians, Laplacians, Lie derivatives, divergences, traces, inner products,
...) is memoized with lru_cache on those inputs, so a repeated call returns
the object it built the first time; its result is a frozen field or nested
tuples, so no caller can change it.  Each cache grows only with distinct
inputs, as the node tables do.  Derived fields are
themselves Expression arrays: anything computed here can be differentiated
again exactly, which the structural identity checks rely on (they take
exterior derivatives of quantities that already contain two derivatives of
the metric).

Vector fields are stored contravariantly, one-forms covariantly; symmetric
tensors store the full matrix with mirrored upper-triangle nodes, so stored
symmetry is exact by construction.  `sym2` is the one place that storage
rule is written: every symmetric 2-tensor in the package is built by it.
`eval_tensors`, the one strict evaluator, evaluates rank-0 to rank-3 tensors
at the points in one pass; `gnorms`, the one reduction, evaluates the metric
and a list of residuals through it and returns their g-norms, sqrt(g^{ik}
g^{jl} T_ij T_kl) at rank 2 and alike at ranks 1 and 3; a rank-0 residual's
values come back signed.  A command reduces each point set in one gnorms
call, so it inverts each metric once per point set.  The g-norms are
two-operand np.einsum chains over blocks of points (_gnorm), with no BLAS
call, so their bits do not depend on the host's SIMD kernels; the rank-2
chain, Σ_ij A_ij A_ji with A = g⁻¹T, is the g-norm of a symmetric T, as
`sym2` builds them all.
`sample_points` filters each seeded batch with one masked pass over the
domain predicates and the metric, then eigen-tests the metric at as many
admissible draws as it still wants, and at the rest only when one fails.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from . import expr as ex


class GeometryError(Exception):
    """Base class for chart/metric/sampling errors."""


class SamplingError(GeometryError):
    """Rejection sampling could not produce enough admissible points."""


class Frozen:
    """Base of the immutable value records, the ones that key the lru_caches.

    A subclass names its fields, in order, in `_fields`, and its __init__
    sets them once with `vars(self).update`.  Two records are equal when they
    are of one class and their fields are equal, and then they hash alike;
    assigning to or deleting an attribute raises AttributeError.  The fields
    never change, so a record's hash is computed at its first use and kept.
    """

    _fields = ()
    _hash = None

    def __init_subclass__(cls):
        # not a descriptor: self._key(self) is the tuple of field values
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = vars(self)["_hash"] = hash(self._key(self))
        return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Chart(Frozen):
    """Coordinate chart: names, sampling box, domain predicate, parameters.

    `params` holds each named parameter with its value, as sorted
    (name, value) pairs; `binding` is the same as a dict.  The chart is the
    one home of these values: every evaluator that is given a chart, or a
    field on one, reads them from here.  So two charts that differ in one
    value are unequal, and share no cached curvature.
    A value is a float, or an (N,) float array of lanes: one value per point
    of the N that the chart is evaluated at, as the identity suites bind
    several metrics of one shape in one pass.  A chart with lanes is only
    evaluated on: it neither hashes nor compares, so build curvature on a
    chart with float values.
    Domain predicate expressions are required to be > 0 at admissible points.
    """

    _fields = ("coords", "box", "domain", "params")

    def __init__(self, coords, box, domain=(), params=()):
        vars(self).update(
            coords=tuple(coords), box=tuple(tuple(b) for b in box), domain=tuple(domain),
            params=tuple(sorted(
                # a float passes as it is: suite charts carry 60-315 of them
                ((k, v if type(v) is float else float(v) if np.ndim(v) == 0
                  else np.asarray(v, dtype=float))
                 for k, v in params), key=lambda kv: kv[0])))
        ex.check_names(self.coords, [k for k, _ in self.params])
        if len(self.coords) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(self.box) != len(self.coords):
            raise ValueError("sampling box must have one interval per coordinate")
        for lo, hi in self.box:
            # the sampler draws lo + (hi - lo) * U, so the width must be finite too
            if not (lo < hi and np.isfinite(float(hi) - float(lo))):
                raise ValueError(f"box interval ({lo}, {hi}) must have lo < hi "
                                 "and a finite width")
        for e in self.domain:
            if not ex.free_coords(e) <= set(range(self.dim)):
                raise ValueError("domain predicate references unknown coordinates")
            if not ex.free_params(e) <= self.binding.keys():
                raise ValueError("domain predicate references undeclared parameters")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def binding(self) -> dict:
        return dict(self.params)

    def parse(self, text: str) -> ex.Expression:
        return ex.parse_expression(text, self.coords, self.binding)

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
                raise ValueError(
                    f"{what} must be stored symmetrically (use sym2 or sym_rows)")


def sym2(n, entry):
    """n x n symmetric rows with entry(i, j) at (i, j) and (j, i).

    `entry` is called once for each i <= j, in row-major order over the upper
    triangle, and the lower triangle holds the same node.
    """
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry(i, j)
    return _as_tuple_matrix(rows)


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
    it = iter(entries)
    return sym2(n, lambda i, j: next(it))


class ScalarField(Frozen):
    _fields = ("chart", "expr")

    def __init__(self, chart: Chart, expr: ex.Expression):
        vars(self).update(chart=chart, expr=expr)


class VectorField(Frozen):
    _fields = ("chart", "comps")

    def __init__(self, chart: Chart, comps):
        vars(self).update(chart=chart, comps=tuple(comps))
        if len(self.comps) != chart.dim:
            raise ValueError("vector field needs one component per coordinate")


class OneFormField(Frozen):
    _fields = ("chart", "comps")

    def __init__(self, chart: Chart, comps):
        vars(self).update(chart=chart, comps=tuple(comps))
        if len(self.comps) != chart.dim:
            raise ValueError("one-form needs one component per coordinate")


class SymTensorField(Frozen):
    _fields = ("chart", "comps")

    def __init__(self, chart: Chart, comps):
        vars(self).update(chart=chart, comps=_as_tuple_matrix(comps))
        _check_square_sym(self.comps, chart.dim, "symmetric tensor")


class MetricField(Frozen):
    _fields = ("chart", "comps")

    def __init__(self, chart: Chart, comps):
        vars(self).update(chart=chart, comps=_as_tuple_matrix(comps))
        _check_square_sym(self.comps, chart.dim, "metric")


def points_array(points) -> np.ndarray:
    """(N, n) float array from an array or a sequence of coordinate rows."""
    return np.atleast_2d(np.asarray(points, dtype=float))


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
            if entry is ex.ZERO:  # its term folds to ZERO: skip the minor
                terms.append(ex.ZERO)
                continue
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

    def entry(i, j):
        sub_rows = tuple(r for r in idx if r != j)
        sub_cols = tuple(c for c in idx if c != i)
        cof = _det(g.comps, sub_rows, sub_cols, memo) if n > 1 else ex.ONE
        if (i + j) % 2:
            cof = ex.neg(cof)
        return ex.div(cof, det)

    return sym2(n, entry)


# ---------------------------------------------------------------------------
# curvature operators


@lru_cache(maxsize=None)
def christoffel(g: MetricField):
    """Levi-Civita coefficients Gamma[k][i][j] = ½ g^{kl}(∂_i g_lj + ∂_j g_li − ∂_l g_ij)."""
    n = g.chart.dim
    inv = inverse_metric(g)
    dg = [[[ex.differentiate(g.comps[i][j], a) for j in range(n)] for i in range(n)] for a in range(n)]
    half = ex.const(0.5)

    def gamma(k, i, j):
        terms = []
        for l in range(n):
            bracket = ex.sub(ex.add(dg[i][l][j], dg[j][l][i]), dg[l][i][j])
            terms.append(ex.mul(inv[k][l], bracket))
        return ex.mul(half, ex.nsum(terms))

    return tuple(sym2(n, lambda i, j: gamma(k, i, j)) for k in range(n))


@lru_cache(maxsize=None)
def ricci(g: MetricField) -> SymTensorField:
    """Ric_jk = ∂_iΓ^i_jk − ∂_jΓ^i_ik + Γ^i_ipΓ^p_jk − Γ^i_jpΓ^p_ik."""
    n = g.chart.dim
    gam = christoffel(g)

    def entry(j, k):
        t1 = ex.nsum(ex.differentiate(gam[i][j][k], i) for i in range(n))
        t2 = ex.nsum(ex.differentiate(gam[i][i][k], j) for i in range(n))
        t3 = ex.nsum(ex.mul(gam[i][i][p], gam[p][j][k]) for i in range(n) for p in range(n))
        t4 = ex.nsum(ex.mul(gam[i][j][p], gam[p][i][k]) for i in range(n) for p in range(n))
        return ex.sub(ex.add(ex.sub(t1, t2), t3), t4)

    return SymTensorField(g.chart, sym2(n, entry))


@lru_cache(maxsize=None)
def scalar_curvature(g: MetricField) -> ScalarField:
    return trace(g, ricci(g))


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


@lru_cache(maxsize=None)
def gradient(g: MetricField, phi: ScalarField) -> VectorField:
    dphi = [ex.differentiate(phi.expr, j) for j in range(g.chart.dim)]
    return oneform_to_vector(g, OneFormField(g.chart, dphi))


@lru_cache(maxsize=None)
def hessian(g: MetricField, phi: ScalarField) -> SymTensorField:
    """∇²φ_ij = ∂_i∂_jφ − Γ^k_ij ∂_kφ."""
    n = g.chart.dim
    gam = christoffel(g)
    dphi = [ex.differentiate(phi.expr, k) for k in range(n)]

    def entry(i, j):
        second = ex.differentiate(dphi[j], i)
        corr = ex.nsum(ex.mul(gam[k][i][j], dphi[k]) for k in range(n))
        return ex.sub(second, corr)

    return SymTensorField(g.chart, sym2(n, entry))


@lru_cache(maxsize=None)
def laplacian(g: MetricField, phi: ScalarField) -> ScalarField:
    return trace(g, hessian(g, phi))


@lru_cache(maxsize=None)
def lie_derivative_metric(g: MetricField, X: VectorField) -> SymTensorField:
    """(L_X g)_ij = X^k ∂_k g_ij + g_kj ∂_i X^k + g_ik ∂_j X^k."""
    n = g.chart.dim

    def entry(i, j):
        t1 = ex.nsum(ex.mul(X.comps[k], ex.differentiate(g.comps[i][j], k)) for k in range(n))
        t2 = ex.nsum(ex.mul(g.comps[k][j], ex.differentiate(X.comps[k], i)) for k in range(n))
        t3 = ex.nsum(ex.mul(g.comps[i][k], ex.differentiate(X.comps[k], j)) for k in range(n))
        return ex.add(ex.add(t1, t2), t3)

    return SymTensorField(g.chart, sym2(n, entry))


@lru_cache(maxsize=None)
def half_lie_derivative_metric(g: MetricField, X: VectorField) -> SymTensorField:
    """½ L_X g, the X-term of the soliton equation for h = 1."""
    n = g.chart.dim
    L = lie_derivative_metric(g, X)
    half = ex.const(0.5)
    return SymTensorField(g.chart, sym2(n, lambda i, j: ex.mul(half, L.comps[i][j])))


@lru_cache(maxsize=None)
def divergence_vector(g: MetricField, X: VectorField) -> ScalarField:
    """div X = ∂_i X^i + Γ^i_ik X^k."""
    n = g.chart.dim
    gam = christoffel(g)
    t1 = ex.nsum(ex.differentiate(X.comps[i], i) for i in range(n))
    t2 = ex.nsum(ex.mul(gam[i][i][k], X.comps[k]) for i in range(n) for k in range(n))
    return ScalarField(g.chart, ex.add(t1, t2))


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def trace(g: MetricField, T: SymTensorField) -> ScalarField:
    n = g.chart.dim
    inv = inverse_metric(g)
    return ScalarField(g.chart, ex.nsum(ex.mul(inv[i][j], T.comps[i][j]) for i in range(n) for j in range(n)))


@lru_cache(maxsize=None)
def traceless(g: MetricField, T: SymTensorField) -> SymTensorField:
    n = g.chart.dim
    tr_over_n = ex.div(trace(g, T).expr, ex.const(n))
    return SymTensorField(g.chart, sym2(n, lambda i, j: ex.sub(
        T.comps[i][j], ex.mul(tr_over_n, g.comps[i][j]))))


@lru_cache(maxsize=None)
def grad_norm2(g: MetricField, phi: ScalarField) -> ScalarField:
    """|grad phi|^2 = g^{ij} ∂_i phi ∂_j phi."""
    n = g.chart.dim
    inv = inverse_metric(g)
    dphi = [ex.differentiate(phi.expr, i) for i in range(n)]
    return ScalarField(g.chart, ex.nsum(
        ex.mul(ex.mul(inv[i][j], dphi[i]), dphi[j]) for i in range(n) for j in range(n)
    ))


@lru_cache(maxsize=None)
def covariant_derivative_vector(g: MetricField, X: VectorField):
    """Lowered covariant derivative (∇X)_ij = g_jk ∇_i X^k, as rows[i][j]."""
    n = g.chart.dim
    gam = christoffel(g)

    def row(i):  # ∇_i X^k = ∂_i X^k + Γ^k_ip X^p, lowered
        cov = [ex.add(ex.differentiate(X.comps[k], i),
                      ex.nsum(ex.mul(gam[k][i][p], X.comps[p]) for p in range(n)))
               for k in range(n)]
        return vector_to_oneform(g, VectorField(g.chart, cov)).comps

    return tuple(row(i) for i in range(n))


@lru_cache(maxsize=None)
def inner_rank2(g: MetricField, A, B) -> ScalarField:
    """⟨A, B⟩ = g^{ik} g^{jl} A_ij B_kl for rank-2 fields or nested n-tuples."""
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


# the symmetric case of inner_rank2; perfbench/tracer.py wraps this name too
tensor_inner = inner_rank2


@lru_cache(maxsize=None)
def vector_to_oneform(g: MetricField, X: VectorField) -> OneFormField:
    n = g.chart.dim
    return OneFormField(g.chart, [
        ex.nsum(ex.mul(g.comps[i][j], X.comps[j]) for j in range(n)) for i in range(n)
    ])


@lru_cache(maxsize=None)
def oneform_to_vector(g: MetricField, w: OneFormField) -> VectorField:
    n = g.chart.dim
    inv = inverse_metric(g)
    return VectorField(g.chart, [
        ex.nsum(ex.mul(inv[i][j], w.comps[j]) for j in range(n)) for i in range(n)
    ])


@lru_cache(maxsize=None)
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


def eval_tensors(chart: Chart, tensors, points) -> list:
    """Each rank-0 to rank-3 tensor's values at the points, an (N,) + shape array.

    A tensor is one expression or nested n-tuples of them.  One strict
    eval_many evaluates all their components, in list order and row-major
    within each, with the chart's parameter values: a tensor raises
    DomainError before those after it.  Every strict evaluation at sample
    points goes through here.
    """
    pts = points_array(points)
    arrs = [np.array(t, dtype=object) for t in tensors]
    vals = ex.eval_many([e for a in arrs for e in a.flat], pts, chart.binding)
    ends = np.cumsum([a.size for a in arrs], dtype=int)
    return [vals[e - a.size:e].T.reshape((len(pts),) + a.shape) for a, e in zip(arrs, ends)]


def eval_scalar(f: ScalarField, points) -> np.ndarray:
    return eval_tensors(f.chart, [f.expr], points)[0]


def eval_sym2_comps(comps, points) -> np.ndarray:
    """(N, n, n) array for an n x n nested tuple of parameter-free expressions.

    Components over parameters, such as the identity suites' metrics, are
    evaluated with their chart's values by eval_metric or eval_tensors.
    """
    n = len(comps)
    flat = [comps[i][j] for i in range(n) for j in range(n)]
    pts = points_array(points)
    vals = ex.eval_many(flat, pts)
    return vals.T.reshape(-1, n, n)


def eval_metric(g: MetricField, points):
    """Metric values and numeric inverses: pair of (N, n, n) arrays."""
    gv = eval_tensors(g.chart, [g.comps], points)[0]
    return gv, np.linalg.inv(gv)


# floats in one block of a g-norm chain's operands or temporaries (256 kB)
_TERMS = 1 << 15


def _gnorm(tv, ginv: np.ndarray, square):
    """The g-norms of one residual's (N,) + (d,) * rank values, an (N,) array,
    or of each of a list of them, a list of (N,) arrays.  square(g, t)
    contracts a block of points of the inverse and of one residual, each a
    C-ordered copy with the point axis last, over two points at the least
    (one is repeated): np.einsum then loops innermost along the points, and
    adds each point's terms in one order, whatever the points beside it.
    Like np.einsum, this never warns: an overflow gives inf or nan."""
    tvs = [tv] if isinstance(tv, np.ndarray) else tv
    n, d = ginv.shape[:2]
    out = np.empty((len(tvs), n))
    step = max(1, _TERMS // d ** max(2, tvs[0].ndim - 1))

    def block(a, lo, hi):
        v = a[lo:hi].transpose((*range(1, a.ndim), 0))
        return np.repeat(v, 2, axis=-1) if hi - lo == 1 else np.ascontiguousarray(v)

    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            g = block(ginv, lo, hi)
            for r, t in enumerate(tvs):
                out[r, lo:hi] = square(g, block(t, lo, hi))[:hi - lo]
    np.sqrt(np.maximum(out, 0.0, out=out), out=out)
    return list(out) if tvs is tv else out[0]


def gnorm_oneform(wv, ginv: np.ndarray):
    """sqrt(Σ_i (g⁻¹w)_i w_i) at each point."""
    return _gnorm(wv, ginv, lambda g, w: np.einsum("in,in->n", np.einsum("ijn,jn->in", g, w), w))


def gnorm_sym2(tv, ginv: np.ndarray):
    """sqrt(Σ_ij A_ij A_ji), A = g⁻¹T, at each point: the g-norm
    sqrt(g^{ik} g^{jl} T_ij T_kl) of a symmetric T, as sym2 builds them all."""
    def square(g, t):
        a = np.einsum("ikn,kjn->ijn", g, t)
        return np.einsum("ijn,jin->n", a, a)
    return _gnorm(tv, ginv, square)


def gnorm_rank3(av, ginv: np.ndarray):
    """sqrt(A^{abc} A_abc) at each point, the indices raised one at a time."""
    def square(g, t):
        up = t
        for _ in range(3):  # raise the first index and move it last
            up = np.einsum("dan,abcn->bcdn", g, up)
        return np.einsum("abcn,abcn->n", up, t)
    return _gnorm(av, ginv, square)


def gnorms(g: MetricField, residuals, points) -> list:
    """g-norm of each residual at each point: one (N,) array per residual.

    A residual is one expression (rank 0, its values returned signed) or
    nested n-tuples of them (ranks 1-3, reduced with the metric's inverse).
    One eval_tensors call evaluates the metric first, when some residual
    has rank 1 or more, and then the residuals, so the metric raises before
    any of them.  The residuals of one rank are reduced together, in one
    gnorm_* pass.  A g-norm that overflows raises DomainError at its first
    such point.  Every residual check reduces through here.
    """
    head = [] if all(isinstance(r, ex.Expression) for r in residuals) else [g.comps]
    norms = eval_tensors(g.chart, head + list(residuals), points)
    ginv = np.linalg.inv(norms.pop(0)) if head else None
    for ndim, reduce in enumerate((gnorm_oneform, gnorm_sym2, gnorm_rank3), 2):
        at = [i for i, tv in enumerate(norms) if tv.ndim == ndim]
        if at:
            for i, r in zip(at, reduce([norms[i] for i in at], ginv)):
                norms[i] = r
    for r in norms:
        if not np.isfinite(r).all():
            raise ex.DomainError("non-finite g-norm", int(np.argmax(~np.isfinite(r))))
    return norms


# ---------------------------------------------------------------------------
# sampling

_BATCH = 512
_EXHAUSTION_DRAWS = 100_000
_EXHAUSTION_RATE = 0.01
_COND_LIMIT = 1e8


def _conditioned(metric_vals, n: int, idx) -> np.ndarray:
    """Whether each draw in idx has a positive definite metric with
    condition number below _COND_LIMIT, from its (n*n, draws) entries."""
    eig = np.linalg.eigvalsh(metric_vals[:, idx].T.reshape(-1, n, n))
    return (eig[:, 0] > 0.0) & (eig[:, -1] < _COND_LIMIT * eig[:, 0])


def sample_points(chart: Chart, count: int, seed: int, *, metric: MetricField = None):
    """Deterministic rejection sampling of admissible chart points.

    Draws uniformly from the chart box, keeps points where every domain
    predicate is > 0 and (when `metric` is given) the metric matrix is
    positive definite with condition number below _COND_LIMIT, and returns
    the first `count` of them as a (count, n) float array, allocated before
    the first draw, so a count that cannot be held, or that numpy's index
    range cannot, raises MemoryError at once.  One masked eval_many per
    batch evaluates the predicates and the metric entries; the eigenvalue
    test runs first on as many admissible draws as are still wanted, and on
    the rest of the batch only when one of those fails or the batch may end
    the sampling in a SamplingError.
    Raises SamplingError, naming the test that rejected the most draws, when
    acceptance stays under 1% after 1e5 draws, which bounds the draws at
    about 100 per point requested.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = chart.dim
    try:
        out = np.empty((count, n))
    except ValueError:  # numpy refuses a size past its index range before allocating
        raise MemoryError(f"{count} points of {n} coordinates exceed numpy's "
                          "index range") from None
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    binding = chart.binding
    rng = np.random.default_rng(seed)
    accepted = drawn = by_domain = by_metric = 0
    k = len(chart.domain)
    roots = list(chart.domain)
    if metric is not None:
        roots += [metric.comps[i][j] for i in range(n) for j in range(n)]
    while accepted < count:
        batch = rng.uniform(lo, hi, size=(_BATCH, n))
        drawn += _BATCH
        need = count - accepted
        if roots:
            vals, ok = ex.eval_many(roots, batch, binding, mode="masked")
            ok &= np.all(vals[:k] > 0.0, axis=0)
            idx = np.nonzero(ok)[0]
        else:
            idx = np.arange(_BATCH)
        by_domain += _BATCH - len(idx)
        if metric is not None:
            good = _conditioned(vals[k:], n, idx[:need])
            # the message of a SamplingError counts every rejection of the batch
            if len(idx) > need and (not good.all() or drawn >= _EXHAUSTION_DRAWS):
                good = np.concatenate((good, _conditioned(vals[k:], n, idx[need:])))
            by_metric += len(good) - np.count_nonzero(good)
            idx = idx[:len(good)][good]
        rows = idx[:need]
        out[accepted:accepted + len(rows)] = batch[rows]
        accepted += len(rows)
        if drawn >= _EXHAUSTION_DRAWS and accepted < max(1, _EXHAUSTION_RATE * drawn):
            cause = ("domain predicate too tight for the sampling box"
                     if by_domain >= by_metric else "metric not positive definite "
                     f"or over the condition-number cap {_COND_LIMIT:.0e}")
            raise SamplingError(f"acceptance rate {accepted}/{drawn} below 1% — {cause}")
    return out
