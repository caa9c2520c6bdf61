"""Reference implementations that tests compare the package against.

`eval_checked` is the interpreter `expr.eval_many` replaced: it tests every
node's domain as it goes, in the order of its own copy of the DAG walk,
`topo`.  `add`, `sub`, `mul`, `div` and `neg` are the constructors whose
folds the package's must reproduce node for node.  `evaluate` reads one
expression at one point through `eval_many`.  `finite_difference` is the numeric oracle for
`expr.differentiate`.  `riemann_sectional` reads sectional curvatures off
`geometry.riemann_up`, for the model spaces' known constants.
`curvature_from_jets` rebuilds the curvature layer's tensors with numpy from
the values of the metric entries and their partials.  `gnorm_fsum` is the
g-norm of rank-1 to rank-3 values, each point's terms summed exactly.
`zero_mod_p` evaluates rational DAGs exactly at a random point of the field
of 2^61 - 1 elements.
`sample_points_full_batch` is the sampler that eigen-tested whole batches.
"""

import math

import numpy as np

from solitonlab import geometry as geo
from solitonlab.expr import (_NP_FUNC, ZERO, DomainError, Expression, UnboundParameterError,
                             _node, _points, const, differentiate, eval_many)


def _is_const(e, v=None):
    return e.kind == "const" and (v is None or e.payload == v)


def add(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        v = a.payload + b.payload
        if math.isfinite(v):
            return const(v)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _node("add", None, (a, b))


def sub(a: Expression, b: Expression) -> Expression:
    if a is b:
        return ZERO
    if _is_const(a) and _is_const(b):
        v = a.payload - b.payload
        if math.isfinite(v):
            return const(v)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return _node("sub", None, (a, b))


def neg(a: Expression) -> Expression:
    if _is_const(a):
        return const(-a.payload)
    if a.kind == "neg":
        return a.args[0]
    return _node("neg", None, (a,))


def mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a) and _is_const(b):
        v = a.payload * b.payload
        if math.isfinite(v):
            return const(v)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return _node("mul", None, (a, b))


def div(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.payload != 0.0:
        v = a.payload / b.payload
        if math.isfinite(v):
            return const(v)
    return _node("div", None, (a, b))


def topo(roots):
    """Deduplicated post-order over the DAG spanned by `roots`, and its shared nodes."""
    order, seen, shared = [], set(), set()
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in seen:
            shared.add(node)
            continue
        seen.add(node)
        stack.append((node, True))
        for c in reversed(node.args):
            if c in seen:
                shared.add(c)
            else:
                stack.append((c, False))
    return order, shared


def _first_true(mask):
    a = np.asarray(mask)
    if a.ndim == 0:
        return 0
    return int(np.argmax(a))


def eval_checked(exprs, points, binding=None, mode="strict"):
    """Reference interpreter for eval_many: checks every node's domain."""
    pts = _points(points, mode)
    n_pts, dim = pts.shape
    binding = binding or {}
    roots = list(exprs)

    bad_total = np.zeros(n_pts, dtype=bool)
    vals: dict = {}
    with np.errstate(all="ignore"):
        for node in topo(roots)[0]:
            k = node.kind
            hazard = None
            if k == "const":
                v = np.float64(node.payload)
            elif k == "coord":
                if node.payload >= dim:
                    raise ValueError(
                        f"expression uses coordinate index {node.payload} "
                        f"but points have dimension {dim}"
                    )
                v = pts[:, node.payload]
            elif k == "param":
                try:
                    v = np.float64(binding[node.payload])
                except KeyError:
                    raise UnboundParameterError(
                        f"parameter {node.payload!r} has no bound value"
                    ) from None
            elif k == "add":
                v = vals[id(node.args[0])] + vals[id(node.args[1])]
            elif k == "sub":
                v = vals[id(node.args[0])] - vals[id(node.args[1])]
            elif k == "neg":
                v = -vals[id(node.args[0])]
            elif k == "mul":
                v = vals[id(node.args[0])] * vals[id(node.args[1])]
            elif k == "div":
                b = vals[id(node.args[1])]
                hazard = (np.asarray(b) == 0.0, "division by zero")
                v = vals[id(node.args[0])] / b
            elif k == "pow":
                b = vals[id(node.args[0])]
                if node.payload < 0:
                    hazard = (np.asarray(b) == 0.0, "zero raised to a negative power")
                v = np.asarray(b) ** node.payload
            elif k == "ln":
                c = vals[id(node.args[0])]
                hazard = (np.asarray(c) <= 0.0, "logarithm of a non-positive value")
                v = np.log(c)
            elif k == "sqrt":
                c = vals[id(node.args[0])]
                hazard = (np.asarray(c) < 0.0, "square root of a negative value")
                v = np.sqrt(c)
            else:
                v = _NP_FUNC[k](vals[id(node.args[0])])

            bad = ~np.isfinite(np.asarray(v))
            reason = f"non-finite result in {k}"
            if hazard is not None and np.any(hazard[0]):
                bad = bad | hazard[0]
                reason = hazard[1]
            if np.any(bad):
                if mode == "strict":
                    raise DomainError(reason, _first_true(bad))
                bad_total |= np.broadcast_to(np.asarray(bad), (n_pts,))
                v = np.where(np.asarray(bad), np.nan, v) if np.asarray(v).ndim else np.nan
            vals[id(node)] = v

    out = np.empty((len(roots), n_pts), dtype=float)
    for i, r in enumerate(roots):
        out[i, :] = vals[id(r)]
    if mode == "masked":
        ok = ~bad_total
        out[:, bad_total] = np.nan
        return out, ok
    return out


def evaluate(e: Expression, point, binding=None) -> float:
    """Evaluate a single expression at one point (strict semantics)."""
    pt = np.asarray(point, dtype=float).reshape(1, -1)
    return float(eval_many([e], pt, binding)[0, 0])


def finite_difference(e: Expression, coord_index: int, point, binding=None, step=1e-4):
    """Richardson-extrapolated central difference; oracle for differentiate."""
    pt = np.asarray(point, dtype=float)

    def central(h):
        lo, hi = pt.copy(), pt.copy()
        hi[coord_index] += h
        lo[coord_index] -= h
        return (evaluate(e, hi, binding) - evaluate(e, lo, binding)) / (2.0 * h)

    d1 = central(step)
    d2 = central(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


class DegeneratePlaneError(geo.GeometryError):
    """Sectional curvature requested for a degenerate 2-plane."""


def riemann_sectional(g, p, u, v) -> float:
    """Sectional curvature of span(u, v) at the point p."""
    n = g.chart.dim
    pt = geo.points_array([p])
    gv = eval_checked([g.comps[i][j] for i in range(n) for j in range(n)],
                      pt, g.chart.binding)[:, 0].reshape(n, n)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    uu = u @ gv @ u
    vv = v @ gv @ v
    uv = u @ gv @ v
    denom = uu * vv - uv * uv
    if denom <= 1e-12:
        raise DegeneratePlaneError("plane is degenerate at the given point")
    rup = geo.riemann_up(g)
    flat = [rup[l][k][i][j] for l in range(n) for k in range(n) for i in range(n) for j in range(n)]
    rv = eval_checked(flat, pt, g.chart.binding)[:, 0].reshape(n, n, n, n)
    # g(R(u,v)v, u) with R(u,v)w = u^i v^j w^k R[l][k][i][j] ∂_l
    rw = np.einsum("lkij,i,j,k->l", rv, u, v, v)
    num = rw @ gv @ u
    return float(num / denom)


def curvature_from_jets(g, phi, points):
    """Christoffel, Ricci, scalar curvature, Hess phi and div Ric at the points.

    Only the values of g's entries and of their partials up to order 3, and
    of phi's up to order 2, come from the package (`eval_many`).  numpy builds
    the rest with `einsum`, differentiating the inverse by
    ∂g⁻¹ = -g⁻¹ ∂g g⁻¹, so no curvature formula is shared with `geometry`.
    Arrays have the point axis first: christoffel[N, k, i, j] = Γ^k_ij,
    ricci[N, j, k], scalar[N], hessian[N, i, j], div_ricci[N, j].
    """
    n = g.chart.dim
    pts = geo.points_array(points)

    def d(t, a):
        return differentiate(t, a) if isinstance(t, Expression) else [d(s, a) for s in t]

    jets = [[list(row) for row in g.comps]]
    for _ in range(3):
        jets.append([d(jets[-1], a) for a in range(n)])
    pjets = [phi.expr]
    for _ in range(2):
        pjets.append([d(pjets[-1], a) for a in range(n)])
    arrs = [np.array(t, dtype=object) for t in jets + pjets[1:]]
    vals = eval_many([e for a in arrs for e in a.flat], pts, g.chart.binding)
    ends = np.cumsum([a.size for a in arrs])
    G, dG, d2G, d3G, dphi, d2phi = (vals[e - a.size:e].T.reshape((len(pts),) + a.shape)
                                    for a, e in zip(arrs, ends))
    es = np.einsum
    Gi = np.linalg.inv(G)
    dGi = -es("nik,nakl,nlj->naij", Gi, dG, Gi)
    d2Gi = -(es("nbik,nakl,nlj->nabij", dGi, dG, Gi) + es("nik,nabkl,nlj->nabij", Gi, d2G, Gi)
             + es("nik,nakl,nblj->nabij", Gi, dG, dGi))
    # B[l, i, j] = ∂_i g_lj + ∂_j g_li - ∂_l g_ij, and its first two partials
    B = es("nilj->nlij", dG) + es("njli->nlij", dG) - dG
    dB = es("nailj->nalij", d2G) + es("najli->nalij", d2G) - d2G
    d2B = es("nabilj->nablij", d3G) + es("nabjli->nablij", d3G) - d3G
    gam = 0.5 * es("nkl,nlij->nkij", Gi, B)
    dgam = 0.5 * (es("nakl,nlij->nakij", dGi, B) + es("nkl,nalij->nakij", Gi, dB))
    d2gam = 0.5 * (es("nabkl,nlij->nabkij", d2Gi, B) + es("nakl,nblij->nabkij", dGi, dB)
                   + es("nbkl,nalij->nabkij", dGi, dB) + es("nkl,nablij->nabkij", Gi, d2B))
    # Ric_jk = ∂_i Γ^i_jk - ∂_j Γ^i_ik + Γ^i_ip Γ^p_jk - Γ^i_jp Γ^p_ik
    ric = (es("niijk->njk", dgam) - es("njiik->njk", dgam)
           + es("niip,npjk->njk", gam, gam) - es("nijp,npik->njk", gam, gam))
    dric = (es("naiijk->najk", d2gam) - es("najiik->najk", d2gam)
            + es("naiip,npjk->najk", dgam, gam) + es("niip,napjk->najk", gam, dgam)
            - es("naijp,npik->najk", dgam, gam) - es("nijp,napik->najk", gam, dgam))
    # ∇_a Ric_ij = ∂_a Ric_ij - Γ^p_ai Ric_pj - Γ^p_aj Ric_ip;
    # (div Ric)_j = g^ik ∇_i Ric_kj
    nabla = dric - es("npai,npj->naij", gam, ric) - es("npaj,nip->naij", gam, ric)
    return {"christoffel": gam, "ricci": ric, "scalar": es("njk,njk->n", Gi, ric),
            "hessian": d2phi - es("nkij,nk->nij", gam, dphi),
            "div_ricci": es("nik,nikj->nj", Gi, nabla)}


def gnorm_fsum(ginv, tv, at):
    """(g-norms, sums of |terms|) at the point indices `at` of (N,) + (d,) * r
    values tv, r in 1..3, with the (N, d, d) inverse metric ginv.

    A point's terms are g^{a a'} g^{b b'} ... T_ab... T_a'b'... over every
    index pair, each the product of its 2r factors rounded after each
    multiplication; math.fsum adds them exactly, so the one other rounding
    is the square root's.  Nothing here is read from `geometry`.
    """
    r = tv.ndim - 1
    norms, sizes = [], []
    for p in at:
        t, g = np.asarray(tv[p]), np.asarray(ginv[p])
        terms = np.multiply.outer(t, t)   # axes: a, b, ..., a', b', ...
        for k in range(r):
            shape = [1] * (2 * r)
            shape[k] = shape[r + k] = len(g)
            terms = terms * g.reshape(shape)
        flat = terms.ravel().tolist()
        norms.append(math.sqrt(max(0.0, math.fsum(flat))))
        sizes.append(math.fsum(map(abs, flat)))
    return np.array(norms), np.array(sizes)


P61 = 2 ** 61 - 1   # a Mersenne prime


def _inverse_mod_p(v):
    if v == 0:
        raise ZeroDivisionError("zero divisor mod p")
    return pow(v, -1, P61)


def zero_mod_p(roots, rng, draws=8):
    """Each root's value mod p = 2^61 - 1 at one random point of F_p.

    Coordinates and parameters are drawn uniformly mod p from `rng`; a
    constant, an exact dyadic rational, maps to numerator times denominator
    inverse.  Walks `topo`'s order with `+ - * /`, unary minus and integer
    powers; a zero divisor redraws the point, up to `draws` times.  A
    nonzero rational function of degree d vanishes at the point with
    probability at most d/p (Schwartz-Zippel), so an identity holds when
    every value is 0.
    """
    order, _ = topo(list(roots))
    for _ in range(draws):
        leaf, val = {}, {}
        try:
            for node in order:
                k, a = node.kind, [val[c] for c in node.args]
                if k == "const":
                    num, den = node.payload.as_integer_ratio()
                    v = num * _inverse_mod_p(den % P61)
                elif k in ("coord", "param"):
                    v = leaf.setdefault((k, node.payload), int(rng.integers(P61)))
                elif k == "add":
                    v = a[0] + a[1]
                elif k == "sub":
                    v = a[0] - a[1]
                elif k == "mul":
                    v = a[0] * a[1]
                elif k == "div":
                    v = a[0] * _inverse_mod_p(a[1])
                elif k == "neg":
                    v = -a[0]
                elif k == "pow":
                    base = a[0] if node.payload >= 0 else _inverse_mod_p(a[0])
                    v = pow(base, abs(node.payload), P61)
                else:
                    raise ValueError(f"no value mod p for {k!r}")
                val[node] = v % P61
        except ZeroDivisionError:
            continue
        return [val[r] for r in roots]
    raise ZeroDivisionError(f"a zero divisor at each of {draws} points")


def sample_points_full_batch(chart, count: int, seed: int, *, metric=None):
    """`geometry.sample_points` as it was before it tested draws in order:
    every domain-admissible draw of a batch gets the metric's eigenvalue
    test, and the accepted rows are gathered in a list and concatenated.
    It reads the sampler's constants from `geometry`, so a test may move them."""
    if count < 1:
        raise ValueError("count must be >= 1")
    n = chart.dim
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    rng = np.random.default_rng(seed)
    chunks = []
    accepted = drawn = by_domain = by_metric = 0
    k = len(chart.domain)
    roots = list(chart.domain)
    if metric is not None:
        roots += [metric.comps[i][j] for i in range(n) for j in range(n)]
    batch_size, cap = geo._BATCH, geo._COND_LIMIT
    while accepted < count:
        batch = rng.uniform(lo, hi, size=(batch_size, n))
        drawn += batch_size
        ok = np.ones(batch_size, dtype=bool)
        if roots:
            vals, ok = eval_many(roots, batch, chart.binding, mode="masked")
            ok &= np.all(vals[:k] > 0.0, axis=0)
        idx = np.nonzero(ok)[0]
        by_domain += batch_size - len(idx)
        if metric is not None:
            eig = np.linalg.eigvalsh(vals[k:, idx].T.reshape(-1, n, n))
            ok[idx] = (eig[:, 0] > 0.0) & (eig[:, -1] < cap * eig[:, 0])
            by_metric += len(idx) - np.count_nonzero(ok)
        rows = batch[ok][:count - accepted]
        chunks.append(rows)
        accepted += len(rows)
        if (drawn >= geo._EXHAUSTION_DRAWS
                and accepted < max(1, geo._EXHAUSTION_RATE * drawn)):
            cause = ("domain predicate too tight for the sampling box"
                     if by_domain >= by_metric else "metric not positive definite "
                     f"or over the condition-number cap {cap:.0e}")
            raise geo.SamplingError(f"acceptance rate {accepted}/{drawn} below 1% — {cause}")
    return np.concatenate(chunks)
