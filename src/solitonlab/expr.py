"""Closed symbolic expression language with exact derivatives.

Expressions are immutable DAG nodes interned in a global table: building the
same expression twice returns the same object, so structural equality is
identity (`a is b`) and derivative/evaluation caches key on object identity.
Smart constructors fold constants and eliminate `x+0`, `x*1`, `x*0` at build
time, which keeps node counts small when curvature formulas contract over
mostly-zero metric components.

The language is deliberately closed: binary `+ - * /`, integer powers `^`,
unary minus, and the functions exp, ln, sqrt, sin, cos, sinh, cosh, tanh over
leaves that are literals, chart coordinates, or named parameters.  Unary minus
lives inside `base`, so `-x^2` parses as `(-x)^2`.  Exponents are integers and
may carry a leading sign (`x^-2`), which is how inverse powers round-trip
through `to_text`.

Evaluation is vectorized over batches of points.  Domain violations (log of a
non-positive value, division by zero, square root of a negative number, zero
to a negative power, or any non-finite intermediate) either raise DomainError
with the index of the offending point ("strict") or mark the point invalid in
a returned mask ("masked").

`eval_many` first runs a lean pass, one numpy call per node with
floating-point faults raised.  Only after a fault, or on a non-finite input,
an out-of-range coordinate or an unbound parameter, does it replay the
evaluation in a checked interpreter that tests every node's domain.  The
values, masks and errors are the same either way.
"""

from __future__ import annotations

import math

import numpy as np

FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos", "sinh", "cosh", "tanh")

_NP_FUNC = {
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
}

_MATH_FUNC = {
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
}


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Syntax or resolution error, anchored at a byte offset in the source."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.message = message
        self.position = position


class DomainError(ExprError):
    """A point fell outside the domain of some operation."""

    def __init__(self, reason: str, point_index: int):
        super().__init__(f"{reason} at point index {point_index}")
        self.reason = reason
        self.point_index = point_index


class UnboundParameterError(ExprError):
    """Evaluation referenced a parameter missing from the binding."""


_TABLE: dict = {}


class Expression:
    """Interned immutable expression node; construct via module functions."""

    __slots__ = ("kind", "payload", "args")

    def __repr__(self):
        return f"Expression({to_text(self)})"

    # Operator sugar so callers can write `a*b + c` between nodes and numbers.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, k):
        return powi(self, k)

    def __neg__(self):
        return neg(self)

    def diff(self, coord_index: int) -> "Expression":
        return differentiate(self, coord_index)


def _coerce(v):
    if isinstance(v, Expression):
        return v
    if isinstance(v, (int, float)):
        return const(v)
    return NotImplemented


def _node(kind, payload, args) -> Expression:
    key = (kind, payload, args)
    hit = _TABLE.get(key)
    if hit is not None:
        return hit
    e = Expression.__new__(Expression)
    e.kind = kind
    e.payload = payload
    e.args = args
    _TABLE[key] = e
    return e


def const(v) -> Expression:
    v = float(v)
    if not math.isfinite(v):
        raise ValueError("expression constants must be finite")
    if v == 0.0:
        v = 0.0  # normalize -0.0 so there is a single zero node
    return _node("const", v, ())


def coord(i: int) -> Expression:
    if not isinstance(i, int) or i < 0:
        raise ValueError("coordinate index must be a non-negative integer")
    return _node("coord", i, ())


def param(name: str) -> Expression:
    if not name.isidentifier():
        raise ValueError(f"invalid parameter name {name!r}")
    return _node("param", name, ())


ZERO = const(0.0)
ONE = const(1.0)


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


def powi(a: Expression, k: int) -> Expression:
    if isinstance(k, float):
        if not k.is_integer():
            raise ValueError("exponents must be integers")
        k = int(k)
    if not isinstance(k, int):
        raise ValueError("exponents must be integers")
    if k == 0:
        return ONE
    if k == 1:
        return a
    if _is_const(a) and not (a.payload == 0.0 and k < 0):
        try:
            v = a.payload ** k
        except OverflowError:
            v = math.inf
        if isinstance(v, float) and math.isfinite(v) or isinstance(v, int):
            return const(float(v))
        return _node("pow", k, (a,))
    if a.kind == "pow":
        return powi(a.args[0], a.payload * k)
    return _node("pow", k, (a,))


def _call(fname: str, a: Expression) -> Expression:
    if _is_const(a):
        try:
            v = _MATH_FUNC[fname](a.payload)
        except (ValueError, OverflowError):
            return _node(fname, None, (a,))
        if math.isfinite(v):
            return const(v)
    return _node(fname, None, (a,))


def exp(a):
    return _call("exp", a)


def ln(a):
    return _call("ln", a)


def sqrt(a):
    return _call("sqrt", a)


def sin(a):
    return _call("sin", a)


def cos(a):
    return _call("cos", a)


def sinh(a):
    return _call("sinh", a)


def cosh(a):
    return _call("cosh", a)


def tanh(a):
    return _call("tanh", a)


def nsum(terms) -> Expression:
    """Sum a sequence with balanced pairing to keep tree depth logarithmic."""
    terms = [t for t in terms]
    if not terms:
        return ZERO
    while len(terms) > 1:
        nxt = []
        for i in range(0, len(terms) - 1, 2):
            nxt.append(add(terms[i], terms[i + 1]))
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            toks.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text, coord_names, param_names):
        self.toks = _tokenize(text)
        self.i = 0
        self.coords = {name: k for k, name in enumerate(coord_names)}
        self.params = set(param_names)

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expr(self):
        e = self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.term()
            e = add(e, t) if op == "+" else sub(e, t)
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            f = self.factor()
            e = mul(e, f) if op == "*" else div(e, f)
        return e

    def factor(self):
        e = self.base()
        if self.peek()[0] == "^":
            _, _, cpos = self.take()
            sign = 1
            if self.peek()[0] == "-":
                sign = -1
                self.take()
            kind, text, _ = self.peek()
            if kind != "num":
                raise ParseError("expected integer exponent after '^'", cpos)
            k = float(text)
            if not k.is_integer():
                raise ParseError("expected integer exponent after '^'", cpos)
            self.take()
            e = powi(e, sign * int(k))
        return e

    def base(self):
        kind, text, pos = self.take()
        if kind == "num":
            return const(float(text))
        if kind == "-":
            return neg(self.base())
        if kind == "(":
            e = self.expr()
            if self.peek()[0] != ")":
                raise ParseError("expected ')'", self.peek()[2])
            self.take()
            return e
        if kind == "ident":
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.take()
                arg = self.expr()
                if self.peek()[0] != ")":
                    raise ParseError("expected ')'", self.peek()[2])
                self.take()
                return _call(text, arg)
            if text in self.coords:
                return coord(self.coords[text])
            if text in self.params:
                return param(text)
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError("expected a number, identifier, or '('", pos)


def check_names(coord_names, param_names=()):
    """Reject malformed, duplicated, or function-shadowing symbol names."""
    seen = set()
    for name in list(coord_names) + list(param_names):
        if not name.isidentifier():
            raise ValueError(f"invalid symbol name {name!r}")
        if name in FUNCTIONS:
            raise ValueError(f"symbol name {name!r} shadows a builtin function")
        if name in seen:
            raise ValueError(f"duplicate symbol name {name!r}")
        seen.add(name)


def parse_expression(text: str, coord_names, param_names=()) -> Expression:
    """Parse `text` over the declared coordinates and parameters.

    Raises ParseError with a byte offset on malformed input or unknown
    identifiers; the returned node is interned like any constructed tree.
    """
    check_names(coord_names, param_names)
    p = _Parser(text, coord_names, param_names)
    e = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return e


# ---------------------------------------------------------------------------
# printing

_PREC_ATOM = 5
_PREC_NEG = 4
_PREC_POW = 3
_PREC_MULDIV = 2
_PREC_ADDSUB = 1


def _prec(e):
    k = e.kind
    if k in ("add", "sub"):
        return _PREC_ADDSUB
    if k in ("mul", "div"):
        return _PREC_MULDIV
    if k == "pow":
        return _PREC_POW
    if k == "neg" or (k == "const" and e.payload < 0):
        return _PREC_NEG
    return _PREC_ATOM


def to_text(e: Expression, coord_names=None) -> str:
    """Render to grammar-conformant text; parse(to_text(e)) rebuilds e."""

    def name(i):
        if coord_names is not None:
            return coord_names[i]
        return f"x{i + 1}"

    def go(e, min_prec):
        k = e.kind
        if k == "const":
            s = repr(e.payload)
        elif k == "coord":
            s = name(e.payload)
        elif k == "param":
            s = e.payload
        elif k == "neg":
            s = "-" + go(e.args[0], _PREC_ATOM)
        elif k == "pow":
            s = go(e.args[0], _PREC_NEG) + "^" + str(e.payload)
        elif k == "add":
            s = go(e.args[0], _PREC_ADDSUB) + " + " + go(e.args[1], _PREC_MULDIV)
        elif k == "sub":
            s = go(e.args[0], _PREC_ADDSUB) + " - " + go(e.args[1], _PREC_MULDIV)
        elif k == "mul":
            s = go(e.args[0], _PREC_MULDIV) + "*" + go(e.args[1], _PREC_POW)
        elif k == "div":
            s = go(e.args[0], _PREC_MULDIV) + "/" + go(e.args[1], _PREC_POW)
        else:
            s = k + "(" + go(e.args[0], 0) + ")"
            return s
        if _prec(e) < min_prec:
            return "(" + s + ")"
        return s

    return go(e, 0)


# ---------------------------------------------------------------------------
# calculus

_DIFF: dict = {}


def differentiate(e: Expression, coord_index: int) -> Expression:
    """Exact partial derivative with respect to coordinate `coord_index`."""
    key = (e, coord_index)
    hit = _DIFF.get(key)
    if hit is not None:
        return hit
    k = e.kind
    if k in ("const", "param"):
        d = ZERO
    elif k == "coord":
        d = ONE if e.payload == coord_index else ZERO
    elif k == "add":
        d = add(differentiate(e.args[0], coord_index), differentiate(e.args[1], coord_index))
    elif k == "sub":
        d = sub(differentiate(e.args[0], coord_index), differentiate(e.args[1], coord_index))
    elif k == "neg":
        d = neg(differentiate(e.args[0], coord_index))
    elif k == "mul":
        a, b = e.args
        d = add(mul(differentiate(a, coord_index), b), mul(a, differentiate(b, coord_index)))
    elif k == "div":
        a, b = e.args
        num = sub(mul(differentiate(a, coord_index), b), mul(a, differentiate(b, coord_index)))
        d = div(num, powi(b, 2))
    elif k == "pow":
        a = e.args[0]
        d = mul(mul(const(e.payload), powi(a, e.payload - 1)), differentiate(a, coord_index))
    else:
        a = e.args[0]
        da = differentiate(a, coord_index)
        if k == "exp":
            d = mul(e, da)
        elif k == "ln":
            d = div(da, a)
        elif k == "sqrt":
            d = div(da, mul(const(2.0), e))
        elif k == "sin":
            d = mul(cos(a), da)
        elif k == "cos":
            d = mul(neg(sin(a)), da)
        elif k == "sinh":
            d = mul(cosh(a), da)
        elif k == "cosh":
            d = mul(sinh(a), da)
        elif k == "tanh":
            d = mul(sub(ONE, powi(e, 2)), da)
        else:
            raise AssertionError(f"unhandled kind {k}")
    _DIFF[key] = d
    return d


def simplify(e: Expression) -> Expression:
    """Rebuild through the smart constructors; idempotent by construction.

    Every reachable tree is already built through the constructors, so this is
    a defensive fixed point: folding happens at construction time and
    simplify(e) is e for such trees.
    """
    memo: dict = {}

    def go(e):
        hit = memo.get(e)
        if hit is not None:
            return hit
        k = e.kind
        if not e.args:
            r = e
        elif k == "pow":
            r = powi(go(e.args[0]), e.payload)
        elif k in ("add", "sub", "mul", "div"):
            a, b = (go(c) for c in e.args)
            r = {"add": add, "sub": sub, "mul": mul, "div": div}[k](a, b)
        elif k == "neg":
            r = neg(go(e.args[0]))
        else:
            r = _call(k, go(e.args[0]))
        memo[e] = r
        return r

    return go(e)


def substitute_coords(e: Expression, mapping: dict) -> Expression:
    """Replace coordinate leaves by expressions, index -> replacement node."""
    memo: dict = {}

    def go(e):
        hit = memo.get(e)
        if hit is not None:
            return hit
        k = e.kind
        if k == "coord":
            r = mapping.get(e.payload, e)
        elif not e.args:
            r = e
        elif k == "pow":
            r = powi(go(e.args[0]), e.payload)
        elif k in ("add", "sub", "mul", "div"):
            a, b = (go(c) for c in e.args)
            r = {"add": add, "sub": sub, "mul": mul, "div": div}[k](a, b)
        elif k == "neg":
            r = neg(go(e.args[0]))
        else:
            r = _call(k, go(e.args[0]))
        memo[e] = r
        return r

    return go(e)


def shift_coordinates(e: Expression, offset: int) -> Expression:
    """Shift every coordinate index by `offset` (re-indexing into a product)."""
    idx = sorted(free_coords(e))
    return substitute_coords(e, {i: coord(i + offset) for i in idx})


def _topo(roots):
    """Deduplicated post-order over the DAG spanned by `roots`."""
    order, seen = [], set()
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for c in reversed(node.args):
            if c not in seen:
                stack.append((c, False))
    return order


def free_coords(e: Expression) -> set:
    return {n.payload for n in _topo([e]) if n.kind == "coord"}


def free_params(e: Expression) -> set:
    return {n.payload for n in _topo([e]) if n.kind == "param"}


def count_nodes(*roots) -> int:
    """Number of distinct DAG nodes reachable from the given roots."""
    return len(_topo(list(roots)))


# ---------------------------------------------------------------------------
# evaluation


def _first_true(mask):
    a = np.asarray(mask)
    if a.ndim == 0:
        return 0
    return int(np.argmax(a))


def _points(points, mode):
    if mode not in ("strict", "masked"):
        raise ValueError("mode must be 'strict' or 'masked'")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array of shape (N, dim)")
    return pts


def eval_many(exprs, points, binding=None, mode="strict"):
    """Evaluate expressions over a batch of points.

    `points` is an (N, d) array; the result is a (len(exprs), N) float array.
    In "strict" mode any domain violation raises DomainError naming the first
    offending point; in "masked" mode the return value is (values, ok) where
    ok is an (N,) bool mask and masked lanes hold NaN.

    A lean pass makes one numpy call per node, with overflow, division by
    zero and invalid operations raised as faults.  On a fault, a non-finite
    point or bound parameter, a coordinate index out of range or an unbound
    parameter, the checked interpreter replays the whole evaluation, so the
    values, masks and errors are the same either way.
    """
    pts = _points(points, mode)
    roots = list(exprs)
    binding = binding or {}
    vals = _eval_lean(_topo(roots), pts, binding) if np.isfinite(pts).all() else None
    if vals is None:
        return _eval_checked(roots, pts, binding, mode)
    out = np.empty((len(roots), len(pts)), dtype=float)
    for i, r in enumerate(roots):
        out[i, :] = vals[r]
    if mode == "masked":
        return out, np.ones(len(pts), dtype=bool)
    return out


def _eval_lean(order, pts, binding):
    """Node values keyed by node, or None where `_eval_checked` must decide.

    Returning None drops the values computed so far before the replay.
    """
    dim = pts.shape[1]
    vals: dict = {}
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            for node in order:
                k = node.kind
                if k == "mul":
                    v = vals[node.args[0]] * vals[node.args[1]]
                elif k == "add":
                    v = vals[node.args[0]] + vals[node.args[1]]
                elif k == "sub":
                    v = vals[node.args[0]] - vals[node.args[1]]
                elif k == "const":
                    v = np.float64(node.payload)
                elif k == "coord":
                    if node.payload >= dim:
                        return None
                    v = pts[:, node.payload]
                elif k == "pow":
                    # np.power, not `**`: on a scalar base `**` rounds differently
                    v = np.power(vals[node.args[0]], node.payload)
                elif k == "div":
                    v = vals[node.args[0]] / vals[node.args[1]]
                elif k == "neg":
                    v = -vals[node.args[0]]
                elif k == "param":
                    if node.payload not in binding:
                        return None
                    v = np.float64(binding[node.payload])
                    if not np.isfinite(v):
                        return None
                else:
                    v = _NP_FUNC[k](vals[node.args[0]])
                vals[node] = v
    except FloatingPointError:
        return None
    return vals


def _eval_checked(exprs, points, binding=None, mode="strict"):
    """Reference interpreter for eval_many: checks every node's domain."""
    pts = _points(points, mode)
    n_pts, dim = pts.shape
    binding = binding or {}
    roots = list(exprs)

    bad_total = np.zeros(n_pts, dtype=bool)
    vals: dict = {}
    with np.errstate(all="ignore"):
        for node in _topo(roots):
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
