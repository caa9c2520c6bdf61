"""Closed symbolic expression language with exact derivatives.

Expressions are immutable DAG nodes interned in global tables: building the
same expression twice returns the same object, so structural equality is
identity (`a is b`) and derivative/evaluation caches key on object identity.
There is one table per kind.  A leaf is keyed by its payload (the constant,
the coordinate index or the parameter name), a power by `(k, args)`, and
every other node by its own `args` tuple, so a node carries no key of its
own.  `differentiate` memoizes in one `{node: derivative}` table per
coordinate index.
Smart constructors fold constants and eliminate `x+0`, `x*1`, `x*0` at build
time, which keeps node counts small when curvature formulas contract over
mostly-zero metric components.  They test for 0 and 1 by identity with the
interned `ZERO` and `ONE`: `const` maps -0.0 to 0.0, so each has one node.

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

`eval_many` has one interpreter: a pass over the DAG in `_topo`'s order,
one numpy call per node, with floating-point faults raised.  The pass keeps
only the values of shared nodes (nodes with more than one consumer) and of
roots; a node with one consumer is dropped once that consumer has run, and an
add, sub, mul or div consumer writes into the dropped operand's buffer.  The
values stay bit-identical, and the memory an evaluation holds is bounded by
the DAG's shared nodes, not by its size.  A fault, or a non-finite input,
replays the pass from the first node with every value kept and faults
ignored, and the first node with a non-finite lane locates the error.  The
pass order, a depth-first post-order over roots and arguments first to last,
is a contract: `_locate` names the first faulting node by it, so a metric
listed first faults first.
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


class Expression:
    """Interned immutable expression node; construct via module functions."""

    __slots__ = ("kind", "payload", "args")

    def __repr__(self):
        return f"Expression({to_text(self)})"


# kind -> {key: node}; see _node for the key of each kind
_TABLE: dict = {k: {} for k in ("const", "coord", "param", "add", "sub", "mul", "div",
                                "neg", "pow") + FUNCTIONS}


def _new(table, key, kind, payload, args) -> Expression:
    """Intern a node `table` lacks under `key`; nodes are truthy, so `get(key) or _new(...)`."""
    e = Expression()
    e.kind, e.payload, e.args = kind, payload, args
    table[key] = e
    return e


def _node(kind, payload, args) -> Expression:
    # a leaf is keyed by its payload, pow by (k, args), any other node by the
    # args tuple it keeps anyway, so an interned node owns no separate key
    table = _TABLE[kind]
    key = payload if not args else args if payload is None else (payload, args)
    return table.get(key) or _new(table, key, kind, payload, args)


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
_ADD, _SUB, _MUL, _DIV, _NEG = (_TABLE[k] for k in ("add", "sub", "mul", "div", "neg"))


def add(a: Expression, b: Expression) -> Expression:
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    if a.kind == "const" and b.kind == "const":
        v = a.payload + b.payload
        if math.isfinite(v):
            return const(v)
    args = (a, b)
    return _ADD.get(args) or _new(_ADD, args, "add", None, args)


def sub(a: Expression, b: Expression) -> Expression:
    if a is b:
        return ZERO
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    if a.kind == "const" and b.kind == "const":
        v = a.payload - b.payload
        if math.isfinite(v):
            return const(v)
    args = (a, b)
    return _SUB.get(args) or _new(_SUB, args, "sub", None, args)


def neg(a: Expression) -> Expression:
    if a.kind == "const":
        return const(-a.payload)
    if a.kind == "neg":
        return a.args[0]
    args = (a,)
    return _NEG.get(args) or _new(_NEG, args, "neg", None, args)


def mul(a: Expression, b: Expression) -> Expression:
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    if a.kind == "const" and b.kind == "const":
        v = a.payload * b.payload
        if math.isfinite(v):
            return const(v)
    args = (a, b)
    return _MUL.get(args) or _new(_MUL, args, "mul", None, args)


def div(a: Expression, b: Expression) -> Expression:
    if a is ZERO:
        return ZERO
    if b is ONE:
        return a
    if a.kind == "const" and b.kind == "const" and b is not ZERO:
        v = a.payload / b.payload
        if math.isfinite(v):
            return const(v)
    args = (a, b)
    return _DIV.get(args) or _new(_DIV, args, "div", None, args)


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
    if a.kind == "const" and not (a is ZERO and k < 0):
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
    if a.kind == "const":
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
    terms = list(terms)
    if not terms:
        return ZERO
    while len(terms) > 1:
        nxt = [add(terms[i], terms[i + 1]) for i in range(0, len(terms) - 1, 2)]
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

# coordinate index -> {node: its partial derivative}; a hit allocates nothing
_DIFF: dict = {}


def differentiate(e: Expression, coord_index: int) -> Expression:
    """Exact partial derivative with respect to coordinate `coord_index`."""
    memo = _DIFF.get(coord_index)
    if memo is None:
        memo = _DIFF[coord_index] = {}
    return memo.get(e) or _derive(e, coord_index, memo)


def _derive(e, i, memo):
    # the caller missed e in memo; each operand is looked up before recursing
    k, args = e.kind, e.args
    if not args:
        d = memo[e] = ONE if k == "coord" and e.payload == i else ZERO
        return d
    a = args[0]
    da = memo.get(a) or _derive(a, i, memo)
    if len(args) == 2:
        b = args[1]
        db = memo.get(b) or _derive(b, i, memo)
        if k == "mul":
            d = add(mul(da, b), mul(a, db))
        elif k == "add":
            d = add(da, db)
        elif k == "sub":
            d = sub(da, db)
        else:
            d = div(sub(mul(da, b), mul(a, db)), powi(b, 2))
    elif k == "neg":
        d = neg(da)
    elif k == "pow":
        d = mul(mul(const(e.payload), powi(a, e.payload - 1)), da)
    elif k == "exp":
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
    memo[e] = d
    return d


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
    """Deduplicated post-order over the DAG spanned by `roots`, and its shared nodes.

    A node is shared when the walk reaches it more than once: it is an
    argument of two nodes, both arguments of one (`a*a`), or a repeated root
    or a root that another root uses.  Every other node has at most one
    consumer.  The order is a contract; see the module docstring.
    """
    order, seen, shared = [], set(), set()
    stack = list(reversed(roots))
    # a node whose args are being walked sits under a None marker
    push, pop, emit, visit, share = stack.append, stack.pop, order.append, seen.add, shared.add
    while stack:
        node = pop()
        if node is None:
            emit(pop())
            continue
        if node in seen:
            share(node)
            continue
        visit(node)
        args = node.args
        if not args:
            emit(node)
            continue
        push(node)
        push(None)
        if len(args) == 2:
            a, b = args
            if b in seen:
                share(b)
            else:
                push(b)
        else:
            a = args[0]
        if a in seen:
            share(a)
        else:
            push(a)
    return order, shared


def free_coords(e: Expression) -> set:
    return {n.payload for n in _topo([e])[0] if n.kind == "coord"}


def free_params(e: Expression) -> set:
    return {n.payload for n in _topo([e])[0] if n.kind == "param"}


def count_nodes(*roots) -> int:
    """Number of distinct DAG nodes reachable from the given roots."""
    return len(_topo(list(roots))[0])


# ---------------------------------------------------------------------------
# evaluation


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

    One pass makes one numpy call per node, with overflow, division by zero
    and invalid operations raised as faults.  It keeps the values of the
    roots and of the nodes that `_topo` reaches more than once; any other
    node has one consumer, and its value is dropped once that consumer has
    run.  An add, sub, mul or div consumer writes its result into such an
    operand's buffer when the pass allocated it, never into a view of
    `points` or a scalar, so neither `points` nor an earlier result is
    written.  After a fault, or on a non-finite point or bound value, the
    pass starts over from the first node with every value kept and faults
    ignored, and the first node in topological order with a non-finite lane
    locates the error; the values the fast pass dropped before its fault
    were finite, so the located node is the same.  A coordinate index out of
    range raises ValueError, and an unbound parameter UnboundParameterError,
    unless a strict-mode fault comes before it.
    """
    pts = _points(points, mode)
    roots = list(exprs)
    binding = binding or {}
    order, shared = _topo(roots)
    vals: dict = {}
    ok = np.ones(len(pts), dtype=bool)
    faulted = not (np.isfinite(pts).all()
                   and np.isfinite(np.fromiter(binding.values(), float, len(binding))).all())
    if not faulted:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                _eval_nodes(order, pts, binding, vals, shared)
        except FloatingPointError:
            faulted = True
    if faulted:
        # the fast pass dropped and overwrote values: start over, keeping every one
        vals.clear()
        try:
            with np.errstate(all="ignore"):
                _eval_nodes(order, pts, binding, vals, set(order))
        finally:
            ok = _locate(vals, len(pts), mode)
    out = np.empty((len(roots), len(pts)), dtype=float)
    for i, r in enumerate(roots):
        out[i, :] = vals[r]
    if mode == "masked":
        out[:, ~ok] = np.nan
        return out, ok
    return out


_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}


def _eval_nodes(order, pts, binding, vals, keep):
    """Store each node's value in `vals`, keyed by node, in topological order.

    A node not in `keep` has one consumer, and its value leaves `vals` when
    that consumer runs.  An add, sub, mul or div consumer writes its result
    into such an operand's buffer if this loop allocated it, which gives the
    same bits because each is one IEEE operation per lane; coordinate columns
    (views of the caller's points) and scalars are never written.
    """
    dim = pts.shape[1]
    ndarray = np.ndarray
    pop = vals.pop
    for node in order:
        k = node.kind
        ufunc = _BINARY.get(k)
        if ufunc is not None:
            a, b = node.args
            if a in keep:
                x = vals[a]
                if b in keep:
                    v = ufunc(x, vals[b])
                else:
                    y = pop(b)
                    v = ufunc(x, y, y) if type(y) is ndarray and y.base is None else ufunc(x, y)
            else:
                x = pop(a)
                y = vals[b] if b in keep else pop(b)
                if type(x) is ndarray and x.base is None:
                    v = ufunc(x, y, x)
                elif b not in keep and type(y) is ndarray and y.base is None:
                    v = ufunc(x, y, y)
                else:
                    v = ufunc(x, y)
        elif k == "const":
            v = np.float64(node.payload)
        elif k == "coord":
            if node.payload >= dim:
                raise ValueError(f"expression uses coordinate index {node.payload} "
                                 f"but points have dimension {dim}")
            v = pts[:, node.payload]
        elif k == "param":
            try:
                v = np.float64(binding[node.payload])
            except KeyError:
                raise UnboundParameterError(
                    f"parameter {node.payload!r} has no bound value") from None
        else:
            a = node.args[0]
            x = vals[a] if a in keep else pop(a)
            if k == "pow":
                # np.power, not `**`: on a scalar base `**` rounds differently
                v = np.power(x, node.payload)
            elif k == "neg":
                v = -x
            else:
                v = _NP_FUNC[k](x)
        vals[node] = v


# kind -> (argument index, lanes where that argument leaves the domain, reason)
_HAZARDS = {
    "div": (1, lambda b, k: b == 0.0, "division by zero"),
    "pow": (0, lambda b, k: k < 0 and b == 0.0, "zero raised to a negative power"),
    "ln": (0, lambda c, k: c <= 0.0, "logarithm of a non-positive value"),
    "sqrt": (0, lambda c, k: c < 0.0, "square root of a negative value"),
}


def _locate(vals, n_pts, mode):
    """The valid-point mask of a replayed pass; strict mode raises at the first fault.

    `vals` is in insertion order, which is topological order, so the first
    node with a non-finite lane is where the fault arose.  Its reason is the
    hazard's if any lane meets the hazard, else "non-finite result in {kind}".
    """
    ok = np.ones(n_pts, dtype=bool)
    for node, v in vals.items():
        bad = ~np.isfinite(v)
        if not bad.any():
            continue
        if mode == "masked":
            ok &= ~bad
            continue
        reason = f"non-finite result in {node.kind}"
        if node.kind in _HAZARDS:
            arg, hazard, why = _HAZARDS[node.kind]
            if np.any(hazard(vals[node.args[arg]], node.payload)):
                reason = why
        raise DomainError(reason, int(np.argmax(bad)))
    return ok
