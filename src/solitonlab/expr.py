"""Closed symbolic expression language with exact derivatives.

Expressions are immutable DAG nodes interned in global tables: building the
same expression twice returns the same object, so structural equality is
identity (`a is b`) and derivative/evaluation caches key on object identity.
There is one table per kind.  A leaf is keyed by its payload (the constant,
the coordinate index or the parameter name), a power by `(k, args)`, and
every other node by its own `args` tuple, so a node carries no key of its
own.  `differentiate` memoizes in one `{node: derivative}` table per
coordinate index.  That memo serves one symbolic build: `release_derivatives`
empties it once the build's roots are in hand (an identity suite does so
before it evaluates), and a later `differentiate` rebuilds the same interned
nodes, so the release changes no node, tape or value.
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

`eval_many` has one evaluator, a compiler and a runner.  `_compile` is the
module's one ordered DAG walk: it walks a root set once, in a depth-first
post-order over roots and arguments first to last, into a tape: per node an
opcode, a numpy kernel or leaf payload, and operand and output slots packed
into an int32 array, with every drop and buffer-reuse decision made during
the walk.  The order is a contract: `_locate` names the first faulting node
by it, so a metric listed first faults first.  `_run` replays a tape over a
list of slots, one numpy call per node, with floating-point faults raised.
Tapes are cached in `_TAPES` under the root tuple: roots are interned and a
tape depends on neither the points nor the parameter values, so a later call
with the same roots skips the walk.  A tape keeps the roots' values; any
other node's value is dropped once the last of its consumers
(`Expression.uses`, counted as nodes are built) has run, and later results
are written into the buffers the tape allocated for dropped values; the
values stay bit-identical.  A tape replays over blocks of `_BLOCK` points, so
beside its result the memory an evaluation holds is bounded by the live
values of one block, not by the DAG's size or the point count.
A fault, a non-finite input, an unbound parameter or a coordinate out of
range replays the cached tape over every point with faults ignored, each
instruction allocating its value in the tape's own slots, and `_locate`
checks each value as it is stored: the first instruction with a non-finite
lane locates the error.  The tables, the consumer counts and the tape cache
are process state without locks: build and evaluate expressions from one
thread at a time.
"""

from __future__ import annotations

import math
from array import array

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
    """Interned immutable expression node; construct via module functions.

    `uses` counts the nodes built with this one as an operand (twice for
    `a*a`), in every DAG built so far; the evaluator's compiler drops the
    node's value after that many consumers have run, so a consumer outside a
    tape keeps the value to the tape's end.  It is not part of the expression.
    """

    __slots__ = ("kind", "payload", "args", "uses")

    def __repr__(self):
        return f"Expression({to_text(self)})"


# kind -> {key: node}; see _node for the key of each kind
_TABLE: dict = {k: {} for k in ("const", "coord", "param", "add", "sub", "mul", "div",
                                "neg", "pow") + FUNCTIONS}


def _new(table, key, kind, payload, args) -> Expression:
    """Intern a node `table` lacks under `key`; nodes are truthy, so `get(key) or _new(...)`."""
    e = Expression()
    e.kind, e.payload, e.args, e.uses = kind, payload, args, 0
    # a node with one consumer has one in any DAG; see `_compile`
    if args:
        args[0].uses += 1
        if len(args) == 2:
            args[1].uses += 1
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
        # ASCII digits only: str.isdigit also takes '²', which float() rejects
        if "0" <= c <= "9" or (c == "." and "0" <= text[i + 1:i + 2] <= "9"):
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and "0" <= text[j] <= "9":
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and "0" <= text[k] <= "9":
                    j = k
                    while j < n and "0" <= text[j] <= "9":
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
            if not math.isfinite(float(text)):
                raise ParseError(f"number {text!r} is too large", pos)
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


def release_derivatives() -> None:
    """Empty the derivative memo; the derivatives stay interned in `_TABLE`."""
    _DIFF.clear()


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


def _nodes(roots) -> set:
    """The distinct nodes of the DAG spanned by `roots`."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.args)
    return seen


def free_coords(e: Expression) -> set:
    return {n.payload for n in _nodes([e]) if n.kind == "coord"}


def free_params(e: Expression) -> set:
    return {n.payload for n in _nodes([e]) if n.kind == "param"}


def count_nodes(*roots) -> int:
    """Number of distinct DAG nodes reachable from the given roots."""
    return len(_nodes(roots))


# ---------------------------------------------------------------------------
# evaluation


def _points(points, mode):
    if mode not in ("strict", "masked"):
        raise ValueError("mode must be 'strict' or 'masked'")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array of shape (N, dim)")
    return pts


# root tuple -> its tape; a tape depends on neither the points nor the binding
_TAPES: dict = {}
# the points one replay of a tape runs over: a pass holds the live values of
# one block, whatever its point count
_BLOCK = 1024


class _Tape:
    """A root set compiled for `_run`: per node, in `_compile`'s order, an
    opcode in `ops`, a numpy kernel or leaf payload in `kernels`, and three
    slots in `slots` (first operand, second operand, output; an unused one is
    0).  `width` is the length of the slot list the tape runs over, and `outs`
    holds the roots' slots.  A fault replay runs the same slots with every
    instruction in its allocating form (`_ALLOCATING`).
    """

    __slots__ = ("ops", "kernels", "slots", "width", "outs")


def eval_many(exprs, points, binding=None, mode="strict"):
    """Evaluate expressions over a batch of points.

    `points` is an (N, d) array; the result is a (len(exprs), N) float array.
    In "strict" mode any domain violation raises DomainError naming the first
    offending point; in "masked" mode the return value is (values, ok) where
    ok is an (N,) bool mask and masked lanes hold NaN.  `binding` maps each
    parameter to a float, or to an (N,) float array that gives the parameter
    one value per point (a lane); any other shape raises ValueError.  Each
    kernel is one IEEE operation per lane, so a point gets the bits a float
    binding of its lane values would give it, and a non-finite lane faults at
    its point as a non-finite coordinate would.

    The first call with a root tuple compiles it into a tape (`_compile`),
    cached in `_TAPES`; every call replays the tape (`_run`) over consecutive
    blocks of `_BLOCK` points, with each lane sliced to its block, one numpy
    call per node, with overflow, division by zero and invalid operations
    raised as faults, and writes each block's roots into its columns of the
    result.  The tape keeps the roots' values; any other node's value is
    dropped once its last consumer has run.  A result is written into the
    buffer of a dropped operand, or of another dropped value, when the tape
    allocated that buffer, never into a view of `points` or a scalar, so
    neither `points` nor an earlier result is written.  So the memory a pass
    holds is the result plus the live values of one block.  After a fault in
    any block, an unbound parameter, a coordinate index out of range, or on a
    non-finite point or bound value, the same runner replays the cached tape
    over every point with faults ignored, each instruction allocating its
    value in the tape's own slots, and `_locate` checks each value as it is
    stored: the first instruction with a non-finite lane locates the error,
    and the replay holds the result, the mask and one column per slot.  An
    early block can fault at a later node than a later block would, so the
    error is located over every point: the node and point are those one
    whole-column pass names.  A coordinate index out of range raises
    ValueError, and an unbound parameter UnboundParameterError, unless a
    strict-mode fault comes before it.
    """
    pts = _points(points, mode)
    roots = tuple(exprs)
    binding = binding or {}
    tape = _TAPES.get(roots)
    if tape is None:
        tape = _TAPES[roots] = _compile(roots)
    n = len(pts)
    finite, lanes = np.isfinite(pts).all(), {}
    for name, v in binding.items():
        if isinstance(v, np.ndarray) and v.ndim:
            if v.shape != (n,):
                raise ValueError(f"parameter {name!r} has {v.shape} lanes "
                                 f"for {n} points")
            finite = finite and np.isfinite(v).all()
            lanes[name] = v
        else:
            finite = finite and math.isfinite(float(v))
    out = np.empty((len(roots), n), dtype=float)
    faulted = not finite
    if not faulted:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                # a pass over no points still runs the tape once, and raises
                # for an unbound parameter as any other pass does
                for lo in range(0, n, _BLOCK) or range(1):
                    hi = lo + _BLOCK
                    vals = [None] * tape.width
                    _run(tape, vals, pts[lo:hi],
                         {**binding, **{k: v[lo:hi] for k, v in lanes.items()}})
                    for i, slot in enumerate(tape.outs):
                        out[i, lo:hi] = vals[slot]
        except (FloatingPointError, ValueError, UnboundParameterError):
            faulted = True
    if faulted:
        # a block may fault before an earlier node's fault at a later point:
        # replay every point, checking each value as it is stored
        vals = _locate(tape, n, mode)
        with np.errstate(all="ignore"):
            _run(vals, vals, pts, binding)
        ok = vals.ok
        for i, slot in enumerate(tape.outs):
            out[i, :] = vals[slot]
    if mode == "masked":
        if not faulted:
            return out, np.ones(n, dtype=bool)
        out[:, ~ok] = np.nan
        return out, ok
    return out


_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}

# Opcodes.  An "into" instruction writes into the array already in its output
# slot, a dropped array the tape allocated, so it stores nothing.
#   0 binary    1 binary into o    2 unary     3 unary into o
#   4 power     5 power into o     6 constant  7 coordinate   8 parameter

# A shared node's entry in `_compile`'s `emitted` is its code plus _USE times
# the consumers it still waits for; _LIVE masks off that count and the drop
# flags.  A code's slot is an int32, so the code fits below _USE.
_USE = 1 << 34
_LIVE = _USE - 7


def _compile(roots):
    """The tape of `roots`: one instruction per node, in a depth-first
    post-order over the roots and then each node's arguments, first to last,
    each node at its first reach.  The order is a contract: `_locate` names
    the first faulting instruction by it, so a metric listed first faults
    first.

    Each emitted node gets a code, its slot shifted left by 3 over three flags:
    1 when its value is an array (it depends on a coordinate), 2 when the node
    is dropped, and 4 when it is dropped and the tape allocated its array.  A
    node is dropped at its last consumer: it has `uses` of them, a root counts
    one more and so is never dropped, and a node with a consumer outside the
    tape is kept to the end.  Buffers are reused by one rule: a dropped
    node's slot goes to `free`, or to `dead` when the tape allocated its
    array, and every array result writes into `dead`'s last slot (the first
    operand's, when it is dead) while there is one, else takes a free slot or
    a new one.  That gives the same bits, because each kernel is one IEEE
    operation per lane.  Coordinate columns are views of the caller's points
    and subtrees over parameters and constants are scalars; neither is
    written.  A node with one consumer is reached once, inside its consumer's
    walk, so its code waits on `held` until that consumer pops it; any other
    node's code, with the count of consumers still to run (see _USE), is in
    `emitted`, which is also the walk's visited set.
    """
    # a root is kept: it counts as one more consumer, and as a shared node,
    # while the walk runs
    bumped = [(r, max(1, 2 - r.uses)) for r in set(roots)]
    for r, by in bumped:
        r.uses += by
    try:
        emitted, held = {}, []
        hold, take = held.append, held.pop
        ops, kernels, slots, chunk = bytearray(), [], array("i"), []
        emit_op, emit_f, emit = ops.append, kernels.append, chunk.append
        binary, use, live = _BINARY, _USE, _LIVE
        # slots whose value is dead: any, and arrays the tape allocated
        free, dead, width, left = [], [], 0, 1024
        stack = list(reversed(roots))
        push, pop = stack.append, stack.pop
        while stack:
            node = pop()
            if node is None:
                node = pop()
            elif node.uses > 1 and node in emitted:
                continue
            elif node.args:
                # walk the operands not yet emitted, then come back under a None marker
                push(node)
                push(None)
                args = node.args
                if len(args) == 2 and (args[1].uses == 1 or args[1] not in emitted):
                    push(args[1])
                if args[0].uses == 1 or args[0] not in emitted:
                    push(args[0])
                continue
            # every operand has been emitted; a held code comes off last first
            args = node.args
            if len(args) == 2:
                a, b = args
                if b.uses == 1:
                    cb = take()
                else:
                    cb = emitted[b] = emitted[b] - use
                    if cb >= use:
                        cb &= live
                if a.uses == 1:
                    ca = take()
                else:
                    ca = emitted[a] = emitted[a] - use
                    if ca >= use:
                        ca &= live
                sa, sb = ca >> 3, cb >> 3
                op, f, arr = 0, binary[node.kind], (ca | cb) & 1
                # a dropped operand's slot is free, first operand first, and
                # an array the tape allocated is dead, second operand first,
                # so the first operand's buffer is reused first
                if ca & 6 == 2:
                    free.append(sa)
                if cb & 2:
                    (dead if cb & 4 else free).append(sb)
                if ca & 4:
                    dead.append(sa)
            elif args:
                a = args[0]
                if a.uses == 1:
                    ca = take()
                else:
                    ca = emitted[a] = emitted[a] - use
                    if ca >= use:
                        ca &= live
                sa, sb, arr = ca >> 3, 0, ca & 1
                k = node.kind
                if k == "pow":
                    op, f = 4, node.payload
                else:
                    op, f = 2, np.negative if k == "neg" else _NP_FUNC[k]
                if ca & 2:
                    (dead if ca & 4 else free).append(sa)
            else:
                k = node.kind
                if k == "const":
                    op, f, flags = 6, np.float64(node.payload), 2
                elif k == "coord":
                    op, f, flags = 7, node.payload, 3
                else:
                    op, f, flags = 8, node.payload, 2
                sa = sb = arr = 0
            if arr and dead:
                # an array result goes into the last dropped array the tape allocated
                o = dead.pop()
                op += 1
            elif free:
                o = free.pop()
            else:
                o, width = width, width + 1
            if args:
                flags = 7 if arr else 2
            emit_op(op)
            emit_f(f)
            emit(sa)
            emit(sb)
            emit(o)
            if node.uses == 1:
                hold((o << 3) + flags)
            else:
                emitted[node] = node.uses * use + (o << 3) + flags
            left -= 1
            if not left:
                # a long list of ints costs 40 B each; packed they cost 4
                slots.fromlist(chunk)
                chunk.clear()
                left = 1024
        slots.fromlist(chunk)
    finally:
        for r, by in bumped:
            r.uses -= by
    tape = _Tape()
    tape.ops, tape.kernels, tape.slots, tape.width = bytes(ops), tuple(kernels), slots, width
    tape.outs = array("i", [(emitted[r] & _LIVE) >> 3 for r in roots])
    return tape


# an "into" opcode -> its allocating form
_ALLOCATING = bytes.maketrans(b"\1\3\5", b"\0\2\4")


def _run(tape, vals, pts, binding):
    """Replay `tape` over `pts`, storing each node's value in its slot of `vals`."""
    dim = pts.shape[1]
    power = np.power
    slots = iter(tape.slots)
    for op, f, a, b, o in zip(tape.ops, tape.kernels, slots, slots, slots):
        if op == 1:
            f(vals[a], vals[b], vals[o])
        elif op == 0:
            vals[o] = f(vals[a], vals[b])
        elif op == 3:
            f(vals[a], vals[o])
        elif op == 2:
            vals[o] = f(vals[a])
        elif op == 5:
            # np.power, not `**`: on a scalar base `**` rounds differently
            power(vals[a], f, vals[o])
        elif op == 4:
            vals[o] = power(vals[a], f)
        elif op == 6:
            vals[o] = f
        elif op == 7:
            if f >= dim:
                raise ValueError(f"expression uses coordinate index {f} "
                                 f"but points have dimension {dim}")
            vals[o] = pts[:, f]
        else:
            try:
                vals[o] = np.float64(binding[f])
            except KeyError:
                raise UnboundParameterError(f"parameter {f!r} has no bound value") from None


# kind -> (argument index, lanes where that argument leaves the domain, reason)
_HAZARDS = {
    "div": (1, lambda b, k: b == 0.0, "division by zero"),
    "pow": (0, lambda b, k: k < 0 and b == 0.0, "zero raised to a negative power"),
    "ln": (0, lambda c, k: c <= 0.0, "logarithm of a non-positive value"),
    "sqrt": (0, lambda c, k: c < 0.0, "square root of a negative value"),
}


# an allocating opcode or a kernel -> the kind of node its instruction computes
_KIND = {4: "pow", 6: "const", 7: "coord", 8: "param", np.negative: "neg",
         **{f: k for k, f in (*_BINARY.items(), *_NP_FUNC.items())}}


class _locate(list):
    """The slot list of a fault replay, and the tape it runs: `tape` in
    allocating form over `tape`'s own slots, so `_run` stores every value
    here and each value is checked as it is stored.

    Strict mode checks a value before it replaces its slot's value, while
    the operands it was computed from are still in their slots, and raises
    at the first instruction with a non-finite lane, where the fault arose.
    The reason is the hazard's if any lane meets the hazard, else
    "non-finite result in {kind}".  Masked mode clears a value's non-finite
    lanes in `ok` after storing it, so the value it replaced is freed first.
    """

    __slots__ = ("ops", "kernels", "slots", "steps", "ok")

    def __init__(self, tape, n_pts, mode):
        super().__init__([None] * tape.width)
        self.ops, self.kernels, self.slots = (tape.ops.translate(_ALLOCATING), tape.kernels,
                                              tape.slots)
        slots = iter(tape.slots)
        self.steps = zip(self.ops, self.kernels, slots, slots, slots)
        self.ok = np.ones(n_pts, dtype=bool) if mode == "masked" else None

    def __setitem__(self, o, v):
        if self.ok is not None:
            super().__setitem__(o, v)
            self.ok &= np.isfinite(v)
            return
        op, f, a, b, _ = next(self.steps)
        finite = np.isfinite(v)
        if not finite.all():
            kind = _KIND[op] if op >= 4 else _KIND[f]
            reason = f"non-finite result in {kind}"
            if kind in _HAZARDS:
                arg, hazard, why = _HAZARDS[kind]
                if np.any(hazard(self[b if arg else a], f)):
                    reason = why
            raise DomainError(reason, int(np.argmin(finite)))
        super().__setitem__(o, v)
