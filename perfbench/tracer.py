"""Span tracing from outside the package, and the self-time arithmetic.

``Tracer.install`` replaces selected public functions of the solitonlab
modules with wrappers that record a span per call: (name, start, end,
parent, command id, extra).  Spans stay in memory and are written out once,
when the traced process ends.  ``expr.differentiate`` and the expression
constructors are deliberately not wrapped: they run ~1e5 times per suite and
their time falls into the calling layer.

The aggregation half of this module is pure and is what the parent process
uses to turn a span dump into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# geometry functions that build symbolic curvature objects (as opposed to
# evaluation, reduction or sampling)
_BUILD = ("metric_determinant", "inverse_metric", "christoffel", "ricci",
          "scalar_curvature", "riemann_up", "gradient", "hessian", "laplacian",
          "lie_derivative_metric", "divergence_vector", "covariant_derivative_sym2",
          "divergence_sym2", "trace", "traceless", "tensor_inner", "grad_norm2",
          "covariant_derivative_vector", "inner_rank2", "vector_to_oneform",
          "oneform_to_vector", "sym2_apply")
_REDUCE = ("gnorm_sym2", "gnorm_oneform", "gnorm_rank3")

# Public functions wrapped per module.  The span name is "<module>.<function>";
# its layer is the module.
WRAPPED = {
    "cli": ("main", "build_parser", "cmd_verify_example", "cmd_verify_manifest",
            "cmd_check_identity", "cmd_construct_warped", "cmd_classify",
            "check_dict", "report_document", "emit"),
    "manifest": ("load", "from_dict", "digest", "structure_to_dict", "write"),
    "examples": ("run_example", "structure_checks", "example_space_form",
                 "example_euclidean_gradient", "example_euclidean_claimed_conformal",
                 "example_euclidean_corrected_conformal", "example_pseudo_hyperbolic",
                 "example_neg_m_sphere", "pseudo_hyperbolic_product"),
    "identities": ("suite_metrics", "bianchi_suite", "fg_formulas_suite",
                   "lemma21_suite", "oneill_suite"),
    # _report is private but every residual check funnels through it
    "soliton": ("derive", "default_points", "soliton_residual",
                "gradient_soliton_residual", "lambda_is_constant", "classify_lambda",
                "triviality_check", "conformal_killing_check",
                "conformal_factor_hessian_check", "potential_from_factor",
                "divric_identity_residual", "mu_scalar_field", "mu_field",
                "eqpprinc_residual", "warped_einstein_construct", "einstein_fiber",
                "_report"),
    "spaces": ("make_euclidean", "make_sphere", "make_hyperbolic", "height_function",
               "make_warped", "oneill_ricci", "warping_solution"),
    "geometry": _BUILD + _REDUCE + ("eval_metric", "sample_points"),
    "expr": ("eval_many",),
}

BUILD = frozenset(f"geometry.{f}" for f in _BUILD)
REDUCE = frozenset(f"geometry.{f}" for f in _REDUCE)

# Metric that carries each layer's total self time.  Where the layer has a
# name of its own in the benchmark (examples.run_s, ...), that name is used.
# "trace" is the tracer's own bookkeeping (node counting).
LAYER_TOTAL = {"cli": "cli.self_s", "manifest": "manifest.load_s",
               "examples": "examples.run_s", "identities": "identities.suite_s",
               "soliton": "soliton.check_s", "spaces": "spaces.self_s",
               "geometry": "geometry.self_s", "expr": "expr.self_s",
               "trace": "trace.self_s"}

NAME, START, END, PARENT, CMD, EXTRA = range(6)


class Tracer:
    """Records spans for the current command id (``cmd``) in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.cmd = 0

    def begin(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.cmd, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        if name == "expr.eval_many":
            count_nodes = fn.__globals__["count_nodes"]

            def wrapper(exprs, points, *args, **kwargs):
                rec = begin(name)
                try:
                    roots = list(exprs)
                    # node counting is tracing cost: its own span, layer "trace"
                    crec = begin("trace.count_nodes")
                    try:
                        rec[EXTRA] = [count_nodes(*roots), len(points)]
                    finally:
                        end(crec)
                    return fn(roots, points, *args, **kwargs)
                finally:
                    end(rec)
        elif name in ("geometry.sample_points", "identities.suite_metrics"):
            def wrapper(*args, **kwargs):
                rec = begin(name)
                try:
                    out = fn(*args, **kwargs)
                    rec[EXTRA] = len(out)  # points accepted / metrics built
                    return out
                finally:
                    end(rec)
        else:
            def wrapper(*args, **kwargs):
                rec = begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(rec)
        return functools.wraps(fn)(wrapper)

    def install(self, package, wrapped=WRAPPED) -> None:
        """Wrap every function in ``wrapped``, rebinding each alias of it in
        all loaded modules of ``package`` (``from .geometry import ricci``
        too)."""
        mods = {name: sys.modules[f"{package.__name__}.{name}"] for name in wrapped}
        swaps = {}
        for mod_name, funcs in wrapped.items():
            for f in funcs:
                orig = getattr(mods[mod_name], f)
                swaps[id(orig)] = (orig, self.wrap(f"{mod_name}.{f}", orig))
        prefix = package.__name__ + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package.__name__ or name.startswith(prefix)):
                continue
            for attr, val in list(vars(mod).items()):
                hit = swaps.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# aggregation (pure)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [(s[END] - s[START]) - _union_length(children[i], s[START], s[END])
            for i, s in enumerate(spans)]


def covered(spans) -> float:
    """Wall time covered by root spans (those without a parent)."""
    roots = [(s[START], s[END]) for s in spans if s[PARENT] < 0]
    if not roots:
        return 0.0
    return _union_length(roots, min(r[0] for r in roots), max(r[1] for r in roots))


def _in_sampling(spans) -> list:
    flags = [False] * len(spans)
    for i, s in enumerate(spans):  # parents precede children
        p = s[PARENT]
        flags[i] = p >= 0 and (flags[p] or spans[p][NAME] == "geometry.sample_points")
    return flags


def command_sums(spans) -> dict:
    """Per-command sums of the per-layer quantities: {cmd: {metric: value}}."""
    selfs = self_times(spans)
    sampling = _in_sampling(spans)
    out = {}
    for i, s in enumerate(spans):
        name, cmd, st = s[NAME], s[CMD], selfs[i]
        acc = out.setdefault(cmd, {})

        def add(key, v):
            acc[key] = acc.get(key, 0) + v

        add(LAYER_TOTAL[name.split(".", 1)[0]], st)
        if name == "cli.import":
            add("cli.import_s", st)
        elif name == "cli.emit":
            add("cli.emit_s", st)
        elif name == "expr.eval_many":
            nodes, pts = s[EXTRA] or (0, 0)
            if sampling[i]:
                add("geometry.sample_eval_s", st)
            else:
                add("expr.eval_s", st)
                add("expr.eval_calls", 1)
                add("expr.eval_nodes", nodes)
                add("expr.eval_node_points", nodes * pts)
        elif name == "geometry.sample_points":
            add("geometry.sample_s", st)
            add("geometry.points_accepted", s[EXTRA] or 0)
        elif name == "geometry.eval_metric":
            add("geometry.eval_metric_s", st)
        elif name in REDUCE:
            add("geometry.reduce_s", st)
        elif name in BUILD:
            add("geometry.build_s", st)
            add("geometry.build_calls", 1)
        elif name == "spaces.oneill_ricci":
            add("spaces.oneill_s", st)
            add("spaces.oneill_calls", 1)
        elif name == "identities.suite_metrics":
            add("identities.metrics", s[EXTRA] or 0)
        elif name == "soliton._report":
            add("soliton.checks", 1)
    return out
