"""Command-line front end.

Commands: verify-example, verify-manifest, check-identity, construct-warped,
classify.  Every run prints a deterministic JSON report document to stdout
(--json PATH writes the same bytes to a file) and exits 0 when all expected
verdicts were realized, 1 when a numeric check failed or an expected verdict
was not realized, and 2 on input or precondition errors (an option the
command does not read, and a stdout that cannot be written, included).
Identical flags always produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys

from . import __version__
from . import examples as cat
from . import expr as ex
from . import geometry as geo
from . import identities as idn
from . import manifest as mf
from . import soliton as so
from . import spaces as sp
from .geometry import ScalarField, VectorField

EXIT_OK, EXIT_FAIL, EXIT_INPUT = 0, 1, 2

def positive_int(text: str) -> int:
    """argparse type for a count of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def non_negative_int(text: str) -> int:
    """argparse type for an integer of at least 0, such as a seed."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def finite_float(text: str) -> float:
    """argparse type for a finite number."""
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return v


def tolerance(text: str) -> float:
    """argparse type for a finite tolerance of at least 0."""
    v = finite_float(text)
    if v < 0.0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return v


# catalog and explicit-fiber builds cost about n^4: at 16 the slowest takes about 2 s
MAX_CATALOG_N = 16


def catalog_n(text: str) -> int:
    """argparse type for a catalog --n from 2, the least dimension of every
    entry's model space, to MAX_CATALOG_N; an entry with a higher lower
    bound checks it in its constructor."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {n}")
    if n > MAX_CATALOG_N:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_CATALOG_N}, got {n}")
    return n


# one hidden flag per catalog parameter, typed by the parameter's default
_FLAG_TYPE = {int: int, float: finite_float, type(None): str}
_PARAM_TYPES = {name: catalog_n if name == "n" else _FLAG_TYPE[type(value)]
                for spec in cat.EXAMPLES.values() for name, value in spec.defaults}


def check_dict(rep: so.ResidualReport) -> dict:
    return {
        "name": rep.name,
        "points": int(len(rep.residuals)),
        "sup_residual": float(rep.sup),
        "tolerance": float(rep.tolerance),
        "pass": bool(rep.passed),
        "worst_point": [float(v) for v in rep.worst_point],
    }


def report_document(digest, checks, classification=None, trivial=None,
                    passed=None) -> dict:
    if passed is None:
        passed = all(c["pass"] for c in checks)
    return {
        "version": __version__,
        "manifest_digest": digest,
        "checks": checks,
        "classification": classification,
        "trivial": trivial,
        "pass": bool(passed),
    }


def emit(doc: dict, json_path=None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _params(args) -> dict:
    """The parameter flags given, by parameter name."""
    return {k: getattr(args, k) for k in _PARAM_TYPES if getattr(args, k, None) is not None}


def _refuse_unread(args, reads, what: str) -> None:
    """Raise for an optional flag that was given but that `what` does not read."""
    for key in (*_PARAM_TYPES, "example", "dim", "random_metrics"):
        if key not in reads and getattr(args, key, None) is not None:
            raise ValueError(f"--{key.replace('_', '-')} is not read by {what}")


def cmd_verify_example(args) -> dict:
    run = cat.run_example(args.id, _params(args), count=args.points, tol=args.tol,
                          seed=args.seed)
    source = ({"example": run.example_id, "parameters": run.params}
              if run.structure is None else mf.structure_to_dict(run.structure))
    return report_document(mf.digest(source), [check_dict(r) for r in run.checks],
                           run.classification, run.trivial, run.passed)


def cmd_verify_manifest(args) -> dict:
    man = mf.load(args.path)
    s = man.structure
    pts = so.default_points(s, args.points, args.seed)
    checks, verdict = cat.structure_checks(s, pts, args.tol, divric=False)
    return report_document(man.digest, [check_dict(r) for r in checks],
                           verdict.classification, verdict.trivial)


def _suite(args, tol, suite):
    """A universal identity suite over --random-metrics metrics of dimension --dim."""
    dim, metrics = args.dim or 3, args.random_metrics or 20
    reps = suite(dim=dim, metric_count=metrics, point_count=args.points,
                 seed=args.seed, tol=tol)
    return reps, mf.digest({"identity": args.name, "dim": dim, "metrics": metrics,
                            "points": args.points, "seed": args.seed})


def _on_structure(args, tol, check, default_example):
    """A structure-level identity on the catalog structure --example."""
    s = cat.build_structure(args.example or default_example, _params(args))
    pts = so.default_points(s, args.points, args.seed)
    return [check(s, pts, tol)], mf.digest(mf.structure_to_dict(s))


_ONEILL_PARAMS = ("n", "k", "A", "l")


def _oneill(args, tol):
    """O'Neill's Ricci formulas on the pseudo-hyperbolic warped product."""
    p = cat.EXAMPLES["pseudo-hyperbolic"].params(_params(args))
    w, _ = cat.pseudo_hyperbolic_product(*(p[k] for k in _ONEILL_PARAMS))
    reps = idn.oneill_suite(w, count=args.points, seed=args.seed, tol=tol)
    return reps, mf.digest({"identity": "oneill", "warped": "pseudo-hyperbolic",
                            "parameters": {k: p[k] for k in _ONEILL_PARAMS},
                            "points": args.points, "seed": args.seed})


def _conformal_factor(args, tol):
    """The conformal factor of the height function on the round 3-sphere."""
    S = sp.make_sphere(3)
    g, n = S.metric, S.chart.dim
    rho = sp.height_function(S, (0.0, 0.0, 0.0, 1.0)).field
    pts = geo.sample_points(S.chart, args.points, args.seed)
    reps = [so.conformal_factor_hessian_check(g, rho, pts, tol)]
    u = so.potential_from_factor(g, rho, pts)
    half_L = geo.half_lie_derivative_metric(g, geo.gradient(g, u))
    comps = geo.sym2(n, lambda i, j: ex.sub(half_L.comps[i][j],
                                            ex.mul(rho.expr, g.comps[i][j])))
    reps += so.run_checks(g, pts, [("factor-potential", tol, comps)])
    return reps, mf.digest({"identity": "conformal-factor", "points": args.points,
                            "seed": args.seed})


_SUITE_READS = ("dim", "random_metrics")
_STRUCTURE_READS = ("example", *_PARAM_TYPES)

# name -> (default tolerance, runner(args, tol) -> (reports, digest), the
# optional flags the runner reads)
IDENTITIES = {
    "bianchi": (idn.SUITE_TOL, lambda a, tol: _suite(a, tol, idn.bianchi_suite),
                _SUITE_READS),
    "fg-formulas": (idn.SUITE_TOL, lambda a, tol: _suite(a, tol, idn.fg_formulas_suite),
                    _SUITE_READS),
    "lemma21": (idn.SUITE_TOL, lambda a, tol: _suite(a, tol, idn.lemma21_suite),
                _SUITE_READS),
    "divric": (1e-7, lambda a, tol: _on_structure(
        a, tol, so.divric_identity_residual, "neg-m-sphere"), _STRUCTURE_READS),
    "eqpprinc": (1e-8, lambda a, tol: _on_structure(
        a, tol, so.eqpprinc_residual, "neg-m-sphere"), _STRUCTURE_READS),
    "mu-const": (1e-9, lambda a, tol: _on_structure(
        a, tol, so.mu_field, "pseudo-hyperbolic"), _STRUCTURE_READS),
    "conformal-factor": (1e-9, _conformal_factor, ()),
    "oneill": (1e-9, _oneill, _ONEILL_PARAMS),
}


def cmd_check_identity(args) -> dict:
    default_tol, run, reads = IDENTITIES[args.name]
    _refuse_unread(args, reads, f"check-identity {args.name}")
    reps, digest = run(args, default_tol if args.tol is None else args.tol)
    return report_document(digest, [check_dict(r) for r in reps])


def _base_structure(args) -> so.SolitonStructure:
    base = args.base
    if base in cat.EXAMPLES:
        return cat.build_structure(base, _params(args))
    if os.path.exists(base):
        _refuse_unread(args, (), "construct-warped from a manifest")
        return mf.load(base).structure
    raise ValueError(f"--base {base!r} is neither a catalog id nor a manifest path")


def cmd_construct_warped(args) -> dict:
    s = _base_structure(args)
    if args.fiber_dim is not None:
        fiber_dim = args.fiber_dim
    elif s.m is not None:
        fiber_dim = int(round(s.m))
    else:
        raise ValueError("--fiber-dim is required when the base declares no m")
    if args.fiber != "abstract":
        if fiber_dim > MAX_CATALOG_N:
            raise ValueError(f"--fiber-dim (or the base's m) must be at most {MAX_CATALOG_N} "
                             f"for an explicit fiber, got {fiber_dim}")
        # the product of an explicit fiber is a manifest, which must load again
        dim = s.chart.dim + fiber_dim
        if dim > mf.MAX_DIMENSION:
            raise ValueError(f"the product's dimension {dim} exceeds a manifest's "
                             f"dimension bound {mf.MAX_DIMENSION}")
    if args.fiber == "abstract" and args.out:
        raise ValueError("an abstract fiber has no chart; no manifest to write")
    pts = so.default_points(s, args.points, args.seed)
    w, rep = so.warped_einstein_construct(s, fiber_dim, args.fiber_mu,
                                          fiber_kind=args.fiber, points=pts,
                                          seed=args.seed, tol=args.tol)
    lam_bar = rep.metadata["lambda"]
    if w is not None:
        prod = so.SolitonStructure(
            w.metric, ScalarField(w.chart, ex.ONE),
            ScalarField(w.chart, ex.const(lam_bar)),
            vector_field=VectorField(w.chart, [ex.ZERO] * w.chart.dim))
        out_doc = mf.structure_to_dict(prod)
        if args.out:
            mf.write(out_doc, args.out)
        digest = mf.digest(out_doc)
    else:
        digest = mf.digest(mf.structure_to_dict(s))
    return report_document(digest, [check_dict(rep)], so.lambda_class(lam_bar), True)


def cmd_classify(args) -> dict:
    if (args.example is None) == (args.manifest is None):
        raise ValueError("give exactly one of --example or --manifest")
    if args.example is not None:
        s = cat.build_structure(args.example, _params(args))
        digest = mf.digest(mf.structure_to_dict(s))
    else:
        _refuse_unread(args, (), "classify --manifest")
        man = mf.load(args.manifest)
        s, digest = man.structure, man.digest
    pts = so.default_points(s, args.points, args.seed)
    verdict = so.triviality_check(s, pts, args.tol)
    return report_document(digest, [], verdict.classification, verdict.trivial)


def _add_common(p: argparse.ArgumentParser, tol=1e-8, param_flags=False):
    p.add_argument("--points", type=positive_int, default=200,
                   help="admissible sample count (default 200)")
    own = "the identity's own" if tol is None else f"{tol:g}"
    p.add_argument("--tol", type=tolerance, default=tol,
                   help=f"residual tolerance (default {own})")
    p.add_argument("--seed", type=non_negative_int, default=42,
                   help="sampler seed (default 42)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the JSON report to PATH")
    if param_flags:
        for name, typ in _PARAM_TYPES.items():
            p.add_argument("--" + name.replace("_", "-"), type=typ, dest=name,
                           help=argparse.SUPPRESS)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes `-1e1`, `-.5e1` and `-inf` for options (its pattern
        # knows only `-16` and `-1.5`); every negative float literal is a value,
        # as in `--k=-1e1`
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def _print_message(self, message, file=None):
        # argparse drops a failed write; --help and --version on stdout must
        # raise it, so that a closed stdout exits 2
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="solitonlab",
        description="Construct and verify h-almost Ricci soliton structures "
                    "at sampled chart points.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-example", help="run a catalog example's check suite")
    p.add_argument("id", choices=cat.EXAMPLES)
    _add_common(p, param_flags=True)

    p = sub.add_parser("verify-manifest", help="verify a manifest file")
    p.add_argument("path")
    _add_common(p)

    p = sub.add_parser("check-identity", help="run a structural identity suite")
    p.add_argument("name", choices=IDENTITIES)
    p.add_argument("--random-metrics", type=positive_int, default=None,
                   help="perturbed metrics for the universal suites (default 20)")
    # the symbolic inverse metric costs about 3x per dimension: 7 takes seconds
    p.add_argument("--dim", type=positive_int, default=None, choices=range(1, 7),
                   help="dimension for random metrics, at most 6 (default 3)")
    p.add_argument("--example", default=None,
                   help="catalog structure for divric/eqpprinc/mu-const")
    _add_common(p, tol=None, param_flags=True)

    p = sub.add_parser("construct-warped",
                       help="build a warped-product Einstein metric from a "
                            "gradient base structure")
    p.add_argument("--base", required=True,
                   help="catalog id or manifest path of the base structure")
    p.add_argument("--fiber-dim", type=int, default=None,
                   help="fiber dimension m (default the base's declared m)")
    p.add_argument("--fiber-mu", type=finite_float, default=None,
                   help="fiber Einstein constant; must match the base's conserved "
                        "quantity mu (default mu)")
    p.add_argument("--fiber", default="auto",
                   choices=("auto", "flat", "sphere", "hyperbolic", "abstract"),
                   help="fiber model (default auto: flat, sphere or hyperbolic by "
                        "the sign of mu); abstract checks only "
                        "warped-einstein-base-block on the base and writes no product")
    p.add_argument("--out", default=None, help="write the product manifest here")
    _add_common(p, param_flags=True)

    p = sub.add_parser("classify", help="classification and triviality only")
    p.add_argument("--example", default=None)
    p.add_argument("--manifest", default=None)
    _add_common(p, param_flags=True)
    return ap


_PARSER = None


def main(argv=None) -> int:
    """Run one command and return its exit code; argparse may raise SystemExit.

    The parser is built on the first call and reused by later ones; it holds
    no command function, so ``cmd_<command>`` is looked up at each call.
    The cycle collector is off while the command runs: the expression DAGs
    are acyclic, so its passes over them free nothing.  The caller's
    ``gc.isenabled()`` state is restored on return.
    """
    global _PARSER
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if _PARSER is None:
            _PARSER = build_parser()
        args = _PARSER.parse_args(argv)
        doc = globals()["cmd_" + args.command.replace("-", "_")](args)
        emit(doc, args.json)
        sys.stdout.flush()
        return EXIT_OK if doc["pass"] else EXIT_FAIL
    except mf.ManifestError as err:
        print(f"manifest error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except so.PreconditionError as err:
        print(f"precondition not met: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, TypeError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_INPUT
    except geo.GeometryError as err:
        print(f"geometry error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ex.ExprError, RecursionError) as err:
        print(f"expression error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("out of memory: the point arrays do not fit; lower --points", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> None:
    """Console entry point: exit with main's code, skipping interpreter teardown.

    ``main`` has flushed stdout and closed every file it wrote, and no
    ``atexit`` handler is registered, so teardown would only free memory.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: --version, --help and usage errors
        code = exc.code
        try:
            sys.stdout.flush()
        except OSError as err:
            print(f"io error: {err}", file=sys.stderr)
            code = EXIT_INPUT
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
