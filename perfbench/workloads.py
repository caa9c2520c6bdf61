"""Workload definitions and the expected verdict of every command.

Each workload is a fixed list of ``solitonlab`` argvs.  The benchmark seed
only picks the ``--seed`` each command passes to the sampler (and, for the
random-metric suites, to the metric generator); sizes never depend on it.
The expected verdicts below are written down from the mathematics of each
structure, not captured from a run: a command whose exit code or any check
verdict differs from them counts as failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("catalog-cold", "identity-suites", "point-sweep", "api-session")

# Placeholder for the run's scratch directory in argvs (construct-warped --out).
TMP = "{tmp}"
MANIFESTS = "perfbench/manifests"

_SEED_RANGE = (1, 100_000)


@dataclass(frozen=True)
class Expect:
    """Exit code and the ordered (check name, pass, points) triples."""
    exit: int
    checks: tuple


@dataclass(frozen=True)
class Template:
    argv: tuple
    expect: Expect

    def with_seed(self, seed: int) -> "Command":
        return Command(self.argv + ("--seed", str(seed)), self.expect)


@dataclass(frozen=True)
class Command:
    argv: tuple
    expect: Expect

    @property
    def key(self) -> str:
        """Stable identity of the argv, used to compare report digests."""
        return " ".join(self.argv)

    @property
    def template(self) -> str:
        """The argv without its ``--seed``: the same for every seed."""
        argv = self.argv[:-2] if self.argv[-2:-1] == ("--seed",) else self.argv
        return " ".join(argv)

    def resolved(self, tmp: str) -> list:
        return [a.replace(TMP, tmp) for a in self.argv]


def _t(argv: str, checks, points: int, exit: int = 0) -> Template:
    triples = tuple((c, True, points) if isinstance(c, str) else (c[0], c[1], points)
                    for c in checks)
    return Template(tuple(argv.split()), Expect(exit, triples))


# Every structure-level suite starts with the defining residuals; the divric
# identity follows once the soliton residual holds.  mu-constancy needs
# h = -m/u with constant lambda; eqpprinc needs h = -m/u.
_GRADIENT = ("soliton-residual", "gradient-soliton-residual", "divric-identity")
_PSEUDO_HYPERBOLIC = _GRADIENT + ("mu-constancy", "eqpprinc-identity",
                                  "potential-hessian-equation")
_NEG_M_SPHERE = _GRADIENT + ("eqpprinc-identity",)
_FG = ("fg-div-product", "fg-covariant-product", "fg-half-grad-square",
       "fg-hessian-divergence")

CATALOG_COLD = (
    _t("verify-example space-form-gradient --points 200", _GRADIENT, 200),
    _t("verify-example euclidean-gradient --points 200", _GRADIENT, 200),
    # the claimed field is not conformal: the failing check is the verdict
    _t("verify-example euclidean-conformal-claimed --points 200",
       [("conformal-killing", False)], 200),
    _t("verify-example euclidean-conformal-corrected --points 200",
       ["conformal-killing"], 200),
    _t("verify-example pseudo-hyperbolic --points 200", _PSEUDO_HYPERBOLIC, 200),
    _t("verify-example neg-m-sphere --points 200", _NEG_M_SPHERE, 200),
    # flat plane, h = m/u: no identities beyond the defining residuals
    _t(f"verify-manifest {MANIFESTS}/flat-m-over-u.json",
       ["soliton-residual", "gradient-soliton-residual"], 200),
    # spherical shell (domain predicate), h = -m/u with non-constant lambda
    _t(f"verify-manifest {MANIFESTS}/shell-neg-m-over-u.json",
       ["soliton-residual", "gradient-soliton-residual", "eqpprinc-identity"], 200),
    _t("classify --example neg-m-sphere", [], 200),
    _t(f"construct-warped --base pseudo-hyperbolic --out {TMP}/product.json",
       ["warped-einstein"], 200),
    _t("check-identity divric", ["divric-identity"], 200),
    _t("check-identity eqpprinc", ["eqpprinc-identity"], 200),
    _t("check-identity mu-const", ["mu-constancy"], 200),
    _t("check-identity conformal-factor",
       ["conformal-factor-hessian", "factor-potential"], 200),
    _t("check-identity oneill", ["oneill"], 200),
)


def _suite(name: str, dim: int, metrics: int, points: int = 100) -> Template:
    checks = {"bianchi": ["bianchi"], "fg-formulas": _FG, "lemma21": ["lemma21"]}[name]
    return _t(f"check-identity {name} --dim {dim} --random-metrics {metrics} "
              f"--points {points}", checks, metrics * points)


_SMALL_SUITES = tuple(_suite(name, dim, metrics)
                      for dim, metrics in ((3, 4), (4, 1))
                      for name in ("bianchi", "fg-formulas", "lemma21"))

IDENTITY_SUITES = _SMALL_SUITES + (
    _suite("bianchi", 5, 1),
    # the fourth suite of solitonlab.identities; small DAG, per-point oracle
    _t("check-identity oneill --points 100", ["oneill"], 100),
)

POINT_SWEEP = (
    _t("verify-example neg-m-sphere --points 20000", _NEG_M_SPHERE, 20000),
    _t("verify-example space-form-gradient --c -1 --points 20000", _GRADIENT, 20000),
    _t("verify-example pseudo-hyperbolic --l 4 --points 20000",
       _PSEUDO_HYPERBOLIC, 20000),
    # 5000 points keeps this process near 250 MB (20000 points: about 1 GB)
    _t("check-identity bianchi --random-metrics 1 --points 5000", ["bianchi"], 5000),
    _t("check-identity oneill --points 2000", ["oneill"], 2000),
)

# The long-lived session mixes catalog commands with the random-metric suites
# small enough to revisit often (the dim-5 suite alone would take most calls).
SESSION_TEMPLATES = CATALOG_COLD + _SMALL_SUITES

_COLD = {"catalog-cold": CATALOG_COLD, "identity-suites": IDENTITY_SUITES,
         "point-sweep": POINT_SWEEP}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def build(workload: str, seed: int) -> list:
    """The command list of one pass of a cold workload."""
    rng = _rng(workload, seed)
    return [t.with_seed(rng.randrange(*_SEED_RANGE)) for t in _COLD[workload]]


def session_plan(seed: int, rounds: int) -> list:
    """(command, revisit, round) triples for api-session.

    Every round runs each session template twice, in the order written
    above: first fresh, with a new sampler seed, then revisiting that
    template's argv from a random round so far (this one included), whose
    report must come out byte-identical.  The order does not depend on the
    seed, because the session's peak RSS does: it is set by where the fresh
    large suites fall in the growing process.
    """
    rng = _rng("api-session", seed)
    earlier = {t: [] for t in SESSION_TEMPLATES}
    plan = []
    for r in range(rounds):
        for t in SESSION_TEMPLATES:
            fresh = t.with_seed(rng.randrange(*_SEED_RANGE))
            earlier[t].append(fresh)
            plan.append((fresh, False, r))
            plan.append((rng.choice(earlier[t]), True, r))
    return plan
