# the symbolic curvature layer against numpy curvature built from metric jets

import numpy as np
import pytest

import oracles
from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import identities as idn

# catalog structures at their defaults, and the other space form and fiber
CATALOG = [(example_id, None) for example_id, spec in sorted(exm.EXAMPLES.items())
           if spec.structure] + [("space-form-gradient", {"c": -1}),
                                 ("pseudo-hyperbolic", {"l": 4.0})]


def symbolic(g, phi, points):
    n = g.chart.dim
    gam = geo.christoffel(g)
    ric = geo.ricci(g)
    tensors = [gam, ric.comps, geo.scalar_curvature(g).expr, geo.hessian(g, phi).comps,
               geo.divergence_sym2(g, ric).comps]
    vals = geo.eval_tensors(g.chart, tensors, points)
    assert vals[0].shape == (len(points), n, n, n)
    return dict(zip(("christoffel", "ricci", "scalar", "hessian", "div_ricci"), vals))


def assert_layers_agree(g, phi, points):
    want = symbolic(g, phi, points)
    got = oracles.curvature_from_jets(g, phi, points)
    for name, w in want.items():
        # relative to the tensor's largest value, or absolute below 1: div Ric
        # of an Einstein metric is rounding noise on terms of order 1
        scale = max(np.abs(w).max(), np.abs(got[name]).max(), 1.0)
        err = np.abs(got[name] - w).max()
        assert err <= 1e-12 * scale, (name, err, scale)


@pytest.mark.parametrize("example_id,params", CATALOG,
                         ids=[f"{e}-{p}" if p else e for e, p in CATALOG])
def test_catalog_curvature_matches_metric_jets(example_id, params):
    s = exm.build_structure(example_id, params)
    points = geo.sample_points(s.metric.chart, 12, 5)
    assert_layers_agree(s.metric, s.potential, points)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_suite_metric_curvature_matches_metric_jets(dim):
    for g in idn.suite_metrics(dim, 2 if dim < 5 else 1, 13):
        points = geo.sample_points(g.chart, 8, dim)
        # a scalar with nonzero Hessian in every direction
        phi = geo.ScalarField(g.chart, ex.nsum(ex.mul(g.comps[i][i], ex.coord(i))
                                               for i in range(dim)))
        assert_layers_agree(g, phi, points)
