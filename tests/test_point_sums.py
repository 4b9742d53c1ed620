"""One summand memo per discrete Gaussian: engine.PointSums and its callers."""

import json

import numpy as np
import pytest

from thetagauss import cli, engine
from thetagauss.distribution import DiscreteGaussian
from thetagauss.engine import ThetaPoint, lattice_points, theta_du_many, truncation_radius
from thetagauss.multiindex import indices_of_order, indices_up_to, unit


def stats_point(rng, g=4):
    """A centred, well-conditioned complex point like the stats_g4 workload's."""
    Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    lam = np.concatenate([[0.5], rng.uniform(0.5, 1.5, g - 1)])
    M = Q @ np.diag(lam) @ Q.T
    S = rng.uniform(-0.15, 0.15, (g, g))
    B = np.triu(M) + np.triu(M, 1).T + 1j * (np.triu(S) + np.triu(S, 1).T)
    u = B.real @ rng.uniform(-0.15, 0.15, g) + 1j * rng.uniform(-0.25, 0.25, g)
    return u, B


def random_point(rng, g, real):
    A = rng.normal(size=(g, g))
    B = A @ A.T / g + 0.5 * np.eye(g)
    u = rng.normal(size=g) * 0.3
    if not real:
        S = rng.normal(size=(g, g)) * 0.2
        B = B + 1j * (S + S.T)
        u = u + 1j * rng.normal(size=g) * 0.3
    return u, B


def test_law_forms_each_summand_once(rng, monkeypatch):
    u, B = stats_point(rng)
    seen = []
    pair_summands = engine._pair_summands

    def counting(pts, *args):
        seen.append(len(pts))
        return pair_summands(pts, *args)

    monkeypatch.setattr(engine, "_pair_summands", counting)
    d = DiscreteGaussian(u, B)
    d.mean_cov()
    d.entropy()
    kappa = [d.cumulant(a) for a in indices_of_order(4, 4)]
    assert len(kappa) == 35
    R4 = truncation_radius(B, u, unit(4, 0, 0, 0, 0), d.eps).radius
    assert d.sums.radius == R4
    assert sum(seen) == (len(lattice_points(4, R4)) + 1) // 2  # the origin and one of each pair


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("orders", [(0, 2, 4), (4, 2), (4,)])
def test_tables_do_not_depend_on_request_order(rng, g, real, orders):
    u, B = random_point(rng, g, real)
    d = DiscreteGaussian(u, B)
    for q in orders:
        idx = indices_up_to(g, q)
        one_shot = theta_du_many(idx, ThetaPoint(u, B), d.eps)
        law = d.sums.table(idx)
        assert list(law) == list(one_shot)
        for a in idx:
            assert np.complex128(law[a]).tobytes() == np.complex128(one_shot[a]).tobytes()


def test_overflow_raises_typed_error():
    sums = engine.PointSums(ThetaPoint([25.0], [[1.0]]))
    with pytest.raises(engine.ToleranceUnreachable, match="the summands overflow"):
        sums.table([(0,)])


def test_entropy_reports_the_radius_it_summed(tmp_path):
    """g = 1, B = 0.05: theta needs radius 20 at eps 1e-9, the order-2 table
    behind the entropy radius 22."""
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"g": 1, "u": [[0.3, 0.0]], "B": [[[0.05, 0.0]]]}))
    out = tmp_path / "out.json"
    argv = ["entropy", "--params", str(params), "--tol", "1e-9", "--output", str(out)]
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["diagnostics"]["radius"] == 22
    assert truncation_radius([[0.05]], [0.3], None, 1e-9).radius == 20
