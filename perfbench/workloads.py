"""The three benchmark workloads: inputs, the timed operation, and checks.

Every operation of a workload makes the same calls at the same g; only
the parameters vary.  They come from a list of `ROUND` entries made from
the workload seed, and a run repeats that list in whole rounds.  Each
workload provides

  * params(seed)        the list of inputs, a pure function of the seed;
  * run(tg, prm, ctx)   one operation through the library (timed);
  * digest(out)         a few numbers that identify the output, taken in
                        the loop so later rounds can be compared with the
                        checked one without keeping whole outputs;
  * check(tg, prm, out) the independent checks, outside the timed region.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracles

TWO_PI = 2.0 * math.pi


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, salt]))


def _latin(rng, n: int, dims: int, design: int) -> np.ndarray:
    """n points in [0, 1)^dims, one in each of the n strata of every
    coordinate (Latin hypercube).

    Which strata share a point is fixed by `design`, not by the seed; the
    seed (through `rng`) only moves each point within its cell.  The cost
    of an operation depends jointly on several coordinates (in
    sample_fit_offcentre on distance and scale together), so a pairing
    drawn afresh for every seed would change which operations make up the
    slowest tenth of a round, and p90 with it, from seed to seed."""
    fixed = np.random.Generator(np.random.PCG64(design))
    cells = np.stack([fixed.permutation(n) for _ in range(dims)], axis=1)
    return (cells + rng.random((n, dims))) / n


def _rotation(rng, g: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((g, g)))
    return Q * np.sign(np.diag(R))


def _sym(M: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy (B[i, j] == B[j, i] bit for bit)."""
    return np.triu(M) + np.triu(M, 1).T


class StatsG4:
    """g = 4, centred well-conditioned B, every other parameter complex:
    DiscreteGaussian, mean_cov, entropy and all 35 order-4 cumulants.

    Re(B) has smallest eigenvalue exactly LAMBDA_MIN and |Re u| stays
    small, so every operation is certified with the same lattice radius."""

    name = "stats_g4"
    ROUND = 32
    G = 4
    LAMBDA_MIN = 0.5
    CUBE = 7  # brute-force half-width: the tail beyond it is below 1e-30

    def params(self, seed: int) -> list[dict]:
        rng = _rng(seed, 1)
        out = []
        for k in range(self.ROUND):
            lam = np.concatenate([[self.LAMBDA_MIN], rng.uniform(0.5, 1.5, self.G - 1)])
            Q = _rotation(rng, self.G)
            B = _sym(Q @ np.diag(lam) @ Q.T).astype(complex)
            u = B.real @ rng.uniform(-0.15, 0.15, self.G) + 0j
            if k % 2:
                u = u + 1j * rng.uniform(-0.25, 0.25, self.G)
                B = B + 1j * _sym(rng.uniform(-0.15, 0.15, (self.G, self.G)))
            out.append({"u": u, "B": B, "real": k % 2 == 0})
        return out

    def run(self, tg, prm, ctx):
        d = tg.DiscreteGaussian(prm["u"], prm["B"])
        mean, cov = d.mean_cov()
        h = d.entropy()
        idx = tg.multiindex.indices_of_order(self.G, 4)
        kappa = np.array([d.cumulant(a) for a in idx])
        return {"mean": mean, "cov": cov, "entropy": h, "indices": idx, "kappa": kappa}

    def digest(self, out) -> np.ndarray:
        return np.concatenate(
            [out["mean"], out["cov"].ravel(), [out["entropy"]], out["kappa"]]
        )

    def check(self, tg, prm, out):
        u, B = prm["u"], prm["B"]
        pts = oracles.cube(self.G, self.CUBE)
        t, p, mean, cov = oracles.law(pts, u, B)
        scale = max(1.0, float(np.max(np.abs(cov))))
        _expect(np.allclose(out["mean"], mean, rtol=0, atol=1e-9), "mean differs from brute force")
        _expect(np.allclose(out["cov"], cov, rtol=0, atol=1e-9 * scale), "covariance differs")
        if prm["real"]:
            h = oracles.entropy_real(p)
        else:
            h = oracles.entropy_formula(t, mean, cov, u, B)
        _expect(abs(out["entropy"] - h) < 1e-8, f"entropy {out['entropy']} != brute force {h}")
        idx = oracles.order4_indices(self.G)
        _expect(list(out["indices"]) == idx, "order-4 index list differs")
        kappa = oracles.fourth_cumulants(pts, p, mean, idx)
        err = float(np.max(np.abs(out["kappa"] - kappa)))
        _expect(err < 1e-8 * scale**2, f"order-4 cumulants differ by {err:.3e}")


class SampleFitOffcentre:
    """g = 2 real parameters, mean up to Mahalanobis distance 20 from the
    origin: draw 2e4, chi_square against the true law, fit_from_sample."""

    name = "sample_fit_offcentre"
    ROUND = 64
    DRAWS = 20_000
    FIT_TOL = 1e-6
    MAX_MAHALANOBIS = 20.0
    # family-wise false-alarm rate of the goodness-of-fit check over a round
    ALPHA = 1e-4

    def params(self, seed: int) -> list[dict]:
        rng = _rng(seed, 2)
        grid = _latin(rng, self.ROUND, 5, design=2)
        out = []
        for x in grid:
            s = 0.5 + x[:2]
            r = -0.6 + 1.2 * x[2]
            S = self._sigma(s[0], s[1], r)
            angle = TWO_PI * x[3]
            direction = np.linalg.cholesky(S) @ np.array([math.cos(angle), math.sin(angle)])
            out.append(self._point(S, self.MAX_MAHALANOBIS * x[4] * direction, rng))
        # slot 0 is the cold operation that set-up time includes: keep it
        # the same for every seed
        out[0] = self._point(self._sigma(1.0, 1.0, 0.3), np.array([10.0, 0.0]), rng)
        out[0]["seed"] = 0
        return out

    @staticmethod
    def _sigma(s0: float, s1: float, r: float) -> np.ndarray:
        return np.array([[s0 * s0, r * s0 * s1], [r * s0 * s1, s1 * s1]])

    @staticmethod
    def _point(S: np.ndarray, mu: np.ndarray, rng) -> dict:
        """Continuous-Gaussian kernel B = Sigma^-1 / 2 pi, u = B mu."""
        B = _sym(np.linalg.inv(S) / TWO_PI)
        return {"u": B @ mu, "B": B, "seed": int(rng.integers(2**32))}

    def run(self, tg, prm, ctx):
        p = tg.CanonicalPoint(prm["u"], prm["B"])
        x = tg.draw(p, self.DRAWS, tg.SamplerConfig(seed=prm["seed"]))
        stat, dof = tg.chi_square(x, p)
        report = tg.fit_from_sample(x, tol=self.FIT_TOL)
        return {"draws": x, "stat": stat, "dof": dof, "report": report}

    def digest(self, out) -> np.ndarray:
        x, rep = out["draws"], out["report"]
        return np.concatenate(
            [
                x.sum(axis=0),
                (x * x).sum(axis=0),
                [out["stat"], out["dof"], rep.iterations],
                rep.params.u,
                rep.params.B.ravel(),
            ]
        ).astype(float)

    def check(self, tg, prm, out):
        from scipy.stats import chi2

        x, rep = out["draws"], out["report"]
        _expect(x.dtype.kind == "i" and x.shape == (self.DRAWS, 2), "draws are not integer pairs")
        # the pmf over a box of +-20 standard deviations around the mean
        u, B = prm["u"], prm["B"]
        centre = np.round(np.linalg.solve(B, u)).astype(int)
        half = int(math.ceil(20.0 * math.sqrt(np.max(np.diag(np.linalg.inv(B)) / TWO_PI)))) + 2
        pts = oracles.box(centre - half, centre + half)
        _, p, _, _ = oracles.law(pts, u, B)
        stat, dof = oracles.pearson(x, pts, p, tg.sampler.MIN_EXPECTED_CELL)
        _expect(dof == out["dof"], f"chi-square dof {out['dof']} != {dof}")
        _expect(
            abs(stat - out["stat"]) <= 1e-9 * max(1.0, stat),
            f"chi-square statistic {out['stat']} != Pearson {stat}",
        )
        pval = float(chi2.sf(stat, dof))
        _expect(pval >= self.ALPHA / self.ROUND, f"sample fails goodness of fit, p = {pval:.3e}")
        # the fitted law reproduces the sample moments (ddof = 1)
        smean = x.mean(axis=0)
        c = x - smean
        scov = c.T @ c / (len(x) - 1)
        fu, fB = rep.params.u, rep.params.B
        fpts = oracles.box(np.round(smean).astype(int) - half, np.round(smean).astype(int) + half)
        _, _, fmean, fcov = oracles.law(fpts, fu, fB)
        err = max(float(np.max(np.abs(fmean - smean))), float(np.max(np.abs(fcov - scov))))
        _expect(err <= self.FIT_TOL + 1e-9, f"fitted moments miss the sample by {err:.3e}")


class GeometryFixedB:
    """g = 2 complex B: the CLI `kummer` job (60 points, in-process, with a
    params file and --output), then find_theta_zero on a line through the
    odd half-period (i e1 + B e1)/2 at the same B."""

    name = "geometry_fixed_B"
    ROUND = 32
    POINTS = 60
    DIRECTION = np.array([1.0, 0.5 + 0.2j])
    OFFSET = 0.37  # the planted zero sits at t = OFFSET, off the scan grid
    ZERO_TOL = 1e-10  # find_theta_zero's default tolerance
    CUBE = 10

    def params(self, seed: int) -> list[dict]:
        rng = _rng(seed, 3)
        out = []
        grid = _latin(rng, self.ROUND, 6, design=3)
        # slot 0 is the cold operation that set-up time includes: keep it
        # the same for every seed
        grid[0] = (0.3, 0.3, 0.7, 0.8, 0.3, 0.6)
        for x in grid:
            c, s = math.cos(math.pi * x[0]), math.sin(math.pi * x[0])
            Q = np.array([[c, -s], [s, c]])
            B = Q @ np.diag(0.6 + 0.8 * x[1:3]) @ Q.T
            # |Im B12| >= 0.2 keeps B away from the diagonal, where the
            # surface splits into a product and the quartic is not unique
            v = 2.0 * x[4] - 1.0
            im12 = math.copysign(0.2 + 0.3 * abs(v), v)
            B = _sym(B) + 1j * np.array([[x[3] - 0.5, im12], [im12, x[5] - 0.5]])
            half_period = 0.5 * (1j * np.array([1.0, 0.0]) + B[:, 0])
            out.append(
                {
                    "B": B,
                    "seed": int(rng.integers(2**31)),
                    "line": (half_period - self.OFFSET * self.DIRECTION, self.DIRECTION),
                }
            )
        out[0]["seed"] = 0
        return out

    def prepare(self, params: list[dict], workdir: str):
        """Write each operation's params file (before timing) and name its
        output file."""
        for k, prm in enumerate(params):
            path = os.path.join(workdir, f"params_{k}.json")
            B = prm["B"]
            doc = {"g": 2, "B": [[[B[i, j].real, B[i, j].imag] for j in range(2)] for i in range(2)]}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            prm["params_file"] = path
            prm["output_file"] = os.path.join(workdir, f"output_{k}.json")

    def run(self, tg, prm, ctx):
        argv = [
            "kummer",
            "--params", prm["params_file"],
            "--output", prm["output_file"],
            "--seed", str(prm["seed"]),
            "--count", str(self.POINTS),
        ]
        code = tg.cli.main(argv)
        with open(prm["output_file"], "r", encoding="utf-8") as fh:
            text = fh.read()
        ctx["cli.output_bytes"] += len(text.encode())
        zero = tg.find_theta_zero(prm["line"], prm["B"])
        return {"code": code, "text": text, "zero": zero}

    def digest(self, out) -> np.ndarray:
        return np.concatenate([[out["code"], len(out["text"])], out["zero"]]).astype(complex)

    def check(self, tg, prm, out):
        _expect(out["code"] == 0, f"kummer exited with code {out['code']}")

        def reject(name):
            raise CheckFailed(f"kummer output holds the non-JSON constant {name}")

        doc = json.loads(out["text"], parse_constant=reject)
        res = doc["result"]
        _expect(res["points_used"] == self.POINTS, "kummer used the wrong number of points")
        _expect(res["residual"] < 1e-10, f"Kummer residual {res['residual']:.3e} is not ~0")
        _expect(
            res["second_smallest"] > 1e4 * max(res["residual"], 1e-16),
            "second-smallest singular value is not clear of the residual",
        )
        base, direction = prm["line"]
        zero = out["zero"]
        t = complex(np.dot(np.conj(direction), zero - base) / np.vdot(direction, direction))
        _expect(np.allclose(base + t * direction, zero, rtol=0, atol=1e-12), "zero is off the line")
        value = abs(oracles.theta(oracles.cube(2, self.CUBE), zero, prm["B"]))
        _expect(value < self.ZERO_TOL, f"brute-force |theta| at the zero is {value:.3e}")


WORKLOADS = {w.name: w for w in (StatsG4(), SampleFitOffcentre(), GeometryFixedB())}
