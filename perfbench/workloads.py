"""The four workloads of the fdedim benchmark.

Every workload is a closed loop with one client: the next op starts only
after the previous one has finished and passed its gate.  Ops repeat a fixed
mix of `cycle` ops, and the end-to-end figures cover whole cycles only, so
that every run measures the same mix.  A workload object is built from the
workload seed; building it is the per-run preparation that `setup_s`
counts.  `make_input(i)` derives the inputs of op i from the seed (untimed),
`op(inp)` calls into fdedim (timed) and `check(inp, out)` is the correctness
gate: it returns False for a wrong output.

Program calls go through module attributes (`sim.simulate_rde`, never a name
imported from `fdedim.sim`) so that the tracer's wrappers see every call.
The inputs follow the acceptance criteria of tests/test_acceptance.py; at
seed 0 the ensemble's per-kind input streams are the criteria's own.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from fdedim import boxdim as bx
from fdedim import bounds as bd
from fdedim import charroots, cli, sim, spectral
from fdedim import covering as cv
from fdedim.core import (GridSpec, HistorySegment, random_segment,
                         random_smooth_segment, sup_norm)

# Seed s shifts every criterion seed stream by s * SEED_STRIDE, so seed 0 is
# the acceptance criteria's own inputs and distinct seeds never share one.
SEED_STRIDE = 1_000_003
DEFAULT_SEED = 0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Pipeline:
    """`fdedim pipeline` on the scripts/run_rde_pipeline.py demo config.

    The user's one-command path, mixing every layer: sim (12 simulate_rde
    calls, 8 of them in fit_dichotomy_K), bounds (the optimize_bound and
    bound_grid_csv scans), boxdim on ~130 points and the report writers.
    Op i runs with --seed = workload seed + i.
    """

    name = "pipeline"
    tail_pct = 80.0
    cycle = 1
    ARGV = ["pipeline", "--a", "1.0", "--b", "0.3", "--r", "1.0",
            "--num-modes", "3", "--num-nodes", "33", "--dt", "0.015625",
            "--floor", "-3.7", "--m", "1", "--k-trials", "8",
            "--nonlinearity", "tanh", "--kappa", "0.05",
            "--T", "4", "--transient", "2"]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.outdir = os.path.join(workdir, "pipeline")
        self.report_path = os.path.join(self.outdir, "pipeline_report.json")
        # pipeline_report.json of op 0, kept from its first run (the
        # warm-up) so that every rerun of op 0 must reproduce it byte for byte
        self.reference = None

    def make_input(self, i: int) -> int:
        return i

    def op(self, i: int) -> int:
        argv = self.ARGV + ["--seed", str(self.seed + i),
                            "--output-dir", self.outdir]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, i: int, code: int) -> bool:
        if code != 0:
            return False
        with open(self.report_path, "rb") as f:
            data = f.read()
        if i == 0:
            if self.reference is None:
                self.reference = data
            elif data != self.reference:
                return False
        report = json.loads(data)
        bounds = [report["hausdorff"]["bound"],
                  (report["fractal"] or {}).get("bound")]
        return all(isinstance(b, float) and math.isfinite(b) and b > 0
                   for b in bounds)

    def summary(self) -> list:
        return []


class Ensemble:
    """The validation ensemble of acceptance criteria 4-6: many independent
    histories integrated on fixed grids.  Op kinds, in a fixed cycle:

      rde_pair   criterion 5 RDE trajectory pair through check_squeeze
      dichotomy  criterion 4 Q-projected history through linear_semigroup,
                 checked against K e^{rho_m t}
      rfde_pair  criterion 5 RFDE pair with coordinate projection
      absorbing  criterion 6 RFDE absorbing-set run through check_absorbing

    rde_pair is two of the five slots so that the median op falls inside one
    kind's latency cluster instead of on the edge between two.

    Two known shortfalls are tracked as counts, not as failures, each with
    a reference for its first draws at the default seed, so that a change
    that moves one is flagged instead of hiding behind "failed":
      p_leg      criterion 5's RDE P leg with the proof-value M1 < 1 (84 of
                 the first 100 pairs violate it)
      dichotomy  held-out rough histories whose decay exceeds the fitted K
                 (K is an empirical maximum over 20 draws times 1.1; about
                 one rough draw in 240 exceeds it, by up to 3 %)
    """

    name = "ensemble"
    tail_pct = 95.0
    CYCLE = ("rde_pair", "dichotomy", "rde_pair", "rfde_pair", "absorbing")
    cycle = len(CYCLE)
    DICHOTOMY_HORIZON = 10.0
    PAIR_HORIZON = 3.0
    ABSORBING_HORIZON = 8.0
    # tracked count -> (draws it covers, violating draws at seed 0); the
    # p_leg reference is criterion 5's, with M1 = |rho_1| / |rho_2| = 0.7143
    TRACKED = {"p_leg": (100, 84), "dichotomy": (50, 1)}

    def __init__(self, seed: int, workdir: str):
        self.offset = seed * SEED_STRIDE
        self.seed = seed
        # criteria 4 and 5: the delayed reaction-diffusion system, cut m = 1;
        # K is fitted as in criterion 4 (20 trials over [0, 10]), which
        # dominates criterion 5's 12-trial fit on [0, 5]
        self.params = sim.RDEParams(
            a=1.0, b=0.3, r=1.0, num_modes=3,
            nonlinearity=sim.NonlinearitySpec(kind="tanh", kappa=0.05))
        spectrum = charroots.ordered_spectrum(1.0, 0.3, 1.0, 3, -3.7)
        self.grid = sim.rde_grid(self.params, 33)
        self.dt = self.grid.spacing / 2.0
        self.decomp = spectral.build_decomposition(spectrum, 1, self.params,
                                                   self.grid)
        self.K, _ = spectral.fit_dichotomy_K(
            self.decomp, trials=20, horizon=self.DICHOTOMY_HORIZON)
        self.rho_m = self.decomp.rho_m
        self.rde_sc = bd.rde_constants(spectrum, 1, self.params.L_f, self.K,
                                       1.0)
        # criterion 5: diagonal two-dimensional RFDE, coordinate projection
        mu1, mu2, r = 0.5, 2.0, 0.5
        self.rfde_params = sim.RFDEParams(
            matrices=(np.diag([-mu1, -mu2]),), delays=(0.0,), r=r,
            nonlinearity=sim.NonlinearitySpec(kind="tanh", kappa=0.05))
        self.rfde_grid = GridSpec(delay_r=r, num_nodes=17, value_dim=2,
                                  value_norm="euclidean")
        self.rfde_sc = bd.rfde_constants(
            K0=math.exp(mu1 * r), gamma=mu1, beta=-mu2, K=math.exp(mu2 * r),
            L_f=self.rfde_params.L_f, t0=1.0, Lambda=1)
        # criterion 6(b): scalar RFDE entering its absorbing ball
        gamma, r, K0, L_f, f0 = 1.0, 0.25, 0.5, 0.05, 0.1
        self.abs_params = sim.RFDEParams(
            matrices=(np.array([[-gamma]]),), delays=(0.0,), r=r,
            nonlinearity=sim.NonlinearitySpec(kind="affine_tanh", kappa=L_f,
                                              offset=f0))
        self.abs_grid = GridSpec(delay_r=r, num_nodes=17, value_dim=1,
                                 value_norm="euclidean")
        self.radius = bd.absorbing_radius(K0, gamma, L_f, f0)
        self.r_D = 10.0 * self.radius
        self.T_D = bd.absorbing_entry_time(K0, gamma, L_f, f0, self.r_D)
        self.tracked = {key: {} for key in self.TRACKED}  # j -> violated
        self.totals = {key: [0, 0] for key in self.TRACKED}  # [bad, run]

    def make_input(self, i: int):
        kind = self.CYCLE[i % self.cycle]
        k = i // self.cycle
        if kind == "rde_pair":
            j = 2 * k + (0 if i % self.cycle == 0 else 1)
            rng = np.random.default_rng(89_000 + 17 * j + self.offset)
            return kind, j, (random_smooth_segment(self.grid, rng),
                             random_smooth_segment(self.grid, rng))
        j = k
        if kind == "dichotomy":
            rng = np.random.default_rng(77_000 + 101 * j + self.offset)
            draw = random_segment if j % 2 == 0 else random_smooth_segment
            return kind, j, draw(self.grid, rng)
        if kind == "rfde_pair":
            rng = np.random.default_rng(88_000 + 31 * j + self.offset)
            return kind, j, (random_smooth_segment(self.rfde_grid, rng),
                             random_smooth_segment(self.rfde_grid, rng))
        rng = np.random.default_rng(67_000 + 13 * j + self.offset)
        raw = random_smooth_segment(self.abs_grid, rng)
        return kind, j, (self.r_D / sup_norm(raw)) * raw

    def op(self, inp):
        kind, _, data = inp
        if kind == "rde_pair":
            t1 = sim.simulate_rde(self.params, data[0], self.PAIR_HORIZON,
                                  self.dt)
            t2 = sim.simulate_rde(self.params, data[1], self.PAIR_HORIZON,
                                  self.dt)
            return sim.check_squeeze(t1, t2, self.decomp, self.rde_sc)
        if kind == "dichotomy":
            x = spectral.project(self.decomp, data, "Q")
            traj = sim.linear_semigroup(self.params, x,
                                        self.DICHOTOMY_HORIZON, self.dt)
            return traj.sample_times(), traj.norms()
        if kind == "rfde_pair":
            dt = self.rfde_grid.spacing / 2.0
            t1 = sim.simulate_rfde(self.rfde_params, data[0], 0.0,
                                   self.PAIR_HORIZON, dt, grid=self.rfde_grid)
            t2 = sim.simulate_rfde(self.rfde_params, data[1], 0.0,
                                   self.PAIR_HORIZON, dt, grid=self.rfde_grid)
            return sim.check_squeeze(t1, t2, coordinate_projection,
                                     self.rfde_sc)
        traj = sim.simulate_rfde(self.abs_params, data, 0.0,
                                 self.ABSORBING_HORIZON,
                                 self.abs_grid.spacing / 2.0,
                                 grid=self.abs_grid)
        return sim.check_absorbing(traj, self.radius)

    def check(self, inp, out) -> bool:
        kind, j, data = inp
        if kind == "rde_pair":
            parts = {v["part"] for v in out["violations"]}
            self._track("p_leg", j, "P" in parts)
            return "Q" not in parts
        if kind == "dichotomy":
            times, norms = out
            envelope = self.K * np.exp(self.rho_m * times) * sup_norm(data)
            self._track("dichotomy", j,
                        not np.all(norms <= envelope + 1e-12))
            return bool(np.all(np.isfinite(norms)))
        if kind == "rfde_pair":
            return bool(out["passed"])
        return bool(out["entered"] and out["entry_time"] <= 1.2 * self.T_D
                    and not out["exits_after_entry"])

    def _track(self, key, j, violated):
        if j < self.TRACKED[key][0]:
            self.tracked[key][j] = bool(violated)
        self.totals[key][0] += bool(violated)
        self.totals[key][1] += 1

    def summary(self) -> list:
        """(line, ok) pairs; a tracked count that moved at the default seed
        is flagged as not correct."""
        lines = []
        for key, (draws, reference) in self.TRACKED.items():
            bad, run = self.totals[key]
            line = f"tracked {key}: {bad} of {run} draws violate"
            seen = self.tracked[key]
            ok = True
            if len(seen) < draws:
                line += f"; first {draws} not reached ({len(seen)} run)"
            else:
                count = sum(seen.values())
                line += f"; first {draws}: {count}"
                if self.seed == DEFAULT_SEED:
                    ok = count == reference
                    line += (f" (reference {reference}, "
                             f"{'matches' if ok else 'MOVED'})")
            lines.append((line, ok))
        return lines


def coordinate_projection(h: HistorySegment, which: str) -> HistorySegment:
    """Criterion 5's exact splitting of the diagonal RFDE: P keeps the
    first coordinate, Q the second."""
    vals = h.values.copy()
    vals[:, 1 if which == "P" else 0] = 0.0
    return HistorySegment(h.grid, vals)


class Covering:
    """build_net, verify_covering and the covering_bound check on nets drawn
    from criterion 1's distribution: m <= 6 with the per-m ratio caps and
    low-m weights, half sup and half Euclidean norms, 1000 random probes.

    Each block of 100 ops holds exactly the criterion's share of every
    (m, norm) cell, with one ratio at the middle of each of the cell's
    equal slices of its ratio range: the cost of a sup-norm net at m >= 4
    (the heavy tail) varies several-fold within one slice, so ratios drawn
    at random would make the work of a run depend on the seed.  The
    seed sets the order in which each cell visits its slices (golden-ratio
    steps from a random start).  A run holds only about two blocks, so each
    block is interleaved: cells take turns in proportion to their share,
    and every prefix of a block does nearly the same mix of work.  Op 0,
    the warm-up, is always a cheap m = 1 net.
    """

    name = "covering"
    tail_pct = 90.0
    RATIO_HI = {1: 16.0, 2: 8.0, 3: 3.5, 4: 2.2, 5: 1.6, 6: 1.35}
    PER_BLOCK = {1: 25, 2: 25, 3: 20, 4: 15, 5: 8, 6: 7}
    BLOCK = sum(PER_BLOCK.values())
    cycle = BLOCK
    RANDOM_PROBES = 1000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self._block = (None, None)

    def _make_block(self, b: int) -> list:
        rng = np.random.default_rng([self.seed, b])
        keyed = []
        for m, count in self.PER_BLOCK.items():
            for kind, n in (("sup", (count + 1) // 2),
                            ("euclidean", count // 2)):
                ratios = 1.01 + (self.RATIO_HI[m] - 1.01) * (
                    (np.arange(n) + 0.5) / n)
                order = np.argsort((np.arange(n) * GOLDEN + rng.random())
                                   % 1.0)
                turn = (np.arange(n) + 0.5) / n
                keyed += [(turn[j], m, kind, ratios[order[j]])
                          for j in range(n)]
        return [entry[1:] for entry in sorted(keyed)]

    def make_input(self, i: int):
        b = i // self.BLOCK
        if self._block[0] != b:
            self._block = (b, self._make_block(b))
        m, kind, ratio = self._block[1][i % self.BLOCK]
        return cv.NormSpec(m, kind), float(ratio)

    def op(self, inp):
        norm, ratio = inp
        net = cv.build_net(norm, ratio, 1.0, random_probes=self.RANDOM_PROBES)
        return net, self.certify(inp, net)

    def certify(self, inp, net) -> dict:
        norm, ratio = inp
        report = cv.verify_covering(net, norm, ratio, 1.0,
                                    probes=self.RANDOM_PROBES)
        report["bound"] = cv.covering_bound(norm.dim, ratio, 1.0)
        return report

    def check(self, inp, out) -> bool:
        net, report = out
        return bool(report["passed"] and report["num_centers"] == len(net)
                    and len(net) <= report["bound"])

    def summary(self) -> list:
        return []


class Boxcount:
    """diameter followed by box_counting_dim on criterion 8's synthetic sets
    in D = 64: a segment along a sparse direction (dimension 1) and an axis
    square (dimension 2), each of POINTS fresh random points per op.

    The segment keeps criterion 8's boxes (eps = 0.25 halved 7 times).  The
    square's finest level must hold far fewer cells than points, so it
    starts at eps = 0.5 and halves 5 times (1024 finest cells, the least
    span box_counting_dim accepts).  The segment is the slower set; two
    segments per square put the median op inside the segment cluster rather
    than on the edge between the two.
    """

    name = "boxcount"
    tail_pct = 75.0
    D = 64
    POINTS = 4000
    CYCLE = ("segment", "square", "segment")
    cycle = len(CYCLE)
    SETS = {"segment": (1.0, bx.dyadic_eps(0.25, 7)),
            "square": (2.0, bx.dyadic_eps(0.5, 5))}
    TOLERANCE = 0.15

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.direction = np.zeros(self.D)
        self.direction[[3, 17, 40]] = [1.0, 0.7, 0.3]
        self.square = np.zeros((2, self.D))
        self.square[0, 5] = 1.0
        self.square[1, 23] = 1.0

    def make_input(self, i: int):
        kind = self.CYCLE[i % self.cycle]
        rng = np.random.default_rng([self.seed, i])
        if kind == "segment":
            pts = np.outer(rng.uniform(0.0, 1.0, self.POINTS),
                           self.direction)
        else:
            pts = rng.uniform(0.0, 1.0, (self.POINTS, 2)) @ self.square
        return kind, bx.AttractorSample(points=pts, transient_dropped=0.0,
                                        source={"set": kind})

    def op(self, inp):
        kind, sample = inp
        diam = bx.diameter(sample)
        return diam, bx.box_counting_dim(sample, self.SETS[kind][1])

    def check(self, inp, out) -> bool:
        kind, _ = inp
        diam, result = out
        counts = result["counts"]
        return bool(0.9 < diam <= 1.0
                    and all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
                    and abs(result["estimate"] - self.SETS[kind][0])
                    <= self.TOLERANCE)

    def summary(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (Pipeline, Ensemble, Covering, Boxcount)}
