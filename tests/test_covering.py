import csv
import io
import pathlib
import runpy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdedim import covering as cv
from fdedim.covering import (COVER_SLACK, NormSpec, build_net, covering_bound,
                             net_to_csv, verify_covering)
from fdedim.errors import ConfigError, NetConstructionError

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


class TestNormSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            NormSpec(0, "sup")
        with pytest.raises(ConfigError):
            NormSpec(2, "manhattan")
        with pytest.raises(ConfigError):
            NormSpec(2, "weighted-sup", (1.0,))
        with pytest.raises(ConfigError):
            NormSpec(2, "weighted-sup", (1.0, -1.0))
        with pytest.raises(ConfigError):
            NormSpec(2, "sup", (1.0, 1.0))

    def test_norms(self):
        v = np.array([3.0, -4.0])
        assert NormSpec(2, "sup").norm(v) == 4.0
        assert NormSpec(2, "euclidean").norm(v) == 5.0
        assert NormSpec(2, "weighted-sup", (2.0, 0.5)).norm(v) == 6.0


class TestCoveringBound:
    def test_arithmetic_examples(self):
        assert covering_bound(1, 3.0, 1.0) == 8.0
        assert covering_bound(2, 2.0, 1.0) == 72.0

    def test_increasing_in_m(self):
        for ratio in (1.5, 4.0, 10.0):
            vals = [covering_bound(m, ratio, 1.0) for m in range(1, 7)]
            assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            covering_bound(2, 1.0, 1.0)
        with pytest.raises(ConfigError):
            covering_bound(2, 1.0, 2.0)


class TestBuildNet:
    def test_1d_interval(self):
        net = build_net(NormSpec(1, "sup"), 3.0, 1.0)
        assert len(net) <= 8  # the combinatorial bound
        rep = verify_covering(net, NormSpec(1, "sup"), 3.0, 1.0)
        assert rep["passed"]

    def test_near_equal_radii(self):
        net = build_net(NormSpec(1, "sup"), 1.0 + 1e-9, 1.0)
        assert len(net) == 1
        assert np.allclose(net[0], 0.0)

    def test_2d_euclidean(self):
        norm = NormSpec(2, "euclidean")
        net = build_net(norm, 2.0, 1.0)
        assert len(net) <= 72
        assert verify_covering(net, norm, 2.0, 1.0)["passed"]

    def test_scale_invariance(self):
        norm = NormSpec(2, "euclidean")
        a = build_net(norm, 2.0, 1.0)
        b = build_net(norm, 20.0, 10.0)
        assert len(a) == len(b)
        assert np.allclose(b, 10.0 * a)

    def test_weighted_sup(self):
        norm = NormSpec(2, "weighted-sup", (1.0, 2.0))
        net = build_net(norm, 2.0, 1.0)
        assert verify_covering(net, norm, 2.0, 1.0)["passed"]

    def test_randomized_below_bound(self):
        # joint (m, ratio) sampling keeps the greedy construction at desk
        # scale; the full 1000-trial sweep lives in the acceptance suite
        rng = np.random.default_rng(20)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            ratio_cap = {1: 16.0, 2: 10.0, 3: 5.0, 4: 3.0}[m]
            ratio = rng.uniform(1.01, ratio_cap)
            kind = rng.choice(["sup", "euclidean"])
            norm = NormSpec(m, kind)
            net = build_net(norm, ratio, 1.0, random_probes=20_000)
            assert len(net) <= covering_bound(m, ratio, 1.0)
            assert verify_covering(net, norm, ratio, 1.0,
                                   probes=20_000)["passed"]


class TestVerifyCovering:
    def test_missing_center_detected(self):
        norm = NormSpec(1, "sup")
        net = build_net(norm, 3.0, 1.0)
        # drop the center covering the right edge
        edge = net[np.argmax(net[:, 0])]
        bad = net[net[:, 0] < edge[0]]
        rep = verify_covering(bad, norm, 3.0, 1.0)
        assert not rep["passed"]
        assert "witness_probe" in rep
        assert abs(rep["witness_probe"][0]) > 1.0

    def test_probe_scaling_stable(self):
        norm = NormSpec(2, "sup")
        net = build_net(norm, 2.0, 1.0)
        small = verify_covering(net, norm, 2.0, 1.0, probes=10_000)
        large = verify_covering(net, norm, 2.0, 1.0, probes=100_000)
        assert small["passed"] and large["passed"]

    def test_empty_centers_rejected(self):
        with pytest.raises(ConfigError):
            verify_covering(np.zeros((0, 2)), NormSpec(2, "sup"), 2.0, 1.0)

    def test_misshaped_centers_rejected(self):
        # a (2, 3) array once passed as three 2-vectors
        norm = NormSpec(2, "sup")
        for bad in (np.zeros((2, 3)), np.zeros(3)):
            with pytest.raises(ConfigError, match="width 3 .* dim 2"):
                verify_covering(bad, norm, 2.0, 1.0, probes=100)
        with pytest.raises(ConfigError, match=r"\(1, 2, 2\)"):
            verify_covering(np.zeros((1, 2, 2)), norm, 2.0, 1.0, probes=100)

    def test_single_vector_accepted(self):
        norm = NormSpec(2, "sup")
        one = verify_covering(np.zeros(2), norm, 2.0, 1.0, probes=100)
        rows = verify_covering(np.zeros((1, 2)), norm, 2.0, 1.0, probes=100)
        assert one == rows
        assert one["num_centers"] == 1 and not one["passed"]

    @pytest.mark.parametrize("kind", ["sup", "euclidean"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_thinned_net_fails(self, m, kind):
        # the last center was a probe beyond r2 (1 + COVER_SLACK) of every
        # earlier center, and verify_covering probes the same cloud
        norm = NormSpec(m, kind)
        ratio = {2: 3.0, 3: 2.0, 4: 1.6}[m]
        net = build_net(norm, ratio, 1.0, random_probes=2_000)
        assert len(net) > 1
        assert verify_covering(net, norm, ratio, 1.0, probes=2_000)["passed"]
        rep = verify_covering(net[:-1], norm, ratio, 1.0, probes=2_000)
        assert not rep["passed"]
        assert rep["max_uncovered_distance"] > 1.0 + COVER_SLACK
        assert "witness_probe" in rep


def test_net_csv():
    net = build_net(NormSpec(2, "sup"), 1.5, 1.0)
    buf = io.StringIO()
    net_to_csv(net, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == len(net) + 1


def _reference_net_csv(centers, f):
    """The csv-module loop that core.write_csv replaced in net_to_csv,
    kept verbatim in logic."""
    centers = np.asarray(centers, dtype=float)
    w = csv.writer(f)
    w.writerow([f"x{k + 1}" for k in range(centers.shape[1])])
    for row in centers:
        w.writerow([repr(float(x)) for x in row])


@pytest.mark.parametrize("norm", [
    NormSpec(1), NormSpec(2), NormSpec(3, "euclidean"),
    NormSpec(2, "weighted-sup", (1.0, 0.5))], ids=repr)
def test_net_csv_matches_reference(norm):
    net = build_net(norm, 2.0, 1.0)
    got, want = io.StringIO(), io.StringIO()
    net_to_csv(net, got)
    _reference_net_csv(net, want)
    assert got.getvalue() == want.getvalue()


@given(st.integers(min_value=1, max_value=3),
       st.floats(min_value=1.05, max_value=4.0))
@settings(max_examples=15, deadline=None)
def test_net_size_never_exceeds_bound(m, ratio):
    norm = NormSpec(m, "sup")
    net = build_net(norm, ratio, 1.0, random_probes=5_000)
    assert len(net) <= covering_bound(m, ratio, 1.0)


def test_covering_sweep_script_runs():
    sweep = runpy.run_path(str(SCRIPTS / "covering_sweep.py"))
    assert sweep["main"](["--trials", "12", "--probes", "500"]) == 0


# ---------------------------------------------------------------------------
# The distance kernel against the per-center loops it replaced
# ---------------------------------------------------------------------------

def _reference_build_net(norm, r1, r2, random_probes, max_centers=None):
    """build_net's loop before the transposed kernel: norm(probes - c)."""
    guard = 10.0 * covering_bound(norm.dim, r1, r2)
    if max_centers is not None:
        guard = min(guard, float(max_centers))
    probes = cv._probe_cloud(norm, r1, r2, random_probes)
    centers = [np.zeros(norm.dim)]
    dist = norm.norm(probes)
    threshold = r2 * (1.0 + COVER_SLACK)
    while True:
        idx = int(np.argmax(dist))
        if dist[idx] <= threshold:
            break
        if len(centers) >= guard:
            raise NetConstructionError("guard")
        c = probes[idx]
        centers.append(c)
        dist = np.minimum(dist, norm.norm(probes - c))
    return np.array(centers)


def _reference_verify_covering(centers, norm, r1, r2, probes):
    """verify_covering's loop before the transposed kernel."""
    centers = np.asarray(centers, dtype=float).reshape(-1, norm.dim)
    cloud = cv._probe_cloud(norm, r1, r2, probes)
    dist = np.full(len(cloud), np.inf)
    for c in centers:
        dist = np.minimum(dist, norm.norm(cloud - c))
    worst = int(np.argmax(dist))
    max_uncovered = float(dist[worst])
    passed = max_uncovered <= r2 * (1.0 + COVER_SLACK)
    report = {
        "passed": bool(passed),
        "max_uncovered_distance": max_uncovered,
        "radius_r2": float(r2),
        "slack": float(r2 - max_uncovered),
        "num_centers": int(len(centers)),
        "num_probes": int(len(cloud)),
    }
    if not passed:
        report["witness_probe"] = [float(x) for x in cloud[worst]]
    return report


@st.composite
def _norms(draw, max_dim=6):
    m = draw(st.integers(1, max_dim))
    kind = draw(st.sampled_from(cv.NORM_KINDS))
    weights = ()
    if kind == "weighted-sup":
        weights = tuple(draw(st.lists(st.floats(0.125, 8.0), min_size=m,
                                      max_size=m)))
    return NormSpec(m, kind, weights)


# coordinates include exact zeros (of both signs) and negatives
_coords = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0]),
                    st.floats(-1e3, 1e3, allow_nan=False))
# per-m ratio caps keep the reference nets small
_RATIO_HI = {1: 12.0, 2: 5.0, 3: 2.5, 4: 1.6}


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestDistanceKernelMatchesReference:
    """NormSpec._distances, build_net and verify_covering equal, bit for
    bit, the norm(probes - c) loops they replaced."""

    @given(data=st.data(), norm=_norms(), n=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_distances(self, data, norm, n):
        m = norm.dim
        probes = data.draw(hnp.arrays(np.float64, (n, m), elements=_coords))
        row = data.draw(st.integers(0, n - 1))
        c = data.draw(st.one_of(
            st.just(probes[row]),
            hnp.arrays(np.float64, (m,), elements=_coords)))
        cols = np.ascontiguousarray(probes.T)
        # stale buffer contents must not leak into the result
        out, tmp = np.full(n, np.nan), np.full(n, -np.inf)
        got = norm._distances(cols, c, out, tmp)
        assert got is out
        want = norm.norm(probes - c)
        assert np.array_equal(_bits(got), _bits(want))

    @given(norm=_norms(max_dim=4), frac=st.floats(0.0, 1.0),
           random_probes=st.integers(50, 1_500))
    @example(norm=NormSpec(3, "weighted-sup", (1.0, 2.0, 0.5)), frac=0.6,
             random_probes=1_000)
    @settings(max_examples=40, deadline=None)
    def test_build_and_verify(self, norm, frac, random_probes):
        ratio = 1.01 + frac * (_RATIO_HI[norm.dim] - 1.01)
        net = build_net(norm, ratio, 1.0, random_probes=random_probes)
        want = _reference_build_net(norm, ratio, 1.0, random_probes)
        assert np.array_equal(net, want)
        nets = [net, net[:-1], net[1:], net[::2], net[0]]
        for centers in nets:
            if centers.size == 0:
                continue
            assert verify_covering(centers, norm, ratio, 1.0,
                                   probes=random_probes) == \
                _reference_verify_covering(centers, norm, ratio, 1.0,
                                           random_probes)

    def test_guard_raises_alike(self):
        norm = NormSpec(2, "sup")
        with pytest.raises(NetConstructionError):
            _reference_build_net(norm, 4.0, 1.0, 500, max_centers=3)
        with pytest.raises(NetConstructionError):
            build_net(norm, 4.0, 1.0, random_probes=500, max_centers=3)

    @pytest.mark.parametrize("kind", cv.NORM_KINDS)
    def test_default_cloud(self, kind):
        weights = (1.0, 2.0) if kind == "weighted-sup" else ()
        norm = NormSpec(2, kind, weights)
        net = build_net(norm, 2.0, 1.0)
        assert np.array_equal(net, _reference_build_net(
            norm, 2.0, 1.0, cv.DEFAULT_RANDOM_PROBES))
        for centers in (net, net[:-1]):
            assert verify_covering(centers, norm, 2.0, 1.0) == \
                _reference_verify_covering(centers, norm, 2.0, 1.0,
                                           cv.DEFAULT_RANDOM_PROBES)
