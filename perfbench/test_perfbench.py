"""Self-tests of the benchmark: its reference computations and its checks.

    python3 -m pytest perfbench/test_perfbench.py -q

The reference computations are pinned to the hand-computed values of
tests/test_oracles_frozen.py and compared with the brute-force oracles
of tests/oracles.py.  Each check is then shown to pass on a real
operation's record and to reject the same record once corrupted.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (ROOT / "src", ROOT / "tests", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import stochmatch as sm  # noqa: E402
import stochmatch.cli  # noqa: E402,F401
from oracles import brute_force_max_weight, oracle_expected_value, random_test_graph  # noqa: E402

import digest as digest_cmd  # noqa: E402
import reference as ref  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_out" / f"selftest-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def inst(n, edges, p_v=1.0, p_e=1.0):
    return ref.Instance(n, tuple(edges), p_v, p_e)


# -- reference computations against hand-computed values ---------------------------


def test_single_edge_distribution_by_hand():
    # The edge survives only when both vertices (1/4) and the edge (1/2) do.
    dist = ref.edge_set_distribution(inst(2, [(0, 1, 1.0)], 0.5, 0.5))
    assert dist.tolist() == [0.875, 0.125]


def test_path3_and_triangle_expectations_by_hand():
    path3 = ref.ExactReference(inst(3, [(0, 1, 1.0), (1, 2, 1.0)], 0.5, 1.0))
    assert path3.expected == 0.375
    tri = ref.ExactReference(inst(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], 1.0, 0.5))
    assert tri.expected == 0.875


def test_matching_weights_by_hand():
    cases = [
        (3, [(0, 1, 1.0), (1, 2, 1.0)], 1.0),
        (3, [(0, 1, 1.0), (1, 2, 1.5)], 1.5),
        (4, [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0)], 2.0),
        (2, [(0, 1, 0.0)], 0.0),
    ]
    for n, edges, want in cases:
        g = inst(n, edges)
        full = (1 << len(edges)) - 1
        assert ref.MatchingWeights(g)(full) == want
        assert ref.subset_weights(g)[full] == want


# -- reference computations against the brute-force oracles ------------------------


def test_reference_matches_brute_force_oracles():
    rng = random.Random(5)
    for _ in range(40):
        n, edges = random_test_graph(rng, max_n=6, max_m=8, weighted=True)
        p_v, p_e = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
        g = inst(n, edges, p_v, p_e)
        mw = ref.MatchingWeights(g)
        mu = ref.subset_weights(g)
        for mask in range(1 << len(edges)):
            _, want = brute_force_max_weight(n, [e for i, e in enumerate(edges) if mask >> i & 1])
            assert ref.close(mw(mask), want)
            assert ref.close(float(mu[mask]), want)
        exact = ref.ExactReference(g)
        assert ref.close(exact.expected, oracle_expected_value(n, edges, p_v, p_e))
        keep = rng.getrandbits(len(edges)) if edges else 0
        kept = [i for i in range(len(edges)) if keep >> i & 1]
        assert ref.close(exact.expected_within(keep), oracle_expected_value(n, edges, p_v, p_e, kept))


def test_draws_follow_the_documented_addressing():
    g = sm.StochasticGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], 0.7, 0.6)
    plain = inst(6, [(e.u, e.v, e.weight) for e in g.edges], 0.7, 0.6)
    vm, em = ref.draw(plain, ref.philox(9, 4, ref.SPARSIFIER_DRAWS, 0), 50)
    gen = sm.RngSeed(9, 4).generator(ref.SPARSIFIER_DRAWS, 0)
    for k in range(50):
        r = sm.sample_realization(g, gen)
        assert (r.vertex_mask, r.edge_mask) == (vm[k], em[k])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_reference_instances_equal_the_generated_graphs(name):
    spec = wl.WORKLOADS[name]
    assert wl.same_graph(wl.make_graph(sm, spec, 3), wl.reference_instance(spec, 3))


# -- every check passes on a real record and rejects a corrupted one -------------------


def _bump(values, i, delta):
    out = list(values)
    out[i] += delta
    return out


def _pipeline_record(name):
    spec = wl.WORKLOADS[name]
    g = wl.make_graph(sm, spec, 2)
    checker = wl.Checker(spec, wl.reference_instance(spec, 2))
    _, _, rec = wl.pipeline_op(sm, g, spec, 2, 0)
    return checker, rec


def _pipeline_corruptions(rec, inst_):
    m = inst_.m
    kept = [i for i in range(m) if rec["q_mask"] >> i & 1]
    dropped = next(i for i in range(m) if not rec["q_mask"] >> i & 1)
    loaded = max(range(m), key=lambda i: rec["x"][i])
    return {
        "rounds": {"rounds": rec["rounds"] + 1},
        "counts": {"counts": _bump(rec["counts"], kept[0], 1)},
        "q_mask": {"q_mask": rec["q_mask"] | 1 << dropped},
        "q": {"q": _bump(rec["q"], kept[0], 0.01)},
        "realized": {"realized": [rec["realized"][0], rec["realized"][1] ^ 1]},
        "x_load": {"x": _bump(rec["x"], loaded, 1.0)},
        "x_support": {"x": _bump(rec["x"], dropped, 0.01)},
        "m_c": {"m_c": rec["m_c"] + [dropped]},
        "integral_weight": {"integral_weight": rec["integral_weight"] + 0.5},
        "integral_missing": {"integral": None},
        "integral_short": {"integral": rec["integral"][1:]},
        "checks_passed": {"checks_passed": False},
        "ratio": {"ratio": rec["ratio"] * (1 - 1e-6)},
    }


@pytest.mark.parametrize("name", ["mc-sweep-small", "exact-sweep-tiny"])
def test_pipeline_checks_reject_corrupted_records(name):
    checker, rec = _pipeline_record(name)
    assert checker.check(rec) == []
    assert checker.finish() == []
    for label, change in _pipeline_corruptions(rec, checker.inst).items():
        bad = dict(copy.deepcopy(rec), **change)
        if label == "integral_short" and not rec["integral"]:
            continue
        assert checker.check(bad), f"corruption {label!r} was not caught"


def test_subset_weight_check_rejects_a_wrong_table():
    checker, rec = _pipeline_record("exact-sweep-tiny")
    checker.check(rec)
    mask = next(iter(checker.mw.memo))
    checker.exact.mu[mask] += 1.0
    assert checker.finish()


def test_edcs_checks_reject_corrupted_records(workdir):
    spec = wl.WORKLOADS["edcs-dense"]
    checker = wl.Checker(spec, wl.reference_instance(spec, 2))
    _, _, rec = wl.edcs_op(sm, spec, 2, 0, workdir)
    assert checker.check(rec) == []
    assert 0.0 < checker.ratio(rec) <= 1.0
    art = json.loads(rec["artifact"])
    kept = {tuple(e) for e in art["edges"]}
    outside = next([u, v] for u, v, _ in art["graph"]["edges"] if (u, v) not in kept)

    def with_artifact(change):
        a = copy.deepcopy(art)
        change(a)
        return dict(rec, artifact=json.dumps(a))

    corruptions = {
        "build_code": dict(rec, build_code=1),
        "check_code": dict(rec, check_code=1),
        "dropped_edge": with_artifact(lambda a: a["edges"].pop(0)),
        "added_edge": with_artifact(lambda a: a["edges"].append(outside)),
        "beta": with_artifact(lambda a: a["params"].update(beta=a["params"]["beta"] + 1)),
        "graph": with_artifact(lambda a: a["graph"]["edges"].pop()),
        "unreadable": dict(rec, artifact="{"),
    }
    for label, bad in corruptions.items():
        assert checker.check(bad), f"corruption {label!r} was not caught"


# -- tracing, digests and the command --------------------------------------------------


def test_traced_operation_has_the_same_digest_and_accounts_for_its_time():
    spec = wl.WORKLOADS["exact-sweep-tiny"]
    g = wl.make_graph(sm, spec, 4)
    original = sm.CanonicalMatcher.for_mask
    _, _, rec = wl.pipeline_op(sm, g, spec, 4, 1)
    tracer = Tracer()
    tracer.install(sm)
    try:
        first = tracer.begin_op()
        _, _, traced = wl.pipeline_op(sm, g, spec, 4, 1, tracer)
    finally:
        tracer.uninstall()
    assert sm.CanonicalMatcher.for_mask is original
    assert wl.digest(traced) == wl.digest(rec)
    layer = tracer.op_metrics(first)
    assert set(METRICS) - {"trace.overhead_s"} <= set(layer)
    assert 0.95 < layer["trace.attributed_frac"] <= 1.0
    assert layer["estimator.oracle_builds"] == 2
    assert layer["matching.solves"] <= layer["matching.for_mask_calls"]
    # Self times of all spans of the op add up to the op's wall time.
    spans = range(first, len(tracer.name))
    wall = sum(tracer.end[i] - tracer.start[i] for i in spans if tracer.parent[i] < first)
    child = sum(tracer.end[i] - tracer.start[i] for i in spans if tracer.parent[i] >= first)
    own = sum(tracer.end[i] - tracer.start[i] for i in spans)
    assert abs((own - child) - wall) < 1e-9


def test_digest_compare_flags_a_difference():
    a = {"workload": "w", "seed": 1, "ops": ["aa", "bb"]}
    assert digest_cmd.compare(a, dict(a, ops=["aa"])) == []
    assert digest_cmd.compare(a, dict(a, ops=["aa", "bc"]))
    assert digest_cmd.compare(a, dict(a, ops=[]))


def test_speed_correction_is_relative_to_the_reference_kernel_time():
    t = speed.kernel_seconds()
    assert t > 0
    assert t * speed.scale(t, t) == pytest.approx(speed.REFERENCE_S)
    # Work timed while the kernel ran twice as slow counts half.
    assert speed.scale(t, 3 * t) == pytest.approx(speed.scale(t, t) / 2)
    assert speed._max_matching_weight([(0, 1, 2.0), (1, 2, 3.0), (2, 3, 2.0)]) == 4.0


def test_command_refuses_without_the_package(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edcs-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
