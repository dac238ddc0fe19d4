"""Reproduce the ROADMAP baseline table on this machine (not gated).

    python3 perfbench/baseline.py [--label NAME] [--timeout SECONDS]

Each row runs once, in its own interpreter, and is timed from outside
the package with ``time.perf_counter``.  A row that does not finish
within ``--timeout`` is killed and recorded as "timeout at T s"; a row
the package refuses is recorded with the refusal.  Nothing is dropped.
Where the table leaves a parameter open, the row states the one used
(p_v = 0.8 and p_e = 0.7 unless said otherwise).  The table and the
machine facts are written to ``.perfbench_out/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _graph(sm, family: str, seed: int, weights: str = "unit", p_v: float = 0.8, p_e: float = 0.7):
    spec = sm.parse_generator(family)
    spec.weights, spec.weight_args = sm.parse_weights(weights)
    spec.seed = seed
    return sm.generate_graph(spec, p_v, p_e)


def _sparsifier(family: str, weights: str):
    def row(sm):
        g = _graph(sm, family, 1, weights)
        params = sm.compute_params(0.2, g.p_v, g.p_e, 2000)
        matcher = sm.CanonicalMatcher(g)
        t0 = time.perf_counter()
        sm.build_sparsifier(g, params, sm.RngSeed(0), matcher)
        return time.perf_counter() - t0, f"m={g.m}, {matcher.cache_size()} distinct realized masks"
    return row


def _solve(sm):
    g = _graph(sm, "erdos-renyi(n=20,p=0.3)", 1, "uniform(0.1,10)")
    t0 = time.perf_counter()
    sm.CanonicalMatcher(g).for_mask(None)
    return time.perf_counter() - t0, f"m={g.m}"


def _draws(sm):
    g = _graph(sm, "erdos-renyi(n=20,p=0.3)", 1, "uniform(0.1,10)")
    rng = sm.RngSeed(0)
    t0 = time.perf_counter()
    for r in range(2000):
        sm.sample_realization(g, rng, index=r)
    return time.perf_counter() - t0, f"m={g.m}"


def _mc_ratio(sm):
    g = _graph(sm, "erdos-renyi(n=20,p=0.3)", 1, "uniform(0.1,10)")
    half = sum(1 << i for i in range(0, g.m, 2))
    t0 = time.perf_counter()
    est = sm.approximation_ratio(g, half, mode="mc", rng=sm.RngSeed(0), samples=20_000)
    return time.perf_counter() - t0, f"m={g.m}, Q = even edge indices, ratio {est.value:.6f}"


def _oracle(sm):
    g = _graph(sm, "erdos-renyi(n=8,p=0.5)", 3, "uniform(0.1,10)")
    t0 = time.perf_counter()
    oracle = sm.ExhaustiveOracle(g, budget_bits=24)
    oracle.edge_probabilities()
    oracle.expected_value()
    return time.perf_counter() - t0, f"n={g.n}, m={g.m}, budget_bits=24, edge probabilities and E[mu]"


def _odd_sets(n: int):
    def row(sm):
        import numpy as np

        g = _graph(sm, f"erdos-renyi(n={n},p=0.3)", 1)
        deg = np.bincount(g.endpoint_array.ravel(), minlength=g.n)
        fm = sm.FractionalMatching(g, np.full(g.m, 1.0 / max(1, deg.max())))
        t0 = time.perf_counter()
        sm.check_blossom_constraints(fm, 0.1)
        return time.perf_counter() - t0, f"m={g.m}, x = 1/max degree on every edge"
    return row


def _sweep_point(sm):
    g = _graph(sm, "erdos-renyi(n=10,p=0.35)", 0)
    rng = sm.RngSeed(0)
    t0 = time.perf_counter()
    res = sm.run_fractional_pipeline(g, 0.2, rng, q_mode="mc", samples=20_000)
    sm.approximation_ratio(g, res.sparsifier.edge_mask, mode="mc", rng=rng, samples=20_000)
    return time.perf_counter() - t0, f"m={g.m}, r_cap 10000, pipeline + ratio"


def _path_refusal(sm):
    g = sm.StochasticGraph(4, [(0, 1), (1, 2), (2, 3)], 0.9, 0.9)
    t0 = time.perf_counter()
    sm.run_fractional_pipeline(g, 0.05, sm.RngSeed(0), r_cap=100)
    return time.perf_counter() - t0, "4-vertex path, eps=0.05, r_cap 100"


ROWS = {
    "sparsifier R=2000, ER(10,.35) seed 1": _sparsifier("erdos-renyi(n=10,p=0.35)", "unit"),
    "sparsifier R=2000, ER(20,.3) seed 1": _sparsifier("erdos-renyi(n=20,p=0.3)", "uniform(0.1,10)"),
    "sparsifier R=2000, ER(40,.15) seed 1": _sparsifier("erdos-renyi(n=40,p=0.15)", "uniform(0.1,10)"),
    "one full-graph canonical solve, ER(20,.3) seed 1": _solve,
    "2000 realization draws alone, ER(20,.3) seed 1": _draws,
    "MC ratio with 20 000 samples, ER(20,.3) seed 1": _mc_ratio,
    "exact oracle, n+m=24, ER(8,.5) seed 3": _oracle,
    "odd-set check, eps=0.1, n=12": _odd_sets(12),
    "odd-set check, eps=0.1, n=16": _odd_sets(16),
    "odd-set check, eps=0.1, n=20": _odd_sets(20),
    "one sweep point, ER(10,.35) seed 0, eps .2, 20k samples": _sweep_point,
    "run_fractional_pipeline, eps=0.05, 4-vertex path": _path_refusal,
}


def _child(name: str) -> int:
    sys.path.insert(0, str(SRC))
    import stochmatch as sm

    try:
        seconds, detail = ROWS[name](sm)
        print(json.dumps({"seconds": seconds, "detail": detail}))
    except sm.BudgetExceededError as exc:
        print(json.dumps({"refused": f"BudgetExceededError: {exc}"}))
    return 0


def machine() -> dict:
    import networkx
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="baseline")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds before a row is killed and recorded as a timeout")
    parser.add_argument("--row", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row:
        return _child(args.row)
    if not (SRC / "stochmatch" / "__init__.py").is_file():
        print(f"error: no stochmatch package under {SRC}", file=sys.stderr)
        return 2
    table = []
    for name in ROWS:
        try:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--row", name],
                cwd=ROOT, capture_output=True, text=True, timeout=args.timeout,
            )
            if done.returncode == 0:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            else:
                lines = done.stderr.strip().splitlines()
                result = {"error": lines[-1] if lines else f"exit {done.returncode}"}
        except subprocess.TimeoutExpired:
            result = {"timeout": f"timeout at {args.timeout:g} s"}
        result["case"] = name
        table.append(result)
        shown = f"{result['seconds']:.3f} s" if "seconds" in result else next(
            result[k] for k in ("timeout", "refused", "error") if k in result)
        print(f"{name:58s} {shown}  {result.get('detail', '')}", flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine(), "rows": table}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
