"""Benchmark of stochmatch's build and certify steps on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--ops K]
    python3 perfbench/run.py --workload all --seed N --seconds S

One run is one process.  It times the set-up (a fresh interpreter's
``import stochmatch`` plus generating the workload's graph, repeated and
reduced to the median), then runs whole operations (one build step and
one certify step) until they have taken ``--seconds``, or exactly
``--ops`` of them.  Each set-up repeat and each step of an operation
is timed between two runs of a fixed kernel (``speed.py``), and its times are
reported in seconds at the kernel's reference speed, so that the shared
machine's slow phases do not move the figures; the uncorrected
wall-clock medians go to standard error.  Every operation is checked
against reference computations made apart from the package, outside
the timed window; an operation that fails a check counts in ``failed``.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` every operation runs once
untraced and once with spans around the package's layer functions; the
last line then holds the per-layer metrics, and the two runs of each
operation must give the same output digest.  Digests and spans are
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "certify_s": "s",
    "peak_rss_mb": "MB",
    "ratio": "1",
    "kept_edge_frac": "1",
}


def import_seconds() -> float:
    """Time of ``import stochmatch`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import stochmatch; print(time.perf_counter() - t)"
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, ops: int | None) -> dict:
    sys.path.insert(0, str(SRC))
    import stochmatch as sm
    import stochmatch.cli  # noqa: F401  (the edcs workload calls sm.cli.main)

    if not Path(sm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported stochmatch from {sm.__file__}, not from {SRC}")
    import speed
    import workloads as wl
    from tracing import METRICS, Tracer

    spec = wl.WORKLOADS[name]
    setups, setups_wall = [], []
    before = speed.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        wall = import_seconds()
        t0 = perf_counter()
        g = wl.make_graph(sm, spec, seed)
        wall += perf_counter() - t0
        after = speed.kernel_seconds()
        setups.append(wall * speed.scale(before, after))
        setups_wall.append(wall)
        before = after

    inst = wl.reference_instance(spec, seed)
    run_problems = [] if wl.same_graph(g, inst) else ["generated graph differs from the reference instance"]
    checker = wl.Checker(spec, inst)
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None

    def op(k: int, with_tracer=None, pause=None):
        if isinstance(spec, wl.EdcsSpec):
            return wl.edcs_op(sm, spec, seed, k, OUT, with_tracer, pause)
        return wl.pipeline_op(sm, g, spec, seed, k, with_tracer, pause)

    rows = []
    measured = 0.0  # seconds spent in operations; checks are not counted
    k = 0
    while (k < ops) if ops else (k == 0 or measured < seconds):
        row = {"problems": []}
        gc.collect()  # every operation starts from the same heap state
        # The speed kernel runs before the build, between the steps and
        # after the certify step, outside the timed windows.
        kernel = [speed.kernel_seconds()]

        def mark():
            kernel.append(speed.kernel_seconds())

        started = perf_counter()
        try:
            try:
                # The traced and untraced runs of an operation take turns
                # going first, so warm-up does not land on one side.
                if tracer is None or k % 2 == 0:
                    build_s, certify_s, rec = op(k, pause=mark)
                if tracer is not None:
                    tracer.install(sm)
                    try:
                        first = tracer.begin_op()
                        tb, tc, traced_rec = op(k, tracer)
                    finally:
                        tracer.uninstall()
                    if k % 2 == 1:
                        build_s, certify_s, rec = op(k, pause=mark)
            finally:
                measured += perf_counter() - started
            mark()
            if tracer is not None:
                row["layer"] = tracer.op_metrics(first)
                row["layer"]["trace.overhead_s"] = (tb + tc) - (build_s + certify_s)
                if wl.digest(traced_rec) != wl.digest(rec):
                    row["problems"].append("traced and untraced outputs differ")
            row.update(
                build_s=build_s * speed.scale(kernel[0], kernel[1]),
                certify_s=certify_s * speed.scale(kernel[1], kernel[2]),
                build_wall_s=build_s, certify_wall_s=certify_s, digest=wl.digest(rec),
            )
            row["problems"] += checker.check(rec)
            row["ratio"] = checker.ratio(rec)
            row["kept"] = wl.kept_fraction(spec, rec, inst)
        except Exception as exc:  # an operation that raises counts as failed
            row["problems"].append(f"{type(exc).__name__}: {exc}")
        rows.append(row)
        k += 1
    run_problems += checker.finish()

    good = [r for r in rows if not r["problems"]]
    for k, r in enumerate(rows):
        for p in r["problems"][:3]:
            print(f"FAIL op {k}: {p}", file=sys.stderr)
    for p in run_problems:
        print(f"FAIL run: {p}", file=sys.stderr)

    suffix = "-trace" if trace else ""
    digests = [r.get("digest", "") for r in rows]
    with open(OUT / f"{name}-s{seed}{suffix}.digest.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": name,
            "seed": seed,
            "ops": digests,
            "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        }, fh, indent=1)
        fh.write("\n")

    metrics = {}
    if good and trace:
        tracer.dump(OUT / f"{name}.spans.jsonl")
        for key, unit in METRICS.items():
            metrics[key] = {"value": statistics.median(r["layer"][key] for r in good), "unit": unit}
    elif good:
        print(
            "wall-clock medians (uncorrected): setup %.4f s, build %.4f s, certify %.4f s"
            % (statistics.median(setups_wall), statistics.median(r["build_wall_s"] for r in good),
               statistics.median(r["certify_wall_s"] for r in good)),
            file=sys.stderr,
        )
        values = {
            "setup_s": statistics.median(setups),
            "build_s": statistics.median(r["build_s"] for r in good),
            "certify_s": statistics.median(r["certify_s"] for r in good),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ratio": statistics.fmean(r["ratio"] for r in good),
            "kept_edge_frac": statistics.fmean(r["kept"] for r in good),
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    return {
        "correct": not run_problems and len(good) == len(rows),
        "attempted": len(rows),
        "failed": len(rows) - len(good),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload, each in its own process, as one table."""
    import workloads as wl

    results = {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many operations instead of --seconds")
    args = parser.parse_args(argv)
    if not (SRC / "stochmatch" / "__init__.py").is_file():
        print(f"error: no stochmatch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
