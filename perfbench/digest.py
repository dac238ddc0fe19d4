"""Compare the output digests of two benchmark runs.

    python3 perfbench/digest.py A.digest.json B.digest.json

Each run of ``perfbench/run.py`` writes ``.perfbench_out/<workload>-s<seed>
[-trace].digest.json``: one hash per operation of counts, the Q mask, q,
x and the ratio (for EDCS, the artifact).  Operation k of a seed is the
same work in every run, so two runs with the same workload and seed are
compared operation by operation over the operations both completed; run
both with the same ``--ops`` to compare a fixed set.  Exit code 0 means
every shared operation has the same digest.  This is a diagnostic: a
change that corrects the method may change the digests.
"""

from __future__ import annotations

import json
import sys


def compare(a: dict, b: dict) -> list[str]:
    problems = []
    for key in ("workload", "seed"):
        if a[key] != b[key]:
            problems.append(f"{key} differs: {a[key]!r} vs {b[key]!r}")
    shared = min(len(a["ops"]), len(b["ops"]))
    if not shared:
        problems.append("no operation in common")
    for k in range(shared):
        if a["ops"][k] != b["ops"][k]:
            problems.append(f"operation {k}: {a['ops'][k][:16]} vs {b['ops'][k][:16]}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fa, open(argv[1], encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    problems = compare(a, b)
    shared = min(len(a["ops"]), len(b["ops"]))
    for p in problems:
        print(f"DIFF {p}")
    if problems:
        return 1
    print(f"identical: {a['workload']} seed {a['seed']}, {shared} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
