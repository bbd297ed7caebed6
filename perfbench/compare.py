"""Compare two sets of saved benchmark records (parent vs change).

Usage: python3 perfbench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Records are the files run.py writes to .bench_build/perfbench/results/. The
comparison is refused (exit 2) when the sets mix workloads or trace modes,
when any two runs on the same seed have different input fingerprints (the
counts that depend on the inputs alone, run.INPUT_COUNTS), or when
the machine records differ in core count, Spark task threads or trainer
threads: training output depends on the core count, so such runs are not
comparable. Otherwise it prints, per metric, each side's median and
quartiles and the change of the medians.
"""

import json
import statistics
import sys

from run import INPUT_COUNTS

MACHINE_KEYS = ["nproc", "spark_threads", "trainer_threads"]


def load(paths):
    return [json.load(open(p)) for p in paths]


def refuse(msg):
    print(f"refusing to compare: {msg}", file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    i = argv.index("--")
    a, b = load(argv[:i]), load(argv[i + 1:])
    if not a or not b:
        refuse("both sides need at least one record")
    recs = a + b
    if len({(r["workload"], r["trace"]) for r in recs}) != 1:
        refuse("records of different workloads or trace modes")
    for k in MACHINE_KEYS:
        if len({r["machine"][k] for r in recs}) != 1:
            refuse(f"machine records differ in {k}")
    by_seed = {}
    for r in recs:
        got = {k: r["fingerprint"].get(k) for k in INPUT_COUNTS}
        fp = by_seed.setdefault(r["seed"], got)
        if fp != got:
            refuse(f"input fingerprints differ on seed {r['seed']}: {fp} vs {got}")
    names = list(a[0]["metrics"])
    print(f"{'metric':32s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} {'B/A-1':>8s}")
    for n in names:
        va = [r["metrics"][n] for r in a if r["metrics"].get(n) is not None]
        vb = [r["metrics"][n] for r in b if r["metrics"].get(n) is not None]
        if not va or not vb:
            continue
        qa, qb = quartiles(va), quartiles(vb)
        rel = qb[1] / qa[1] - 1 if qa[1] else float("nan")
        print(f"{n:32s} {qa[1]:12.5g} [{qa[0]:9.5g}, {qa[2]:9.5g}] {qb[1]:12.5g} [{qb[0]:9.5g}, {qb[2]:9.5g}] {rel:+8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
