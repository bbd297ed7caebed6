"""Benchmark of the MMA / TRMMA system, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload match-bj --seed 1 --seconds 16 --trace 0

It builds the program and the benchmark from source (perfbench/build.py),
runs one workload in a fresh JVM (perfbench/src/repro/perfbench/Main.scala),
checks the record it returns against perfbench/reference.json, saves the
record under .bench_build/perfbench/results/, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the span trace is written next
to the record. The exit code is 0 only when every check passed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170

# Spark on JDK 17 needs these, as its own launcher passes them.
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *[f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")],
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]

# Counts that depend only on the seed's inputs. They must match the recorded
# fingerprint of a seed exactly. The record also holds `plan_calls`, which
# depends on the trained MMA and so is not compared.
INPUT_COUNTS = ["trajectories", "sparse_points", "dense_slots", "candidate_exit_nodes", "decoded_slots"]


def commit() -> str:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_java(cp: str, key: str, args, trace_out: Path) -> dict:
    tmp = ROOT / ".bench_build" / "perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", "-Xms2g", "-Xmx2g", "-Xss8m", *JAVA_OPENS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out", str(trace_out),
           "--commit", commit(), "--source-digest", key]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp / "spark"))
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                       timeout=RUN_TIMEOUT_S)
    records = [line[len("PERFBENCH_RECORD "):] for line in r.stdout.splitlines()
               if line.startswith("PERFBENCH_RECORD ")]
    if r.returncode != 0 or not records:
        raise RuntimeError(f"benchmark JVM exited with {r.returncode} and {len(records)} records")
    return json.loads(records[-1])


def within(value: float, ref: float, tol: dict) -> bool:
    if "abs" in tol:
        return abs(value - ref) <= tol["abs"]
    return abs(value - ref) <= tol["rel"] * abs(ref)


def reference_checks(rec: dict) -> list:
    """(name, ok, detail) for the input fingerprint of a recorded seed and for
    the quality reference. Training and validation data do not depend on the
    seed, so quality has one reference per workload and core count (training
    depends on the core count). A core count without a recorded reference
    fails the check."""
    ref = json.loads((BENCH / "reference.json").read_text())
    wl = ref["workloads"].get(rec["workload"])
    if wl is None:
        return [("reference", False, f"no reference for {rec['workload']}")]
    out = []
    want = wl["fingerprints"].get(str(rec["seed"]))
    if want is not None:
        diff = [k for k in INPUT_COUNTS if rec["fingerprint"].get(k) != want.get(k)]
        out.append(("input fingerprint", not diff, f"differs from the recorded seed in {diff}"))
    if rec["trace"]:
        return out
    nproc = rec["machine"]["nproc"]
    quality = wl["quality"].get(str(nproc))
    if quality is None:
        out.append(("quality reference", False,
                    f"no reference for {nproc} cores (recorded: {sorted(wl['quality'], key=int)})"))
        return out
    for name, t in ref["tolerance"].items():
        v, r = rec["metrics"].get(name), quality.get(name)
        ok = v is not None and r is not None and within(v, r, t)
        out.append((f"quality {name}", ok, f"{v} vs reference {r} (tolerance {t})"))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        _, cp, key = build.build()
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    results = ROOT / ".bench_build" / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    try:
        rec = run_java(cp, key, args, results / f"{stem}.trace.json")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1

    checks = reference_checks(rec)
    metrics = {}
    for m in declared:
        v = rec["metrics"].get(m["name"])
        ok = isinstance(v, (int, float)) and math.isfinite(v) and (args.trace or v != 0)
        checks.append((f"metric {m['name']}", ok, f"value {v}"))
        if ok:
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    failed_checks = [f"{n}: {d}" for n, ok, d in checks if not ok]
    rec["launcher_checks"] = {"attempted": len(checks), "failed": failed_checks}
    (results / f"{stem}.json").write_text(json.dumps(rec, indent=1))

    attempted = rec["checks"]["attempted"] + len(checks)
    failed = rec["checks"]["failed"] + len(failed_checks)
    for f in rec["checks"]["failures"] + failed_checks:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({k: rec[k] for k in ("workload", "seed", "fingerprint", "samples", "machine")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
