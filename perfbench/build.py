"""Build step of the benchmark: compiles the repository's main sources together
with the benchmark's own Scala sources into one class directory.

It calls the Scala compiler that ships with the Spark distribution (the same
jars the program runs on), so no build tool and no network are needed. Output
goes to `.bench_build/perfbench/classes-<digest>` under the repository root,
keyed by a digest of every compiled file, so an unchanged tree is not rebuilt.

Usage: python3 perfbench/build.py   (from the repository root)
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The `jars` directory of the Spark distribution: $SPARK_HOME, else the
    installation that `spark-submit` on PATH belongs to."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(os.path.realpath(submit)).parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found (set SPARK_HOME)")
    return jars


def duckdb_jar() -> Path:
    """The DuckDB JDBC driver the repository's oracle loads, from the local
    Coursier or Ivy cache that sbt resolved it into."""
    caches = [os.environ.get("COURSIER_CACHE"),
              str(Path.home() / ".cache" / "coursier"),
              str(Path.home() / ".ivy2")]
    for c in caches:
        if c and Path(c).is_dir():
            found = sorted(Path(c).rglob("duckdb_jdbc-*.jar"))
            found = [f for f in found if "sources" not in f.name and "javadoc" not in f.name]
            if found:
                return found[-1]
    raise BuildError("duckdb_jdbc jar not found in the Coursier or Ivy cache")


def sources() -> list:
    main = ROOT / "src" / "main" / "scala"
    if not main.is_dir():
        raise BuildError(f"{main} not found: run from the repository root")
    files = sorted(main.rglob("*.scala")) + sorted((BENCH / "src").rglob("*.scala"))
    return files


def digest(files: list, jars: Path) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    h.update(",".join(sorted(p.name for p in jars.glob("scala-*.jar"))).encode())
    return h.hexdigest()


def build() -> tuple:
    """Compile if needed; returns (classes dir, runtime classpath, digest)."""
    jars = spark_jars()
    files = sources()
    key = digest(files, jars)
    classes = OUT / f"classes-{key[:16]}"
    cp = os.pathsep.join([str(classes), str(jars / "*"), str(duckdb_jar())])
    if (classes / "repro" / "perfbench" / "Main.class").is_file():
        return classes, cp, key
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = OUT / f"tmp-classes-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    argfile = OUT / f"sources-{os.getpid()}.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp), "-classpath", str(jars / "*"), f"@{argfile}"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
        if r.returncode != 0:
            raise BuildError(f"scalac exited with {r.returncode}")
        for old in OUT.glob("classes-*"):
            shutil.rmtree(old, ignore_errors=True)
        tmp.rename(classes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        argfile.unlink(missing_ok=True)
    return classes, cp, key


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
