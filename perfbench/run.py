#!/usr/bin/env python3
"""Auto-Validate benchmark: offline indexing, rule learning and rule
application, each timed from outside the program.

    python3 perfbench/run.py --workload index-E|learn-BE|validate-BE \\
        --seed N --seconds S --trace 0|1 [--record]

Run from the root of a source tree. The first run compiles the program
(src/main/scala) together with the harness (perfbench/src) with the Scala
compiler shipped in Spark's jars, into .bench_build/. Each run starts a
set-up JVM, which builds the workload's inputs from the seed and sets up
(for index-E it also times the index build), then for learn-BE and
validate-BE measuring JVMs that repeat the workload's operations for S
seconds between them. Outputs are checked against the
values recorded in perfbench/expected.json for that seed (seed 11 is
recorded), and against the invariants that hold on every seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
lines before it give the environment, the workload's own named metrics and
any failed check. --record stores the run's outputs as the expected ones
for its seed.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("index-E", "learn-BE", "validate-BE")
SETUP_HEAP = "4g"
MEASURE_HEAP = "2g"
# Measuring JVMs per run, one after another, their passes pooled. A
# learn-BE pass takes about 4 s and its cold warm-up pass 5-6 s, so one JVM
# runs two timed passes; a validate-BE pass takes 0.5 s, so three JVMs cost
# little, and the per-call upper quartile over their pooled passes follows
# the host's usual state as long as one of the three ran in it.
MEASURING_JVMS = {"learn-BE": 1, "validate-BE": 3}
RUN_TIMEOUT_S = 170

# Spark on Java 17 needs these module openings (as spark-submit adds them).
JAVA_OPENS = ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")] + [
    "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = os.path.join(home, "jars") if home else ""
    if not glob.glob(os.path.join(jars, "spark-sql_*.jar")) or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        die("Spark's jars (with the Scala compiler) not found; set SPARK_HOME")
    return jars


def sources():
    main = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(main):
        die("program sources src/main/scala not found next to perfbench/")
    files = sorted(glob.glob(os.path.join(main, "**", "*.scala"), recursive=True))
    files += sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    return files


def build(jars):
    """Compiles program and harness once per source digest; returns the
    class directory and the digest."""
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    digest = h.hexdigest()[:16]
    out = os.path.join(BUILD, "classes-" + digest)
    if os.path.exists(os.path.join(out, "ok")):
        return out, digest
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", out] + files
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-6000:])
        die("compilation failed")
    open(os.path.join(out, "ok"), "w").close()
    return out, digest


def java(classes, jars, heap, harness_args, run_dir, log_name, timeout):
    """Runs the harness in a fresh JVM; returns the JSON report it wrote."""
    out = os.path.join(run_dir, log_name)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp)
    cmd = ["java", "-Xms" + heap, "-Xmx" + heap, "-XX:+UseParallelGC",
           "-Djava.io.tmpdir=" + tmp] + JAVA_OPENS + [
        "-cp", classes + os.pathsep + os.path.join(jars, "*"), "repro.perfbench.Harness"] + harness_args + [out]
    log = os.path.join(out, "harness.log")
    with open(log, "w") as fh:
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        try:
            rc = p.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            die("harness exceeded the run's time limit")
    if rc != 0:
        with open(log, errors="replace") as fh:
            sys.stderr.write(fh.read()[-6000:])
        die("harness failed with exit code %d" % rc)
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh)


def run_harness(classes, jars, args, run_dir, deadline):
    """The set-up JVM, then for learn-BE and validate-BE the measuring JVMs,
    one after another, each measuring an equal share of --seconds."""
    rep = java(classes, jars, SETUP_HEAP, ["setup", args.workload, str(args.seed), str(args.trace)],
               run_dir, "setup", deadline - time.time())
    if args.workload == "index-E":
        return rep
    inputs = os.path.join(run_dir, "setup", "inputs.bin")
    jvms = MEASURING_JVMS[args.workload]
    share = "%g" % (args.seconds / jvms)
    forks = [java(classes, jars, MEASURE_HEAP, ["measure", args.workload, inputs, share],
                  run_dir, "measure-%d" % k, deadline - time.time()) for k in range(jvms)]
    return benchlib.merge_forks(rep, forks)


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's outputs as the expected ones for its seed")
    args = ap.parse_args()

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_file):
        die("BENCHMARK.json not found at the root")
    with open(bench_file) as fh:
        spec = json.load(fh)
    jars = spark_jars()
    classes, src_digest = build(jars)

    os.makedirs(BUILD, exist_ok=True)
    run_dir = os.path.join(BUILD, "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        t0 = time.time()
        rep = run_harness(classes, jars, args, run_dir, t0 + RUN_TIMEOUT_S)
        wall = time.time() - t0
        digests = []
        for d in rep["index_dumps"]:
            with open(os.path.join(run_dir, "setup", d["file"]), encoding="utf-8") as fh:
                digests.append(benchlib.index_digest(fh))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            expected = json.load(fh).get(str(args.seed), {})
    failed, problems, outputs = benchlib.check_outputs(args.workload, rep, digests, expected)
    attempted = rep["attempted"]

    if args.record:
        allexp = {}
        if os.path.exists(EXPECTED):
            with open(EXPECTED) as fh:
                allexp = json.load(fh)
        allexp.setdefault(str(args.seed), {}).update(outputs)
        with open(EXPECTED, "w") as fh:
            json.dump(allexp, fh, indent=1, sort_keys=True)
            fh.write("\n")

    e2e, detail = benchlib.METRICS[args.workload](rep)
    e2e["setup_s"] = benchlib.setup_seconds(rep)
    env = dict(rep["env"], git_sha=git_sha(), source_digest=src_digest, workload=args.workload,
               trace=args.trace, run_wall_s=round(wall, 3),
               outputs_recorded_for_seed=bool(expected))
    print("env " + json.dumps(env, sort_keys=True))
    print("setup " + json.dumps(rep["setup"]))
    if "warmup_s" in rep:
        print("%-26s %14.6g %-4s (%s)" % ("warmup_s", rep["warmup_s"], "s",
                                          "untimed JIT pass, median over measuring JVMs; not set-up"))
    for name, value, unit, note in detail:
        print("%-26s %14.6g %-4s (%s)" % (name, value, unit, note))
    print("%-26s %14.6g      (%d of %d operations)" % ("fail_frac", failed / attempted, failed, attempted))
    print("outputs " + json.dumps({k: benchlib.json_digest(v) for k, v in outputs.items()}))
    for p in problems[:20]:
        print("check failed: " + p)

    if args.trace:
        values = dict(rep["layers"])
        values["trace.op_p50_ms"] = e2e["op_p50_ms"]
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die("metrics missing from the report: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
