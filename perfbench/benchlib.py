"""Helpers of run.py: percentiles, per-column medians,
output digests and the metrics each workload reports.

The harness (src/repro/perfbench/Harness.scala) writes raw timings and
outputs; everything here is pure Python so that it can be unit-tested
(test_benchlib.py) without a JVM.
"""

import hashlib
import json
import math
import statistics


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p % of the
    values at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    return xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]


def _check_passes(passes):
    if not passes or any(len(p) != len(passes[0]) for p in passes):
        raise ValueError("passes must be non-empty and of equal length")


def per_column_medians(passes):
    """Median of each position across passes (one list per pass, all of the
    same length): a column's time is its median over the run's passes."""
    _check_passes(passes)
    return [statistics.median(col) for col in zip(*passes)]


def per_call_upper_quartiles(passes):
    """Upper quartile (nearest rank) of each position across passes: a
    call's time is the one its slower quarter of passes reaches."""
    _check_passes(passes)
    return [percentile(col, 75) for col in zip(*passes)]


def index_digest(lines):
    """(entry count, SHA-256) of index entries given as 'key<TAB>fpr<TAB>cov'
    lines. Entries are sorted first, so the digest ignores the order Spark's
    partitions return them in, and FPR is rounded to 1e-9, because Spark's
    `avg` may differ in the last ulp with the summation order."""
    rows = []
    for line in lines:
        key, fpr, cov = line.rstrip("\n").rsplit("\t", 2)
        rows.append("%s\t%.9f\t%d" % (key, float(fpr), int(cov)))
    rows.sort()
    h = hashlib.sha256()
    for r in rows:
        h.update(r.encode("utf-8"))
        h.update(b"\n")
    return len(rows), h.hexdigest()


def json_digest(obj):
    """SHA-256 of a JSON value with sorted keys (learned rules, verdicts)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _ms(ns):
    return ns / 1e6


def pass_wall(rep):
    """Detail line: the median wall time of a pass, loop and timing included."""
    return ("pass_wall_s", statistics.median(rep["pass_s"]), "s", "median of %d passes" % len(rep["pass_s"]))


def index_metrics(rep):
    """index-E: the run's one index build, cold (the first in its JVM)."""
    build = next(d["build_s"] for d in rep["index_dumps"] if d["build_s"] is not None)
    e2e = {
        "op_p50_ms": build * 1e3,
        "op_tail_ms": build * 1e3,
        "work_per_s": rep["corpus_columns"] / build,
    }
    detail = [
        ("index_build_s", build, "s", "one cold build"),
        ("index_cols_per_s", e2e["work_per_s"], "1/s", "%d corpus columns" % rep["corpus_columns"]),
    ]
    return e2e, detail


def learn_metrics(rep):
    """learn-BE: one time per (variant, column), the median over passes.
    The rate is rules per second over a full pass of every (variant, column)
    call, each call at its median time."""
    n = len(rep["learn_columns"])
    meds = per_column_medians(rep["call_ns"])
    rate = len(meds) / (sum(meds) / 1e9)
    e2e = {
        "op_p50_ms": _ms(percentile(meds, 50)),
        "op_tail_ms": _ms(percentile(meds, 90)),
        "work_per_s": rate,
    }
    detail = [("learn_rules_per_s", rate, "1/s",
               "%d passes of %d calls" % (len(rep["call_ns"]), len(meds))),
              pass_wall(rep)]
    for vi, variant in enumerate(rep["variants"]):
        name = "learn_" + variant.lower().replace("-", "_")
        mine = meds[vi * n:(vi + 1) * n]
        beyond = n - math.ceil(0.9 * n)
        detail.append((name + "_p50_ms", _ms(percentile(mine, 50)), "ms", "n = %d" % n))
        detail.append((name + "_p90_ms", _ms(percentile(mine, 90)), "ms",
                       "n = %d, %d beyond" % (n, beyond)))
    detail.append(("learn_all_p90_ms", e2e["op_tail_ms"], "ms",
                   "n = %d, %d beyond" % (len(meds), len(meds) - math.ceil(0.9 * len(meds)))))
    return e2e, detail


def validate_metrics(rep):
    """validate-BE: one time per (rule, batch) call, the upper quartile of
    its times over the passes of every measuring JVM. The host runs this
    workload in two states, its usual one and, for seconds at a time or for
    a whole JVM, one up to 1.7x faster (p50 11 us against 19 us); a median
    over passes follows whichever state held half of the run, the upper
    quartile follows the usual state unless the faster one held more than
    three quarters of it. The rate is test values per second over a full
    pass of every call, each at that time."""
    times = per_call_upper_quartiles(rep["call_ns"])
    passes = len(rep["call_ns"])
    rate = rep["batch_values"] / (sum(times) / 1e9)
    e2e = {
        "op_p50_ms": _ms(percentile(times, 50)),
        "op_tail_ms": _ms(percentile(times, 99)),
        "work_per_s": rate,
    }
    beyond = len(times) - math.ceil(0.99 * len(times))
    detail = [
        ("validate_values_per_s", rate, "1/s", "%d passes" % passes),
        pass_wall(rep),
        ("validate_batch_p50_us", percentile(times, 50) / 1e3, "us", "n = %d" % len(times)),
        ("validate_batch_p99_us", percentile(times, 99) / 1e3, "us",
         "n = %d, %d beyond" % (len(times), beyond)),
    ]
    return e2e, detail


METRICS = {"index-E": index_metrics, "learn-BE": learn_metrics, "validate-BE": validate_metrics}


def setup_seconds(rep):
    """Set-up time: the sum of the set-up phases (lake generation is the
    median of its repeats)."""
    return sum(rep["setup"].values())


def merge_forks(rep, forks):
    """Pools the passes of the measuring JVMs into the set-up JVM's report.
    Every JVM must produce the same outputs as the first; each output that
    differs counts as changed once per pass of that JVM."""
    rep = dict(rep, setup=dict(rep["setup"]), layers=dict(rep["layers"]),
               problems=list(rep["problems"]))
    first = forks[0]
    outputs = ("variants", "patterns", "bad_outputs", "batch_values", "rules", "batches", "verdicts")
    for key in outputs:
        if key in first:
            rep[key] = first[key]
    rep["call_ns"] = [p for f in forks for p in f["call_ns"]]
    rep["pass_s"] = [t for f in forks for t in f["pass_s"]]
    rep["changed_outputs"] = sum(f["changed_outputs"] for f in forks)
    rep["attempted"] += sum(len(p) for p in rep["call_ns"])
    # the measuring JVMs' untimed JIT pass is the measured operation run
    # cold, not set-up; it is reported apart from setup_s
    rep["warmup_s"] = statistics.median(f["warmup_s"] for f in forks)
    if "jvm.gc_s" not in rep["layers"]:
        rep["layers"]["jvm.gc_s"] = sum(f["gc_s"] for f in forks)
    for k, f in enumerate(forks):
        rep["problems"] += f["problems"]
        if k == 0:
            continue
        for key in ("patterns", "verdicts"):
            if key not in f:
                continue
            a = first[key] if key == "verdicts" else [x for v in first["variants"] for x in first[key][v]]
            b = f[key] if key == "verdicts" else [x for v in f["variants"] for x in f[key][v]]
            diff = sum(x != y for x, y in zip("".join(a), "".join(b))) if key == "verdicts" \
                else sum(x != y for x, y in zip(a, b))
            if diff:
                rep["problems"].append("measuring JVM %d: %d outputs differ from the first JVM's" % (k + 1, diff))
                rep["changed_outputs"] += diff * len(f["call_ns"])
    return rep


def check_outputs(workload, rep, digests, expected):
    """Counts failed operations. `digests` holds the index digest of each
    entry of rep["index_dumps"]; `expected` holds the outputs recorded for
    this seed (may be empty, then only the invariants checked by the
    harness and the agreement between repeats apply). Returns
    (failed, problems, outputs) where `outputs` is what --record stores."""
    problems = list(rep["problems"])
    failed = 0
    outputs = {}

    ref = digests[0]
    outputs["index"] = {"entries": ref[0], "digest": ref[1]}
    exp_index = expected.get("index")
    for dump, dg in zip(rep["index_dumps"], digests):
        wrong = dg != ref or (exp_index is not None and list(dg) != [exp_index["entries"], exp_index["digest"]])
        if wrong:
            problems.append("%s: index (%d entries) differs from the recorded one" % (dump["file"], dg[0]))
        if wrong or dump["violations"]:
            failed += 1

    if workload == "learn-BE":
        cols = rep["learn_columns"]
        n = len(cols)
        outputs["patterns"] = {v: dict(zip(cols, rep["patterns"][v])) for v in rep["variants"]}
        wrong = set(rep["bad_outputs"])
        variants = rep["variants"]
        if "FMDV-H" in variants and "FMDV-VH" in variants:
            # FMDV-VH answers as FMDV-H wherever FMDV-H has a rule
            h, vh = rep["patterns"]["FMDV-H"], rep["patterns"]["FMDV-VH"]
            for ci, col in enumerate(cols):
                if h[ci] is not None and vh[ci] != h[ci]:
                    wrong.add(variants.index("FMDV-VH") * n + ci)
                    problems.append("FMDV-VH on %s: differs from FMDV-H" % col)
        exp = expected.get("patterns")
        if exp is not None:
            for vi, v in enumerate(variants):
                for ci, col in enumerate(cols):
                    if exp[v].get(col, "absent") != rep["patterns"][v][ci]:
                        wrong.add(vi * n + ci)
                        problems.append("%s on %s: learned pattern differs from the recorded one" % (v, col))
        failed += len(wrong) * len(rep["call_ns"]) + rep["changed_outputs"]

    if workload == "validate-BE":
        batches = rep["batches"]
        verdicts = {"%s|%s" % (m, c): bits for (m, c, _), bits in zip(rep["rules"], rep["verdicts"])}
        outputs["verdicts"] = {"batches": batches, "rules": verdicts}
        passes = len(rep["call_ns"])
        mism = 0
        exp_pat = expected.get("patterns")
        if exp_pat is not None:
            for m, c, key in rep["rules"]:
                if exp_pat[m].get(c) != key:
                    mism += len(batches)
                    problems.append("%s rule of %s differs from the recorded pattern" % (m, c))
        exp = expected.get("verdicts")
        if exp is not None:
            if exp["batches"] != batches:
                mism += len(verdicts) * len(batches)
                problems.append("batches differ from the recorded ones")
            for rule in set(verdicts) | set(exp["rules"]):
                got, want = verdicts.get(rule), exp["rules"].get(rule)
                if got is None or want is None:
                    mism += len(batches)
                    problems.append("rule %s is %s" % (rule, "missing" if got is None else "unexpected"))
                else:
                    bad = sum(a != b for a, b in zip(got, want))
                    if bad:
                        problems.append("rule %s: %d verdicts differ from the recorded ones" % (rule, bad))
                    mism += bad
        failed += mism * passes + rep["changed_outputs"]

    return failed, problems, outputs
