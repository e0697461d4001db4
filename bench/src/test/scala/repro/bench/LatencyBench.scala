package repro.bench

import repro.{SparkSpec, TestFixtures}
import repro.eval.Runners

/** Figure 14 as a table — average latency per query column.
  * Paper shape: indexed FMDV variants answer in tens of milliseconds; the
  * no-index variant that re-scans the corpus per query is orders of
  * magnitude slower. (Our re-implemented profilers are simplified and hence
  * faster than the authors' 6–7 s binaries — noted in EXPERIMENTS.md.)
  */
class LatencyBench extends SparkSpec {
  test("Figure 14: per-query-column latency") {
    val res = Runners.latency(TestFixtures.art)
    println(res.rendered)
    val m = res.msPerMethod
    for (v <- Seq("FMDV", "FMDV-V", "FMDV-H", "FMDV-VH"))
      assert(m(v) < 2000, s"$v latency ${m(v)} ms should be interactive")
    assert(m("FMDV(no-index)") > 10 * m("FMDV-VH"),
      s"no-index (${m("FMDV(no-index)")} ms) should be orders slower than indexed (${m("FMDV-VH")} ms)")
  }
}
