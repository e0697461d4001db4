package repro.bench

import repro.{SparkSpec, TestFixtures}
import repro.eval.Runners

/** Figure 15 as a table — schema-drift detection on synthetic Kaggle-like
  * tasks (DESIGN.md §3.6). Paper: drift detected in 8 of 11 tasks with no
  * false positives; misses happen when the swapped columns' formats are
  * near-identical.
  */
class DriftBench extends SparkSpec {
  test("Figure 15: schema-drift detection") {
    val res = Runners.drift(TestFixtures.art)
    println(res.rendered)
    val detected = res.results.count(_.detected)
    assert(detected >= 6, s"detected only $detected/11")
    assert(detected <= 11)
    assert(res.results.count(_.falsePositive) == 0, "no false alarms on un-drifted data")
  }
}
