package repro.bench

import repro.{SparkSpec, TestFixtures}
import repro.eval.Runners

/** Figure 13 as tables — distribution of patterns in the offline index.
  * Paper shape: patterns spread over token lengths with a mid-length bulge,
  * and a power-law-like coverage distribution (few high-coverage "domain"
  * patterns, a long low-coverage tail).
  */
class PatternStatsBench extends SparkSpec {
  test("Figure 13: pattern distribution in the offline index") {
    val res = Runners.patternStats(TestFixtures.art)
    println(res.rendered)
    assert(res.byLen.keys.max >= 9, "index should contain wide patterns")
    assert(res.byLen.values.sum > 30000L, "index should hold tens of thousands of patterns")
    assert(res.byLen.filter(_._1 >= 5).values.sum > res.byLen.filter(_._1 < 5).values.sum,
      "mid-length patterns dominate (paper: 5-7 tokens most common)")
    // power law: lowest coverage bucket dominates the highest
    val lo = res.covHist.minBy(_._1)._2
    val hi = res.covHist.maxBy(_._1)._2
    assert(lo > 10 * hi, s"low-coverage tail ($lo) should dwarf the head ($hi)")
    // head patterns include recognizable domains
    val heads = res.head.map { case (k, _) => repro.core.Pattern.parse(k).display }
    assert(heads.nonEmpty)
  }
}
