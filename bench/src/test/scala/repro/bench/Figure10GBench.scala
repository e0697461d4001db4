package repro.bench

import repro.{SparkSpec, TestFixtures}
import repro.eval.Runners

/** Figure 10(b) as a table — the government-like benchmark B_G: smaller
  * corpus, shorter and dirtier columns. Paper shape: all methods degrade
  * relative to B_E, but FMDV variants stay on top.
  */
class Figure10GBench extends SparkSpec {
  lazy val res = Runners.figure10(TestFixtures.art, "G")
  def score(name: String) = res.scores.find(_.method == name).get

  test("Figure 10(b): run and print") {
    println(res.rendered)
    assert(res.nSubset > 30)
  }

  test("FMDV-VH still dominates the baselines in F1") {
    val vh = score("FMDV-VH")
    for (s <- res.scores if !s.method.startsWith("FMDV"))
      assert(vh.f1 >= s.f1, s"FMDV-VH (${vh.f1}) should beat ${s.method} (${s.f1})")
  }

  test("harder benchmark: FMDV-VH recall drops relative to B_E") {
    val e = Runners.figure10(TestFixtures.art, "E")
    val vhG = score("FMDV-VH"); val vhE = e.scores.find(_.method == "FMDV-VH").get
    assert(vhG.f1 <= vhE.f1 + 0.02, s"B_G (${vhG.f1}) should not beat B_E (${vhE.f1})")
  }

  test("dictionary methods stay low-precision") {
    assert(score("TFDV").precision < score("FMDV-VH").precision)
  }
}
