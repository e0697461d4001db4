package repro.bench

import repro.{SparkSpec, TestFixtures}
import repro.eval.Runners

/** Figure 10(a) as a table — precision/recall of all methods on B_E.
  *
  * Paper shape: FMDV-VH best (0.96 P / 0.88 R), FMDV-VH ≥ FMDV-H ≥ FMDV-V ≥
  * FMDV; PWheel and SM-I-1 the strongest baselines; TFDV/Deequ low precision
  * on string data; Grok high precision / low recall; FD-UB covers only ~25%.
  */
class Figure10EBench extends SparkSpec {
  lazy val res = Runners.figure10(TestFixtures.art, "E")
  def score(name: String) = res.scores.find(_.method == name).get

  test("Figure 10(a): run and print") {
    println(res.rendered)
    assert(res.nSubset > 50 && res.nSubset < res.nTotal)
  }

  test("FMDV-VH dominates every baseline in F1") {
    val vh = score("FMDV-VH")
    for (s <- res.scores if !s.method.startsWith("FMDV"))
      assert(vh.f1 >= s.f1, s"FMDV-VH (${vh.f1}) should beat ${s.method} (${s.f1})")
  }

  test("FMDV-VH reaches paper-territory precision and recall") {
    val vh = score("FMDV-VH")
    assert(vh.precision >= 0.90, s"precision ${vh.precision}")
    assert(vh.recall >= 0.70, s"recall ${vh.recall}")
  }

  test("variant ordering: VH >= H >= basic, VH >= V >= basic (F1)") {
    assert(score("FMDV-VH").f1 >= score("FMDV-H").f1 - 1e-9)
    assert(score("FMDV-H").f1 >= score("FMDV").f1 - 1e-9)
    assert(score("FMDV-VH").f1 >= score("FMDV-V").f1 - 1e-9)
    assert(score("FMDV-V").f1 >= score("FMDV").f1 - 1e-9)
  }

  test("dictionary methods false-alarm heavily on string data") {
    assert(score("TFDV").precision < 0.5, s"TFDV precision ${score("TFDV").precision}")
    assert(score("TFDV").precision < score("FMDV-VH").precision)
    assert(score("Deequ-Fra").precision < score("FMDV-VH").precision)
  }

  test("Grok: high precision, low recall") {
    val g = score("Grok")
    assert(g.precision >= 0.7, s"Grok precision ${g.precision}")
    assert(g.precision > score("PWheel").precision, "curated types beat profiling on precision")
    assert(g.recall < score("FMDV-VH").recall)
  }

  test("profilers over-fit: PWheel precision well below FMDV-VH") {
    assert(score("PWheel").precision < score("FMDV-VH").precision - 0.1)
    assert(score("SSIS").precision <= score("PWheel").precision + 0.1)
  }

  test("FD-UB covers only a minority of cases") {
    assert(res.fdUb < 0.5, s"FD-UB ${res.fdUb}")
    assert(res.fdUb < score("FMDV-VH").recall)
  }
}
