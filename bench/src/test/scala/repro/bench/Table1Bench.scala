package repro.bench

import repro.{SparkSpec, TestFixtures}
import repro.eval.Runners

/** Table 1 — characteristics of the (synthetic) corpora.
  *
  * Paper: Enterprise 507K files / 7.2M cols / 8945 (17778) values / 1543
  * (7219) distinct; Government 29K files / 628K cols / 305 (331) / 46 (119).
  * Ours is a scaled-down lake; the asserted *shape*: T_E is much larger than
  * T_G, with longer columns.
  */
class Table1Bench extends SparkSpec {
  test("Table 1: corpus characteristics") {
    val res = Runners.table1(TestFixtures.art)
    println(res.rendered)
    assert(res.e.cols > 1000, "enterprise corpus should be >1000 columns")
    assert(res.e.cols > 2 * res.g.cols, "T_E should dwarf T_G")
    assert(res.e.files > res.g.files)
    assert(res.e.avgValues > res.g.avgValues, "T_E columns are longer")
    assert(res.e.avgDistinct > res.g.avgDistinct)
  }
}
