package repro.bench

import repro.{SparkSpec, TestFixtures}
import repro.eval.Runners

/** Table 3 — the user study, with simulated programmer policies (DESIGN.md
  * §3.5). Paper: programmers average 84–145 s and 0.30–0.65 precision;
  * FMDV-VH 0.08 s, 1.0 precision, 0.978 recall on the 20-column sample.
  */
class Table3Bench extends SparkSpec {
  test("Table 3: simulated user study") {
    val res = Runners.table3(TestFixtures.art)
    println(res.rendered)
    val byName = res.rows.map(r => r._1 -> r).toMap
    val vh = byName("FMDV-VH")
    for (p <- Seq("Programmer#1", "Programmer#2", "Programmer#3")) {
      assert(vh._4 >= byName(p)._4, s"FMDV-VH precision should beat $p")
      assert(vh._5 >= byName(p)._5, s"FMDV-VH recall should beat $p")
    }
    assert(vh._4 >= 0.9, s"FMDV-VH precision ${vh._4}")
    // the paper's programmer quality band: clearly below the algorithm
    assert(res.rows.filter(_._1.startsWith("Programmer")).map(_._4).max < vh._4 + 1e-9)
  }
}
