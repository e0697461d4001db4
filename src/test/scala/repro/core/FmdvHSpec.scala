package repro.core

import repro.{SparkSpec, TestFixtures}
import repro.core.FmdvH.HSolution
import repro.lake.Domains
import scala.util.Random

/** FMDV-H / FMDV-VH (horizontal cuts) against the enterprise-lake index. */
class FmdvHSpec extends SparkSpec {
  lazy val index = TestFixtures.indexE

  /** Dates with an exact dirt count: every 1/rate-th value is the marker,
    * so the realized non-conforming fraction is deterministic.
    */
  private def dirtyDates(seed: Int, n: Int, rate: Double, marker: String = "-"): Vector[String] = {
    val step = math.max(1, math.round(1 / rate).toInt)
    Domains.dateSlashD.make(new Random(seed), n).zipWithIndex
      .map { case (v, i) => if (i % step == step - 1) marker else v }
  }

  test("clean columns solve with zero tolerated non-conformance") {
    val s = FmdvH.solve(Domains.dateSlashD.make(new Random(21), 30), index).get
    assert(s.nonConfTrain == 0)
    assert(s.pat.matches("12/31/2024"))
  }

  test("dirty columns solve by cutting the special values (Fig. 9)") {
    val vals = dirtyDates(22, 60, 0.05)
    assert(Fmdv.solve(vals, index).isEmpty, "basic FMDV has an empty hypothesis space here")
    val s = FmdvH.solve(vals, index).get
    assert(s.nonConfTrain > 0)
    assert(s.pat.matches("12/31/2024"))
    assert(!s.pat.matches("-"))
  }

  test("Eq. 16: patterns matching fewer than (1-θ)|C| values are rejected") {
    val vals = dirtyDates(23, 60, 0.30) // 30% dirt > θ=0.10
    assert(FmdvH.solve(vals, index, FmdvConfig(theta = 0.10)).isEmpty)
    assert(FmdvH.solve(vals, index, FmdvConfig(theta = 0.45)).isDefined)
  }

  test("empty strings count toward |C| as non-conforming") {
    val vals = Vector.fill(18)("12/31/2020") ++ Vector("", "")
    val s = FmdvH.solve(vals, index, FmdvConfig(theta = 0.15)).get
    assert(s.nTrain == 20)
    assert(s.nonConfTrain == 2)
  }

  test("solveVH subsumes the flat solve on narrow columns") {
    val vals = dirtyDates(24, 60, 0.05)
    val h = FmdvH.solve(vals, index).get
    val vh = FmdvH.solveVH(vals, index).get
    assert(vh.pat == h.pat)
  }

  test("solveVH recovers wide dirty composites via vertical cuts") {
    val clean = Domains.compositePipeD.make(new Random(25), 60)
    val vals = clean.zipWithIndex.map { case (v, i) => if (i % 20 == 19) "N/A" else v }
    assert(FmdvH.solve(vals, index).isEmpty, "flat candidates are too wide")
    val s = FmdvH.solveVH(vals, index)
    assert(s.isDefined)
    assert(s.get.nonConfTrain > 0)
  }

  test("VhMethod produces a tolerant rule") {
    val m = new FmdvH.VhMethod(index)
    val rule = m.learn(dirtyDates(26, 60, 0.04)).get
    assert(rule.isInstanceOf[TolerantPatternRule])
  }

  test("tolerant rule: same dirt level at test time raises no alarm") {
    val m = new FmdvH.VhMethod(index)
    val rule = m.learn(dirtyDates(27, 100, 0.04)).get
    assert(!rule.flags(dirtyDates(28, 300, 0.04)))
  }

  test("tolerant rule: cross-domain data raises an alarm") {
    val m = new FmdvH.VhMethod(index)
    val rule = m.learn(dirtyDates(29, 100, 0.04)).get
    assert(rule.flags(Domains.statusD.make(new Random(30), 200)))
  }

  test("tolerant rule: strongly increased dirt rate raises an alarm") {
    val m = new FmdvH.VhMethod(index)
    val rule = m.learn(dirtyDates(31, 100, 0.02)).get
    assert(rule.flags(dirtyDates(32, 300, 0.40)))
  }

  test("chi-squared variant behaves like Fisher on clear cases") {
    val learned = new FmdvH.VhMethod(index).learn(dirtyDates(33, 100, 0.03)).get
    val rule = learned.asInstanceOf[TolerantPatternRule].copy(useChiSq = true)
    assert(!rule.flags(dirtyDates(34, 300, 0.03)))
    assert(rule.flags(Domains.statusD.make(new Random(35), 200)))
  }

  /** FMDV-H over the oracle's candidates: every pattern of the oracle's
    * column counts that reaches (1-θ)|C|, then the same selection.
    */
  private def oracleSolve(values: Seq[String], cfg: FmdvConfig = FmdvConfig()): Option[HSolution] = {
    val vs = values.filter(_ != null)
    val n = vs.size
    if (n == 0) return None
    val need = math.ceil((1 - cfg.theta) * n).toInt
    val candidates = EnumerateOracle.columnPatternCounts(vs, cfg.tau, cfg.cap)
      .collect { case (k, c) if c >= need => Pattern.parse(k) }.toVector
    Fmdv.best(candidates, index, cfg).map(s => HSolution(s.pat, s.fpr, n - vs.count(v => s.pat.matches(v)), n))
  }

  test("FMDV-H and FMDV-VH equal a solve over the oracle's candidates on every B_E training prefix") {
    val cases = TestFixtures.benchE
    assert(cases.count(!_.isNL) == 120 && cases.exists(_.isNL))
    val bad = EnumerateOracleSpec.inParallel(cases) { c =>
      val train = c.train()
      val want = oracleSolve(train)
      // solveVH only falls through to FMDV-V, which never enumerates
      // frequent patterns, when the flat solve has no rule
      val ok = FmdvH.solve(train, index) == want &&
        (want.isEmpty || FmdvH.solveVH(train, index) == want)
      if (ok) None else Some(c.id)
    }.flatten
    assert(bad.isEmpty, s"${bad.size} cases differ: ${bad.take(5)}")
  }

  test("no solution on empty input") {
    assert(FmdvH.solve(Seq.empty, index).isEmpty)
    assert(FmdvH.solveVH(Seq.empty, index).isEmpty)
  }
}
