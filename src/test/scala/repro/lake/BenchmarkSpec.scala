package repro.lake

import repro.SparkSpec
import repro.baselines.UpperBounds
import repro.lake.Benchmark._

class BenchmarkSpec extends SparkSpec {

  lazy val benchE = Benchmark.generate(Benchmark.EnterpriseBench)
  lazy val benchG = Benchmark.generate(Benchmark.GovernmentBench)

  test("benchmark size and NL mix match the config") {
    assert(benchE.size == Benchmark.EnterpriseBench.nCases)
    val nl = benchE.count(_.isNL)
    assert(math.abs(nl - 80) <= 1, s"~40% NL expected, got $nl")
  }

  test("generation is deterministic") {
    val again = Benchmark.generate(Benchmark.EnterpriseBench)
    assert(benchE.map(_.id) == again.map(_.id))
    assert(benchE.map(_.values) == again.map(_.values))
  }

  test("case ids are unique and corpus-prefixed") {
    assert(benchE.map(_.id).distinct.size == benchE.size)
    assert(benchE.forall(_.id.startsWith("E-")))
    assert(benchG.forall(_.id.startsWith("G-")))
  }

  test("train/test split: 10% prefix vs 90% suffix") {
    val c = benchE.head
    assert(c.train().size == 30)
    assert(c.test().size == 270)
    assert(c.train() ++ c.test() == c.values)
  }

  test("a case of fewer than 1 / TrainFrac values trains on its first value") {
    val c = BenchCase("x", "d", isNL = false, "", Vector("a", "b", "c"), Set(2), None)
    assert(c.train() == Vector("a"))
    assert(c.test() == Vector("b", "c"))
    assert(c.testClean() == Vector("b"))
  }

  test("noise values are injected into the test portion only") {
    val noisy = benchE.filter(_.noiseIdx.nonEmpty)
    assert(noisy.nonEmpty, "some cases should carry injected noise")
    for (c <- noisy) {
      val off = c.train().size
      assert(c.noiseIdx.forall(_ >= off), s"${c.id} noise in train portion")
    }
  }

  test("testClean removes exactly the injected noise") {
    val c = benchE.find(_.noiseIdx.nonEmpty).get
    assert(c.testClean().size == c.test().size - c.noiseIdx.size)
    val noiseVals = c.noiseIdx.toSeq.map(c.values)
    assert(noiseVals.forall(v => c.test().contains(v)))
  }

  test("NL cases carry no noise and no ground-truth pattern") {
    assert(benchE.filter(_.isNL).forall(_.noiseIdx.isEmpty))
    assert(benchE.filter(_.isNL).forall(_.groundTruth.isEmpty))
  }

  test("machine cases carry their domain's ground truth") {
    val c = benchE.find(_.domain == "date_slash")
    assert(c.isDefined)
    assert(c.get.groundTruth == "<digit>+/<digit>+/<digit>{4}")
  }

  test("siblings are determinant columns (FD holds by construction)") {
    val withSib = benchE.filter(_.sibling.isDefined)
    assert(withSib.nonEmpty)
    for (c <- withSib.take(20))
      assert(c.sibling.get.zip(c.values).groupBy(_._1).forall(_._2.map(_._2).distinct.size == 1))
  }

  test("FD-UB counts enum-like cases only (key-like siblings are trivial)") {
    val subset = benchE.filterNot(_.isNL)
    val frac = UpperBounds.fdUpperBoundRecall(subset)
    assert(frac > 0.05 && frac < 0.7, s"FD coverage fraction $frac")
    // a guid case can never be FD-covered: its sibling is unique-valued
    val guidCase = subset.find(c => c.domain == "guid" && c.sibling.isDefined)
    guidCase.foreach(c => assert(!UpperBounds.nonTrivialFd(c.sibling.get, c.values)))
  }

  test("dirty cases exist and use a single marker") {
    val special = Domains.SpecialValues.toSet
    val dirty = benchE.filter(c => !c.isNL && c.values.exists(v => special.contains(v) && !c.noiseIdx.contains(c.values.indexOf(v))))
    assert(dirty.nonEmpty)
  }

  test("government cases are shorter") {
    assert(benchG.head.values.size == 100)
    assert(benchG.head.train().size == 10)
  }
}
