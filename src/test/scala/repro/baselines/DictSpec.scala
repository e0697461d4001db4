package repro.baselines

import repro.SparkSpec
import repro.baselines.Dict._

class DictSpec extends SparkSpec {

  test("TFDV learns the seen-value dictionary") {
    val rule = new Tfdv().learn(Seq("US", "UK", "DE")).get
    assert(!rule.flags(Seq("US", "DE")))
    assert(rule.flags(Seq("US", "FR")), "unseen value must alarm — the paper's false-positive mode")
  }

  test("TFDV over-fits open domains (the paper's critique)") {
    val rule = new Tfdv().learn(Seq("Mar 01 2019", "Mar 02 2019")).get
    assert(rule.flags(Seq("Apr 01 2019")))
  }

  test("TFDV learns nothing from an empty column") {
    assert(new Tfdv().learn(Seq.empty).isEmpty)
  }

  test("Deequ-Cat applies only to categorical-looking columns") {
    val cat = new DeequCat()
    assert(cat.learn(Seq("A", "B", "A", "B", "A", "B", "A", "B", "A", "B")).isDefined)
    assert(cat.learn((1 to 20).map(_.toString)).isEmpty, "high-distinct column is not categorical")
  }

  test("Deequ-Cat rule is a complete dictionary") {
    val rule = new DeequCat().learn(Seq.fill(5)("Y") ++ Seq.fill(5)("N")).get
    assert(!rule.flags(Seq("Y", "N")))
    assert(rule.flags(Seq("Y", "X")))
  }

  test("Deequ-Fra tolerates a small out-of-dictionary fraction") {
    val train = Seq.fill(90)("OK") ++ Seq.fill(10)("FAIL")
    val rule = new DeequFra().learn(train).get
    val test = Seq.fill(92)("OK") ++ Seq.fill(8)("weird")
    assert(!rule.flags(test), "92% in-dictionary should pass a fractional rule")
    assert(rule.flags(Seq.fill(50)("OK") ++ Seq.fill(50)("weird")))
  }

  test("Deequ-Fra dictionary keeps only the covering head") {
    val train = Seq.fill(95)("A") ++ Seq("b", "c", "d", "e", "f")
    val rule = new DeequFra(coverage = 0.9).learn(train).get.asInstanceOf[FractionalDictRule]
    assert(rule.dict == Set("A"))
  }

  test("CompleteDictRule flags empty-dictionary misses deterministically") {
    val r = CompleteDictRule("t", Set("x"))
    assert(!r.flags(Seq.empty))
    assert(r.flags(Seq("y")))
  }

  test("FractionalDictRule boundary behavior") {
    val r = FractionalDictRule("t", Set("a"), minInDict = 0.5)
    assert(!r.flags(Seq("a", "a", "b")))
    assert(r.flags(Seq("a", "b", "b")))
    assert(!r.flags(Seq.empty))
  }

  test("FractionalDictRule: the early exit agrees with the full count") {
    def fullCount(r: FractionalDictRule, test: Seq[String]): Boolean =
      test.nonEmpty && test.count(r.dict.contains).toDouble / test.size < r.minInDict
    for (min <- Seq(0.0, 0.25, 1.0 / 3, 0.5, 0.85, 0.9, 1.0, 1.5)) {
      val r = FractionalDictRule("t", Set("a"), min)
      for (n <- 0 to 40; in <- 0 to n) {
        val placed = Seq[Int => Boolean](_ < in, _ >= n - in,
          i => (i + 1) * in / n > i * in / n)
        for (isIn <- placed) {
          val b = Vector.tabulate(n)(i => if (isIn(i)) "a" else "b")
          assert(r.flags(b) == fullCount(r, b) && r.flags(b.toList) == fullCount(r, b),
            s"minInDict=$min n=$n in=$in")
        }
      }
    }
  }
}
