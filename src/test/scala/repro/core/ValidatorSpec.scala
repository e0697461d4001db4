package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.util.concurrent.{Callable, CountDownLatch, Executors}

import repro.SparkSpec
import repro.core.Pattern._
import repro.stats.StatTests

class ValidatorSpec extends SparkSpec {

  private val datePat = Pat(Vector(VarLen(GClass.Digit), ConstT("/"),
    VarLen(GClass.Digit), ConstT("/"), FixLen(GClass.Digit, 4)))

  test("strict rule: no alarm when every value conforms") {
    val r = StrictPatternRule("t", datePat)
    assert(!r.flags(Seq("1/2/2020", "12/31/1999")))
  }

  test("strict rule: a single deviation raises an alarm") {
    val r = StrictPatternRule("t", datePat)
    assert(r.flags(Seq("1/2/2020", "oops")))
    assert(r.flags(Seq("1/2/2020", null)))
  }

  test("strict rule: empty batch raises nothing") {
    assert(!StrictPatternRule("t", datePat).flags(Seq.empty))
  }

  test("tolerant rule: no alarm when test rate matches train rate") {
    val r = TolerantPatternRule("t", datePat, nonConfTrain = 3, nTrain = 100)
    val test = Vector.fill(97)("1/2/2020") ++ Vector("-", "-", "-")
    assert(!r.flags(test))
  }

  test("tolerant rule: never alarms when the rate decreased") {
    val r = TolerantPatternRule("t", datePat, nonConfTrain = 5, nTrain = 100)
    assert(!r.flags(Vector.fill(100)("1/2/2020")))
  }

  test("tolerant rule: complete mismatch alarms") {
    val r = TolerantPatternRule("t", datePat, nonConfTrain = 0, nTrain = 100)
    assert(r.flags(Vector.fill(100)("Booked")))
  }

  test("tolerant rule: insignificant single bad value does not alarm") {
    val r = TolerantPatternRule("t", datePat, nonConfTrain = 0, nTrain = 30)
    val test = Vector.fill(269)("1/2/2020") :+ "ship_date"
    assert(!r.flags(test), "one stray header among 270 should not be significant at α=0.01")
  }

  test("tolerant rule: strong increase alarms (0.1% → 5%, the paper's example)") {
    val r = TolerantPatternRule("t", datePat, nonConfTrain = 1, nTrain = 1000)
    val test = Vector.fill(950)("1/2/2020") ++ Vector.fill(50)("-")
    assert(r.flags(test))
  }

  test("tolerant rule: empty batch raises nothing") {
    assert(!TolerantPatternRule("t", datePat, 0, 10).flags(Seq.empty))
  }

  test("tolerant rule: thetaTrain computed from counts") {
    assert(TolerantPatternRule("t", datePat, 5, 50).thetaTrain == 0.1)
    assert(TolerantPatternRule("t", datePat, 0, 0).thetaTrain == 0.0)
  }

  test("tolerant rule with chi-squared backend") {
    val r = TolerantPatternRule("t", datePat, 0, 100, useChiSq = true)
    assert(r.flags(Vector.fill(100)("nope")))
    assert(!r.flags(Vector.fill(100)("1/2/2020")))
  }

  test("describe renders the pattern") {
    assert(StrictPatternRule("t", datePat).describe.contains("<digit>+"))
    assert(TolerantPatternRule("t", datePat, 1, 10).describe.contains("θ"))
  }

  private def serialized(r: Rule): Array[Byte] = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(r)
    out.close()
    bytes.toByteArray
  }

  private def javaRoundTrip(r: Rule): Rule =
    new ObjectInputStream(new ByteArrayInputStream(serialized(r))).readObject().asInstanceOf[Rule]

  test("rules give the same verdicts after Java serialization") {
    // 70 positions: matched by the regex fallback, not the bit-parallel matcher
    val longPat = Pat(Vector(FixLen(GClass.Digit, 70)))
    val rules = Seq(
      StrictPatternRule("s", datePat),
      TolerantPatternRule("t", datePat, nonConfTrain = 1, nTrain = 1000),
      StrictPatternRule("l", longPat))
    val batches = Seq(
      Vector("1/2/2020", "12/31/1999"),
      Vector("1/2/2020", null),
      Vector.fill(950)("1/2/2020") ++ Vector.fill(50)("-"),
      Vector("7" * 70),
      Vector("7" * 69))
    for (r <- rules) {
      val verdicts = batches.map(r.flags) // the matcher is built before the rule is sent
      val copy = javaRoundTrip(r)
      assert(copy == r)
      assert(batches.map(copy.flags) == verdicts, r.name)
      assert(verdicts.contains(true) && verdicts.contains(false), r.name)
    }
  }

  // ---- the early exit of TolerantPatternRule against the full count ----

  /** The §4 test as `flags` applied it before the early exit: every value is
    * checked, then θ_test > θ_train and the rule's homogeneity test at α.
    */
  private def fullCount(r: TolerantPatternRule, test: Seq[String]): Boolean = {
    val n = test.size
    val bad = test.count(v => !r.pat.matches(v))
    n > 0 && bad.toDouble / n > r.thetaTrain && {
      val (a, b, c, d) = (r.nonConfTrain, r.nTrain - r.nonConfTrain, bad, n - bad)
      val p = if (r.useChiSq) StatTests.chiSquaredYates(a, b, c, d) else StatTests.fisherExactTwoTailed(a, b, c, d)
      p < r.alpha
    }
  }

  private val digits = Pat(Vector(VarLen(GClass.Digit)))

  /** n values, `bad` of them misses (alternately "-" and null), placed
    * first, last, or spread evenly.
    */
  private def batches(n: Int, bad: Int): Seq[Vector[String]] = {
    def of(miss: Int => Boolean) =
      Vector.tabulate(n)(i => if (!miss(i)) "42" else if (i % 2 == 0) "-" else null)
    Seq(of(_ < bad), of(_ >= n - bad), of(i => (i + 1).toLong * bad / n > i.toLong * bad / n))
  }

  /** Every (rule, batch) pair where `flags` and the full count differ. The
    * three placements of a count share one full count.
    */
  private def disagreements(rules: Seq[TolerantPatternRule], sizes: Seq[Int]): Seq[String] = {
    val inputs = for (n <- sizes; bad <- 0 to n) yield (n, bad, batches(n, bad))
    EnumerateOracleSpec.inParallel(rules) { r =>
      for {
        (n, bad, bs) <- inputs
        verdict = fullCount(r, bs.head)
        (b, place) <- bs.zipWithIndex if r.flags(b) != verdict
      } yield s"$r on n=$n bad=$bad placement=$place"
    }.flatten
  }

  test("tolerant rule: the early exit agrees with the full count on every small table") {
    val rules = for {
      nTrain <- 0 to 40; nonConf <- 0 to nTrain; chi <- Seq(false, true)
    } yield TolerantPatternRule("t", digits, nonConf, nTrain, useChiSq = chi)
    val bad = disagreements(rules, 1 to 80)
    assert(bad.isEmpty, s"${bad.size} disagreements, e.g. ${bad.take(5).mkString("; ")}")
  }

  test("tolerant rule: the early exit agrees with the full count at B_E's sizes") {
    val rules = for (nonConf <- 0 to 30; chi <- Seq(false, true))
      yield TolerantPatternRule("t", digits, nonConf, 30, useChiSq = chi)
    val bad = disagreements(rules, Seq(270))
    assert(bad.isEmpty, s"${bad.size} disagreements, e.g. ${bad.take(5).mkString("; ")}")
  }

  test("tolerant rule: List and Vector batches, nulls and empty batches") {
    val r = TolerantPatternRule("t", digits, nonConfTrain = 1, nTrain = 30)
    for (n <- Seq(1, 2, 17, 90, 270); bad <- 0 to n; b <- batches(n, bad)) {
      val verdict = fullCount(r, b)
      assert(r.flags(b) == verdict && r.flags(b.toList) == verdict, s"n=$n bad=$bad")
    }
    assert(r.flags(List.fill(40)(null)) && r.flags(Vector.fill(40)(null)))
    assert(!r.flags(Nil) && !r.flags(Vector.empty))
  }

  test("tolerant rule: flagged from 4 threads at once, as the evaluation does, it gives the sequential verdicts") {
    val inputs = for (n <- 1 to 120; bad <- 0 to n by 3; b <- batches(n, bad)) yield b
    val expected = inputs.map(TolerantPatternRule("t", digits, 2, 30).flags)
    val shared = TolerantPatternRule("t", digits, 2, 30) // its tables are filled by the 4 threads
    val start = new CountDownLatch(1)
    val pool = Executors.newFixedThreadPool(4)
    try {
      val runs = (0 until 4).map { k =>
        pool.submit(new Callable[Seq[Boolean]] {
          def call(): Seq[Boolean] = {
            start.await()
            val order = if (k % 2 == 0) inputs.indices else inputs.indices.reverse
            order.map(i => i -> shared.flags(inputs(i))).sortBy(_._1).map(_._2)
          }
        })
      }
      start.countDown()
      for (run <- runs) assert(run.get() == expected)
    } finally pool.shutdown()
  }

  test("tolerant rule: serialized after its tables are filled, it carries none and flags the same") {
    val r = TolerantPatternRule("t", digits, nonConfTrain = 1, nTrain = 30)
    val inputs = for (n <- Seq(1, 5, 40, 270); bad <- 0 to n; b <- batches(n, bad)) yield b
    val verdicts = inputs.map(r.flags)
    assert(serialized(r) sameElements serialized(r.copy()), "the filled tables were serialized")
    val back = javaRoundTrip(r)
    assert(back == r)
    assert(inputs.map(back.flags) == verdicts)
  }
}
