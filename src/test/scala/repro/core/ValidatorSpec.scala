package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import repro.SparkSpec
import repro.core.Pattern._

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

  private def javaRoundTrip(r: Rule): Rule = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(r)
    out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[Rule]
  }

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
}
