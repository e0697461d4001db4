package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec}
import repro.core.Pattern._

class EnumerateSpec extends SparkSpec with PropHelpers {
  import EnumerateSpec.{genUnicode, genValue}

  private def displays(v: String): Set[String] =
    Enumerate.patternsOf(v).map(_.display).toSet

  test("P(v) of the paper's '9:07' example contains the listed options") {
    val ds = displays("9:07")
    // §2.1: "<digit>:<digit>{2}", "<digit>+:<digit>+", "9:<digit>{2}", …
    assert(ds.contains("<digit>{1}:<digit>{2}"))
    assert(ds.contains("<digit>+:<digit>+"))
    assert(ds.contains("9:<digit>{2}"))
    assert(ds.contains("<digit>+:<digit>{2}"))
  }

  test("P(v) excludes the trivial catch-all (not in the language)") {
    assert(!displays("9:07").contains("<all>"))
    assert(displays("9:07").forall(_.nonEmpty))
  }

  test("P(v) is empty for null/empty values") {
    assert(Enumerate.patternsOf(null).isEmpty)
    assert(Enumerate.patternsOf("").isEmpty)
  }

  test("P(v) is empty for values wider than tau at both granularities") {
    val wide = (1 to 20).map(i => s"$i").mkString("-") // 39 tokens
    assert(Enumerate.patternsOf(wide, tau = 13).isEmpty)
    assert(Enumerate.patternsOf(wide, tau = 50).nonEmpty)
  }

  test("merged granularity gives alnum patterns for hex-like values") {
    val ds = displays("a1b2c3d4")
    assert(ds.contains("<alnum>{8}"))
    assert(ds.contains("<alnum>+"))
  }

  test("fine alnum options cover single pure runs") {
    assert(displays("1234").contains("<alnum>{4}"))
    assert(displays("abcd").contains("<alnum>{4}"))
  }

  test("alnum skeleton survives for wide-but-mergeable values") {
    // a GUID: fine > 13 tokens, merged = 9
    val g = "b0a04f4b-a1e7-564b-7ccf-e267be6c2295"
    val ds = displays(g)
    assert(ds.contains("<alnum>{8}-<alnum>{4}-<alnum>{4}-<alnum>{4}-<alnum>{12}"))
  }

  test("every pattern in P(v) regex-matches v (hand-picked)") {
    for (v <- Seq("9/12/2019", "en-US", "ORD-00012345", "/m/0abc12", "a1b2c3",
                  "9:07:45 AM", "{X}", "3.14", "café", "ß9", "x😀y", "e\u0301", "１２"))
      for (p <- Enumerate.patternsOf(v))
        assert(p.matches(v), s"${p.display} should match '$v'")
  }

  test("property: every pattern in P(v) matches v") {
    for (gen <- Seq(genValue, genUnicode)) forSamples(gen, 60) { v =>
      for (p <- Enumerate.patternsOf(v)) assert(p.matches(v), s"${p.display} vs '$v'")
    }
  }

  test("property: P(v) contains no duplicate keys") {
    for (gen <- Seq(genValue, genUnicode)) forSamples(gen, 60) { v =>
      val keys = Enumerate.patternsOf(v).map(_.key)
      assert(keys.distinct.size == keys.size)
    }
  }

  test("hypothesis of a singleton column equals P(v) minus nothing") {
    val h = Enumerate.hypothesis(Seq("9:07")).map(_.key).toSet
    assert(h == Enumerate.patternKeysOf("9:07"))
  }

  test("hypothesis intersects pattern sets across values") {
    val h = Enumerate.hypothesis(Seq("9:07", "10:22")).map(_.display).toSet
    assert(h.contains("<digit>+:<digit>{2}"))
    assert(!h.contains("<digit>{1}:<digit>{2}")) // killed by "10"
    assert(!h.contains("9:<digit>{2}"))          // killed by Const mismatch
  }

  test("hypothesis of the Fig. 5 date-time column") {
    val col = Seq("9/9/2019 9:04:49 AM", "9/9/2019 10:09:18 AM", "10/1/2019 9:12:04 PM")
    val h = Enumerate.hypothesis(col).map(_.display).toSet
    assert(h.contains("<digit>+/<digit>+/<digit>{4} <digit>+:<digit>{2}:<digit>{2} <upper>{2}"))
  }

  test("hypothesis is empty for structurally mixed values") {
    assert(Enumerate.hypothesis(Seq("9/12/2019", "Booked")).isEmpty)
  }

  test("hypothesis ignores empty values") {
    val h1 = Enumerate.hypothesis(Seq("12", "", null, "34"))
    val h2 = Enumerate.hypothesis(Seq("12", "34"))
    assert(h1.map(_.key).toSet == h2.map(_.key).toSet)
  }

  test("hypothesis covers same-signature values with different lengths") {
    val h = Enumerate.hypothesis(Seq("1.2.3", "10.20.30")).map(_.display).toSet
    assert(h.contains("<digit>+.<digit>+.<digit>+"))
  }

  test("columnPatternCounts counts matching values with multiplicity") {
    val counts = Enumerate.columnPatternCounts(Seq("12", "12", "345"))
    val dPlus = Pat(Vector(VarLen(GClass.Digit))).key
    val d2 = Pat(Vector(FixLen(GClass.Digit, 2))).key
    assert(counts(dPlus) == 3)
    assert(counts(d2) == 2)
  }

  test("columnPatternCounts skips empty values") {
    val counts = Enumerate.columnPatternCounts(Seq("7", "", null))
    assert(counts(Pat(Vector(VarLen(GClass.Digit))).key) == 1)
  }

  test("frequentPatterns honors the coverage threshold (Algorithm 1)") {
    val vs = Seq.fill(9)("9:07") ++ Seq("oops")
    val full = Enumerate.frequentPatterns(vs, 9) // 90% coverage
    assert(full.nonEmpty)
    assert(full.forall(_._2 >= 9))
    val strict = Enumerate.frequentPatterns(vs, vs.size)
    assert(strict.isEmpty) // nothing covers the odd one out
  }

  test("cap pruning keeps enumeration bounded for pathological values") {
    val v = (1 to 13).map(_ => "ab").mkString(" ") // 25 tokens fine… over tau
    val v2 = (1 to 6).map(_ => "ab").mkString(" ") // 11 tokens
    assert(Enumerate.patternsOf(v2, cap = 64).size <= 64 + 2 * 64 + 64)
    assert(Enumerate.patternsOf(v, tau = 13).isEmpty)
  }

  test("patternKeysOf equals patternsOf keys") {
    val v = "en-US"
    assert(Enumerate.patternKeysOf(v) == Enumerate.patternsOf(v).map(_.key).toSet)
  }
}

object EnumerateSpec {
  /** One generator per value shape; `genValue` picks among them. */
  val valueGens: Vector[Gen[String]] = Vector(
    Gen.choose(0, 999999).map(_.toString),
    Gen.choose(1, 12).flatMap(m => Gen.choose(1, 28).map(d => s"$m/$d/2021")),
    Gen.listOfN(6, Gen.oneOf("0123456789abcdef".toSeq)).map(_.mkString),
    Gen.oneOf("AM", "PM", "Booked", "en-US", "x=1;y=2", "  ", "a-b-c"),
    Gen.alphaStr.suchThat(_.nonEmpty).map(_.take(12)))

  val genValue: Gen[String] = Gen.oneOf(valueGens).flatMap(identity)

  /** Arbitrary Unicode beside ASCII: non-ASCII letters, surrogate pairs,
    * combining marks, fullwidth digits, control characters and any other
    * code point (lone surrogates are not text, so they are left out).
    */
  val genUnicode: Gen[String] = {
    val codePoint = Gen.frequency(
      4 -> Gen.oneOf(('a' to 'c') ++ ('A' to 'C') ++ ('0' to '3') ++ "/-:. ").map(_.toInt),
      1 -> Gen.oneOf("éßЖω中ǅ").map(_.toInt),
      1 -> Gen.choose(0x1F600, 0x1F64F),
      1 -> Gen.choose(0x0300, 0x036F),
      1 -> Gen.choose(0xFF10, 0xFF19),
      1 -> Gen.oneOf((0x00 to 0x1F) :+ 0x7F),
      1 -> Gen.choose(0x80, 0x10FFFF).suchThat(c => c < 0xD800 || c > 0xDFFF))
    Gen.choose(1, 10).flatMap(Gen.listOfN(_, codePoint))
      .map(cs => new String(cs.toArray, 0, cs.size))
  }
}
