package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec}
import repro.core.Pattern._

class PatternSpec extends SparkSpec with PropHelpers {

  private def pat(toks: PTok*) = Pat(toks.toVector)

  test("ConstT matches only its literal") {
    val p = pat(ConstT("Mar"))
    assert(p.matches("Mar"))
    assert(!p.matches("Apr"))
    assert(!p.matches("mar"))
  }

  test("ConstT quotes regex metacharacters") {
    val p = pat(ConstT("a.b(c)*"))
    assert(p.matches("a.b(c)*"))
    assert(!p.matches("aXb(c)*"))
  }

  test("FixLen digit") {
    val p = pat(FixLen(GClass.Digit, 4))
    assert(p.matches("2019"))
    assert(!p.matches("201"))
    assert(!p.matches("20199"))
    assert(!p.matches("201a"))
  }

  test("FixLen upper / lower / letter / alnum") {
    assert(pat(FixLen(GClass.Upper, 2)).matches("US"))
    assert(!pat(FixLen(GClass.Upper, 2)).matches("us"))
    assert(pat(FixLen(GClass.Lower, 2)).matches("en"))
    assert(pat(FixLen(GClass.Letter, 3)).matches("MaR"))
    assert(pat(FixLen(GClass.Alnum, 4)).matches("a1B2"))
    assert(!pat(FixLen(GClass.Alnum, 4)).matches("a1-2"))
  }

  test("VarLen requires at least one character") {
    val p = pat(VarLen(GClass.Digit))
    assert(p.matches("7"))
    assert(p.matches("123456"))
    assert(!p.matches(""))
    assert(!p.matches("a"))
  }

  test("multi-token pattern matches whole value (anchored)") {
    val p = pat(VarLen(GClass.Digit), ConstT("/"), VarLen(GClass.Digit),
      ConstT("/"), FixLen(GClass.Digit, 4))
    assert(p.matches("9/12/2019"))
    assert(p.matches("12/1/2019"))
    assert(!p.matches("9/12/2019 "))
    assert(!p.matches("x9/12/2019"))
    assert(!p.matches("9/12/19"))
  }

  test("null never matches") {
    assert(!pat(VarLen(GClass.Digit)).matches(null))
  }

  test("display uses the paper's notation") {
    assert(pat(FixLen(GClass.Digit, 2)).display == "<digit>{2}")
    assert(pat(VarLen(GClass.Letter)).display == "<letter>+")
    assert(pat(ConstT("Mar"), ConstT(" "), FixLen(GClass.Digit, 2)).display == "Mar <digit>{2}")
  }

  test("key/parse roundtrip on hand-picked patterns") {
    val ps = Seq(
      pat(ConstT("Mar"), FixLen(GClass.Digit, 2)),
      pat(VarLen(GClass.Alnum)),
      pat(ConstT("/"), ConstT("m"), ConstT("/"), VarLen(GClass.Alnum)),
      pat(FixLen(GClass.Upper, 2), ConstT("-"), VarLen(GClass.Lower)),
      // literals holding the key separators, the escape, or an escape
      // followed by what its encoding looks like
      pat(ConstT("\u0001"), ConstT("\u0002"), ConstT("\u0003")),
      pat(ConstT("x\u0002\u0001y"), FixLen(GClass.Digit, 2), ConstT("a\u00031b")),
      pat(ConstT("\u0003\u0003"), ConstT("31\u0003")))
    for (p <- ps) {
      assert(Pattern.parse(p.key) == p, s"roundtrip of ${p.toks}")
      assert(Pattern.tokenLengthOfKey(p.key) == p.toks.length)
    }
  }

  test("parse of an empty-const token") {
    val p = pat(ConstT(""))
    assert(Pattern.parse(p.key) == p)
  }

  test("tokenLengthOfKey avoids parsing") {
    val p = pat(ConstT("a"), VarLen(GClass.Digit), FixLen(GClass.Upper, 1))
    assert(Pattern.tokenLengthOfKey(p.key) == 3)
  }

  test("concat composes segment patterns") {
    val a = pat(VarLen(GClass.Digit))
    val b = pat(ConstT(":"), FixLen(GClass.Digit, 2))
    val c = Pattern.concat(Seq(a, b))
    assert(c.display == "<digit>+:<digit>{2}")
    assert(c.matches("9:07"))
  }

  test("specificity: Const > FixLen > VarLen") {
    assert(ConstT("x").specificity > FixLen(GClass.Digit, 1).specificity)
    assert(FixLen(GClass.Digit, 1).specificity > VarLen(GClass.Digit).specificity)
  }

  test("specificity: narrower classes are more specific") {
    assert(FixLen(GClass.Digit, 2).specificity > FixLen(GClass.Alnum, 2).specificity)
    assert(FixLen(GClass.Upper, 2).specificity > FixLen(GClass.Letter, 2).specificity)
    assert(VarLen(GClass.Lower).specificity > VarLen(GClass.Alnum).specificity)
  }

  test("GClass lookup by name") {
    assert(GClass.byName("digit") == GClass.Digit)
    assert(GClass.byName("alnum") == GClass.Alnum)
    intercept[IllegalArgumentException](GClass.byName("nope"))
  }

  private val genTok: Gen[PTok] = Gen.oneOf(
    Gen.oneOf(GClass.all).flatMap(c => Gen.choose(1, 12).map(FixLen(c, _))),
    Gen.oneOf(GClass.all).map(VarLen(_)),
    Gen.nonEmptyListOf(Gen.oneOf(('a' to 'z') ++ ('0' to '9') ++ "/-:. _#(){}"))
      .map(cs => ConstT(cs.mkString)))

  private val genPat: Gen[Pat] =
    Gen.nonEmptyListOf(genTok).map(ts => Pat(ts.take(10).toVector))

  test("property: key/parse roundtrip") {
    forSamples(genPat) { p => assert(Pattern.parse(p.key) == p) }
  }

  test("keys of printable literals carry no escape") {
    val p = pat(ConstT("a/b"), VarLen(GClass.Digit))
    assert(p.key == "C\u0002a/b\u0001V\u0002digit")
  }

  test("property: P(v) keys roundtrip for values with control characters") {
    val genChar = Gen.frequency(
      3 -> Gen.oneOf(('\u0000' to '\u0004') ++ "\t\n\r\u007f"),
      4 -> Gen.oneOf(('a' to 'c') ++ ('A' to 'B') ++ ('0' to '3')),
      2 -> Gen.oneOf("/-:. #"))
    val controls = Gen.choose(1, 10).flatMap(n => Gen.listOfN(n, genChar)).map(_.mkString)
    for (gen <- Seq(controls, EnumerateSpec.genUnicode)) forSamples(gen, 200) { v =>
      for (p <- Enumerate.patternsOf(v)) assert(Pattern.parse(p.key) == p, s"a pattern of '$v': ${p.toks}")
    }
  }

  test("property: tokenLengthOfKey equals tokenLength") {
    forSamples(genPat) { p => assert(Pattern.tokenLengthOfKey(p.key) == p.toks.length) }
  }

  test("property: a generated witness string matches its pattern") {
    val witness: PTok => String = {
      case ConstT(t)      => t
      case FixLen(c, n)   => Vector.fill(n)(sampleChar(c)).mkString
      case VarLen(c)      => Vector.fill(3)(sampleChar(c)).mkString
    }
    forSamples(genPat) { p =>
      val v = p.toks.map(witness).mkString
      assert(p.matches(v), s"${p.display} should match witness '$v'")
    }
  }

  private val high = '\uD83D'
  private val low = '\uDE00'

  // Differential test of `matches` against the anchored regex it replaces:
  // all five classes, {n} up to 70 (over 64 positions is the regex
  // fallback), empty literals, and literals of ASCII, control characters,
  // non-ASCII letters and digits, and lone and paired surrogates.
  private val litChars: Seq[String] =
    (('a' to 'c') ++ ('X' to 'Z') ++ ('0' to '2') ++ "/-:. \u0000\t\n\u007f").map(_.toString) ++
      Seq("\u00e9", "\u0660", "\uff10", high.toString, low.toString, s"$high$low")
  private val genLit: Gen[String] = Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.oneOf(litChars))).map(_.mkString)

  private val genDiffTok: Gen[PTok] = Gen.frequency(
    3 -> Gen.zip(Gen.oneOf(GClass.all), Gen.frequency(4 -> Gen.choose(1, 6), 1 -> Gen.choose(7, 70)))
      .map { case (c, n) => FixLen(c, n) },
    3 -> Gen.oneOf(GClass.all).map(VarLen(_)),
    1 -> Gen.const(ConstT("")),
    4 -> genLit.map(ConstT(_)))

  private val classChars: Map[GClass, IndexedSeq[Char]] =
    GClass.all.map(c => c -> (0 until 128).map(_.toChar).filter(ch => c.regex.r.matches(ch.toString))).toMap

  private def genWitness(p: Pat): Gen[String] =
    Gen.sequence[List[String], String](p.toks.map {
      case ConstT(t)    => Gen.const(t)
      case FixLen(c, n) => Gen.listOfN(n, Gen.oneOf(classChars(c))).map(_.mkString)
      case VarLen(c)    => Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.oneOf(classChars(c)))).map(_.mkString)
    }).map(_.mkString)

  /** One edit of `v` at a random place: insert, delete or replace a char. */
  private def genEdit(v: String): Gen[String] = for {
    i <- Gen.choose(0, v.length)
    s <- Gen.oneOf(litChars ++ Seq("7", "q", "Q"))
    kind <- Gen.choose(0, 2)
  } yield kind match {
    case 0 => v.take(i) + s + v.drop(i)
    case 1 => v.take(i) + v.drop(i + 1)
    case _ => v.take(i) + s + v.drop(i + 1)
  }

  private val genDiffCase: Gen[(Pat, Seq[String])] = for {
    k <- Gen.choose(1, 6)
    toks <- Gen.listOfN(k, genDiffTok)
    p = Pat(toks.toVector)
    w <- genWitness(p)
    edited <- Gen.listOfN(2, genEdit(w))
    prefixed <- Gen.oneOf(litChars).map(_ + w)
    random <- Gen.listOfN(2, Gen.choose(0, 8).flatMap(Gen.listOfN(_, Gen.oneOf(litChars))).map(_.mkString))
  } yield (p, Seq(w, prefixed) ++ edited ++ random)

  private def positions(p: Pat): Int = p.toks.map {
    case ConstT(t)    => t.codePointCount(0, t.length)
    case FixLen(_, n) => n
    case VarLen(_)    => 1
  }.sum

  private def showCodeUnits(v: String): String = v.map(c => f"${c.toInt}%04x").mkString("[", " ", "]")

  /** Cases pinned besides the generated ones: a surrogate pair split over
    * two literals (one code point, so no match) or inside one, and lengths
    * around the 64-position fallback.
    */
  private val pinnedCases: Seq[(Pat, Seq[String])] = Seq(
    pat(ConstT(high.toString), ConstT(low.toString)) -> Seq(s"$high$low"),
    pat(ConstT(s"$high$low")) -> Seq(s"$high$low"),
    pat(ConstT(high.toString), FixLen(GClass.Digit, 1)) -> Seq(s"${high}7")) ++
    Seq(63, 64, 65).flatMap { n =>
      val vs = Seq(n - 1, n, n + 1, n + 3).map("7" * _)
      Seq(pat(FixLen(GClass.Digit, n)) -> vs, pat(FixLen(GClass.Digit, n - 1), VarLen(GClass.Alnum)) -> vs)
    }

  test("property: matches agrees with the anchored regex on 20,000 patterns") {
    var overlong, matched, missed = 0
    def check(p: Pat, vs: Seq[String]): Unit = {
      if (positions(p) > 64) overlong += 1
      for (v <- vs) {
        val expected = p.compiled.matcher(v).matches()
        assert(p.matches(v) == expected, s"${p.toks} on ${showCodeUnits(v)}: regex says $expected")
        if (expected) matched += 1 else missed += 1
      }
    }
    for ((p, vs) <- pinnedCases) check(p, vs)
    forSamples(genDiffCase, 20000) { case (p, vs) => check(p, vs) }
    assert(overlong > 0 && matched > 0 && missed > 0, s"$overlong over 64 positions, $matched / $missed")
  }

  private def sampleChar(c: GClass): Char = c match {
    case GClass.Digit => '7'
    case GClass.Upper => 'Q'
    case GClass.Lower => 'k'
    case GClass.Letter => 'Q'
    case GClass.Alnum => '7'
  }
}
