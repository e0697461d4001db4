package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec}
import repro.core.Tokens._

class TokenizerSpec extends SparkSpec with PropHelpers {

  test("empty and null-ish input") {
    assert(tokenize("") == Vector.empty)
    assert(tokenize(null) == Vector.empty)
  }

  test("single digit run") {
    assert(tokenize("2019") == Vector(Tok(Cls.Digit, "2019")))
  }

  test("single letter run") {
    assert(tokenize("Mar") == Vector(Tok(Cls.Letter, "Mar")))
  }

  test("single symbol") {
    assert(tokenize("/") == Vector(Tok(Cls.Symbol, "/")))
  }

  test("identical symbols group into one run") {
    assert(tokenize("--") == Vector(Tok(Cls.Symbol, "--")))
  }

  test("different symbols split into separate runs") {
    assert(tokenize("-.") == Vector(Tok(Cls.Symbol, "-"), Tok(Cls.Symbol, ".")))
  }

  test("date tokenization") {
    assert(tokenize("9/12/2019") == Vector(
      Tok(Cls.Digit, "9"), Tok(Cls.Symbol, "/"), Tok(Cls.Digit, "12"),
      Tok(Cls.Symbol, "/"), Tok(Cls.Digit, "2019")))
  }

  test("space is a symbol") {
    assert(tokenize("a b") == Vector(
      Tok(Cls.Letter, "a"), Tok(Cls.Symbol, " "), Tok(Cls.Letter, "b")))
  }

  test("mixed alternating runs") {
    assert(tokenize("a1b2") == Vector(
      Tok(Cls.Letter, "a"), Tok(Cls.Digit, "1"), Tok(Cls.Letter, "b"), Tok(Cls.Digit, "2")))
  }

  test("mixed-case letters form one run") {
    assert(tokenize("AbC") == Vector(Tok(Cls.Letter, "AbC")))
  }

  test("token case predicates") {
    def cls(s: String) = Tokens.classOfShape(Tokens.shapeCode(s, 0, s.length))
    assert(cls("ABC") == Pattern.GClass.Upper)
    assert(cls("AbC") == Pattern.GClass.Letter)
    assert(cls("abc") == Pattern.GClass.Lower)
    assert(cls("12") == Pattern.GClass.Digit)
  }

  test("tokenCount counts runs") {
    assert(tokenize("9/12/2019").length == 5)
    assert(tokenize("9:07:45 AM").length == 7)
  }

  test("merged tokenization collapses adjacent digit/letter runs") {
    assert(tokenizeMerged("a1b2") == Vector(Tok(Cls.Alnum, "a1b2")))
  }

  test("merged tokenization keeps single runs at their fine class") {
    assert(tokenizeMerged("2019") == Vector(Tok(Cls.Digit, "2019")))
    assert(tokenizeMerged("Mar") == Vector(Tok(Cls.Letter, "Mar")))
  }

  test("merged tokenization is broken by symbols") {
    assert(tokenizeMerged("a1-b2") == Vector(
      Tok(Cls.Alnum, "a1"), Tok(Cls.Symbol, "-"), Tok(Cls.Alnum, "b2")))
  }

  test("merged tokenization of a GUID has 9 tokens") {
    val g = "b0a04f4b-a1e7-564b-7ccf-e267be6c2295"
    assert(tokenizeMerged(g).length == 9)
    assert(tokenize(g).length > 13)
  }

  test("effectiveTokenCount is the min of granularities") {
    val g = "b0a04f4b-a1e7-564b-7ccf-e267be6c2295"
    assert(effectiveTokenCount(g) == 9)
    assert(effectiveTokenCount("9/12/2019") == 5)
  }

  test("signature marks classes and keeps symbol text") {
    assert(signatureKey("9/12/2019") == "D|'/'|D|'/'|D")
  }

  test("signatures distinguish different delimiters") {
    assert(signatureKey("1.2.3") != signatureKey("1/2/3"))
  }

  test("merged signature collapses hex-like values") {
    assert(signatureMergedKey("a1b2c3") == "A")
    assert(signatureMergedKey("abc") == "L")
    assert(signatureMergedKey("123") == "D")
  }

  test("merged signatures of mixed and pure octets differ (by design)") {
    assert(signatureMergedKey("a1") == "A")
    assert(signatureMergedKey("12") == "D")
  }

  test("non-ASCII letters are literal symbols, lexed by code point") {
    assert(tokenize("café") == Vector(Tok(Cls.Letter, "caf"), Tok(Cls.Symbol, "é")))
    assert(tokenize("ß9") == Vector(Tok(Cls.Symbol, "ß"), Tok(Cls.Digit, "9")))
    // a surrogate pair stays whole, and a run groups identical code points
    assert(tokenize("x😀😀y") == Vector(
      Tok(Cls.Letter, "x"), Tok(Cls.Symbol, "😀😀"), Tok(Cls.Letter, "y")))
    assert(tokenize("😀😁").map(_.text) == Vector("😀", "😁"))
  }

  test("reconstruction: concatenating token texts restores the value") {
    for (v <- Seq("9/12/2019 9:07:45 AM", "{A3F0-11}", "x=1;y=2", "  ", "a1b2c3-99", "x😀😁y", "e\u0301"))
      assert(tokenize(v).map(_.text).mkString == v)
  }

  test("merged reconstruction also restores the value") {
    for (v <- Seq("a1b2-c3", "ORD-00012345", "/m/0abc12"))
      assert(tokenizeMerged(v).map(_.text).mkString == v)
  }

  test("property: effectiveTokenCount is the merged token count on any string") {
    // ASCII runs, repeated and mixed symbols, non-ASCII letters, control
    // characters, and lone and paired surrogates (a high one before a pair
    // that opens with the same high surrogate, too)
    val (high, low) = ('\uD83D', '\uDE00')
    val piece = Gen.oneOf(Seq("a", "Zq", "7", "09", "-", "--", ".", " ", "é", "ßЖ", "中", "\u0000", "\t", "\u007f",
      high.toString, low.toString, s"$high$low", s"$high$high$low", s"$low$high", "😀😀"))
    forSamples(Gen.choose(0, 12).flatMap(Gen.listOfN(_, piece)).map(_.mkString), 2000) { s =>
      assert(effectiveTokenCount(s) == tokenizeMerged(s).length, s"'$s'")
    }
    assert(effectiveTokenCount(null) == 0)
  }
}
