package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec}
import repro.core.Tokens.Cls
import scala.util.Random

class MsaSpec extends SparkSpec with PropHelpers {

  test("empty input aligns to nothing") {
    val a = Msa.alignValues(Seq.empty)
    assert(a.length == 0 && a.matrix.isEmpty)
  }

  test("identical token structures align trivially") {
    val a = Msa.alignValues(Seq("9/12/2019", "10/1/2020"))
    assert(a.length == 5)
    assert(a.matrix == Vector(
      Vector("9", "/", "12", "/", "2019"),
      Vector("10", "/", "1", "/", "2020")))
  }

  test("profile records classes and symbol texts") {
    val a = Msa.alignValues(Seq("9:07"))
    assert(a.profile.map(_.cls) == Vector(Cls.Digit, Cls.Symbol, Cls.Digit))
    assert(a.profile(1).symText.contains(":"))
  }

  test("a missing trailing token becomes a gap") {
    val a = Msa.alignValues(Seq("1:02:03", "1:02"))
    assert(a.length == 5)
    val short = a.matrix(1)
    assert(short.count(_ == "") == 2)
    assert(short.mkString == "1:02")
  }

  test("a missing middle token becomes a gap") {
    val a = Msa.alignValues(Seq("a-1-b", "a--b"))
    // the shorter value lacks the middle digit; symbols anchor the alignment
    assert(a.matrix(0).mkString == "a-1-b")
    assert(a.matrix(1).mkString == "a--b")
  }

  test("rows preserve original value order") {
    val vals = Seq("1:02", "1:02:03", "4:05")
    val a = Msa.alignValues(vals)
    assert(a.matrix.map(_.mkString) == vals.toVector.map(identity))
  }

  test("segmentValues extracts sub-values by position range") {
    val a = Msa.alignValues(Seq("9/12/2019 9:07:45", "10/1/2020 10:08:46"))
    val dates = a.segmentValues(0, 4)
    assert(dates == Vector("9/12/2019", "10/1/2020"))
    val times = a.segmentValues(6, a.length - 1)
    assert(times == Vector("9:07:45", "10:08:46"))
  }

  test("null and empty values are dropped before alignment") {
    val a = Msa.alignValues(Seq("12", null, "", "34"))
    assert(a.matrix.size == 2)
  }

  test("profile length never shrinks below the longest sequence") {
    val a = Msa.alignValues(Seq("1:2:3:4:5", "1:2"))
    assert(a.length >= 9)
  }

  test("alignment of many homogeneous values stays gap-free") {
    val vals = (1 to 30).map(i => s"$i/0${i % 9 + 1}/2021")
    val a = Msa.alignValues(vals)
    assert(a.matrix.forall(row => !row.contains("")))
    assert(a.length == 5)
  }

  test("different symbol classes are not aligned together") {
    val a = Msa.alignValues(Seq("1-2", "3.4"))
    // '-' and '.' mismatch; alignment still reconstructs both values
    assert(a.matrix(0).mkString == "1-2")
    assert(a.matrix(1).mkString == "3.4")
  }

  /** Each row spans the profile and spells its input, in input order. */
  private def checkRows(vals: Seq[String]): Msa.Aligned = {
    val a = Msa.alignValues(vals)
    assert(a.matrix.forall(_.length == a.length), s"ragged rows for $vals")
    assert(a.matrix.map(_.mkString) == vals.filter(v => v != null && v.nonEmpty).toVector)
    a
  }

  test("rows span the profile and spell their inputs on generated columns") {
    forSamples(EnumerateOracleSpec.genColumn, 300)(checkRows)
  }

  test("rows span the profile and spell their inputs after insertions") {
    val inputs = Seq(
      Seq("1:02", "1:02:03"),
      Seq("a--b", "a-1-b"),
      // ":1-" aligns as (gap, ':', digits, '-'): a new last position
      Seq("ab:1", "cd:2", ":1-", "ef:3"),
      Seq(":1-", "ab:1", "ab:2"))
    // an insertion makes the profile longer than the longest value
    val widened = inputs.count { vs =>
      checkRows(vs).length > vs.map(Tokens.tokenize(_).length).max
    }
    assert(widened > 0, "no input forced an insertion")
  }

  /** `Msa.alignValues` with every row aligned by Needleman-Wunsch, the
    * oracle of its identity shortcut; `diagonal` counts the rows whose
    * trace is the diagonal of the profile.
    */
  private var diagonal = 0
  private def alignByDp(values: Seq[String]): Msa.Aligned = {
    val vs = values.filter(v => v != null && v.nonEmpty).toVector
    if (vs.isEmpty) return Msa.Aligned(Vector.empty, Vector.empty)
    val tokSeqs = vs.map(Tokens.tokenize)
    val seedIdx = tokSeqs.indices.maxBy(i => tokSeqs(i).length)
    val order = seedIdx +: tokSeqs.indices.filter(_ != seedIdx)
    var profile = tokSeqs(seedIdx).map(Msa.posOf)
    var rows = Vector(tokSeqs(seedIdx).map(_.text))
    for (idx <- order.tail) {
      val toks = tokSeqs(idx)
      val trace = Msa.align(profile, toks)
      if (trace == profile.indices.map(j => (j, j)).toList) diagonal += 1
      if (trace.exists(_._1 < 0))
        rows = rows.map(row => trace.map { case (pi, _) => if (pi >= 0) row(pi) else "" }.toVector)
      profile = trace.map { case (pi, tj) => if (pi >= 0) profile(pi) else Msa.posOf(toks(tj)) }.toVector
      rows :+= trace.map { case (_, tj) => if (tj >= 0) toks(tj).text else "" }.toVector
    }
    val byInput = new Array[Vector[String]](vs.length)
    for ((i, k) <- order.zipWithIndex) byInput(i) = rows(k)
    Msa.Aligned(profile, byInput.toVector)
  }

  private val pieces = Vector("7", "42", "2019", "ab", "Q", "xyz", "-", ":", "/", ".", " ", "é")

  /** Columns of edits of one value's tokens: equal rows, rows with another
    * text of a token's class, rows one symbol apart, and rows with a token
    * inserted, deleted or moved (the rows after an insertion into the
    * profile align against the widened profile).
    */
  private val genEdited: Gen[Vector[String]] = Gen.long.map { seed =>
    val rnd = new Random(seed)
    def piece = pieces(rnd.nextInt(pieces.length))
    val base = Tokens.tokenize(Vector.fill(1 + rnd.nextInt(7))(piece).mkString).map(_.text)
    Vector.fill(1 + rnd.nextInt(6)) {
      val t = base.toBuffer
      val k = rnd.nextInt(t.length)
      rnd.nextInt(6) match {
        case 0 => ()
        case 1 => t(k) = if (t(k).head.isDigit) rnd.nextInt(1000).toString else if (t(k).head.isLetter) "Zz" else t(k)
        case 2 => t(k) = Seq("-", "/", "#").find(_ != t(k)).get
        case 3 => t.insert(k, piece)
        case 4 => if (t.length > 1) t.remove(k)
        case _ => t.remove(k); t.insert(rnd.nextInt(t.length + 1), piece) // as long, shifted
      }
      t.mkString
    }
  }

  test("rows that match the profile everywhere align as Needleman-Wunsch aligns them") {
    diagonal = 0
    var widened = 0
    forSamples(genEdited, 500) { vs =>
      val got = Msa.alignValues(vs)
      assert(got == alignByDp(vs), s"$vs")
      if (got.matrix.exists(_.contains(""))) widened += 1
    }
    assert(diagonal > 100 && widened > 10, s"$diagonal diagonal rows, $widened columns with gaps")
  }
}
