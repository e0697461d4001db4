package repro.core

import org.scalacheck.Gen
import repro.{SparkSpec, TestFixtures}
import repro.index.{PatternIndex, PatternStats}
import repro.lake.Domains
import scala.util.Random

/** FMDV-V (vertical cuts) against the enterprise-lake index, and its
  * segment table against the per-span [[FmdvVOracle]].
  */
class FmdvVSpec extends SparkSpec {
  import FmdvVSpec._

  lazy val index = TestFixtures.indexE

  test("solves an atomic column like basic FMDV") {
    val train = Domains.dateSlashD.make(new Random(7), 30)
    val v = FmdvV.solve(train, index).get
    val basic = Fmdv.solve(train, index).get
    assert(v.pattern.matches("12/31/2024"))
    assert(v.totalFpr <= basic.fpr + 1e-9, "vertical cut can only lower the FPR objective")
  }

  test("solves the Fig. 8-style wide composite column via segmentation") {
    val train = Domains.compositePipeD.make(new Random(8), 30)
    assert(Fmdv.solve(train, index).isEmpty, "too wide for full-column FMDV at tau=13")
    val v = FmdvV.solve(train, index)
    assert(v.isDefined, "vertical cuts should recover the composite domain")
    assert(v.get.segments.size > 1)
    // the composed pattern validates a fresh sample from the same domain
    val fresh = Domains.compositePipeD.make(new Random(9), 50)
    assert(fresh.forall(v.get.pattern.matches), "composed pattern must cover fresh data")
  }

  test("composite solution rejects other domains") {
    val train = Domains.compositePipeD.make(new Random(8), 30)
    val p = FmdvV.solve(train, index).get.pattern
    assert(!p.matches("9/12/2019"))
    assert(!p.matches("Booked"))
  }

  test("totalFpr is the sum of segment FPRs (Eq. 8)") {
    val train = Domains.compositePipeD.make(new Random(10), 25)
    val v = FmdvV.solve(train, index).get
    assert(math.abs(v.totalFpr - v.segments.map(_.fpr).sum) < 1e-12)
  }

  test("literal-delimiter segments carry zero FPR") {
    val train = Domains.compositePipeD.make(new Random(11), 25)
    val v = FmdvV.solve(train, index).get
    val delims = v.segments.filter(s => s.pat.toks.forall(_.isInstanceOf[Pattern.ConstT]))
    assert(delims.forall(_.fpr == 0.0))
  }

  test("sum-FPR feasibility: tiny r forces failure on composites") {
    val train = Domains.compositePipeD.make(new Random(12), 25)
    assert(FmdvV.solve(train, index, FmdvConfig(r = 0.0)).isEmpty ||
      FmdvV.solve(train, index, FmdvConfig(r = 0.0)).get.totalFpr == 0.0)
  }

  test("no solution for heterogeneous NL values") {
    val train = Domains.nlSentenceD.make(new Random(13), 30)
    assert(FmdvV.solve(train, index).isEmpty)
  }

  test("guid columns solve even though the aligned profile is wide") {
    val train = Domains.guidD.make(new Random(14), 30)
    val v = FmdvV.solve(train, index)
    assert(v.isDefined)
    assert(v.get.pattern.matches("0123abcd-0000-ffff-1234-0123456789ab"))
  }

  test("AsMethod yields a strict rule over the composed pattern") {
    val m = new FmdvV.AsMethod(index)
    val rule = m.learn(Domains.dateTimeAmPmD.make(new Random(15), 30)).get
    assert(!rule.flags(Domains.dateTimeAmPmD.make(new Random(16), 40)))
    assert(rule.flags(Seq("not a timestamp")))
  }

  test("empty input yields no solution") {
    assert(FmdvV.solve(Seq.empty, index).isEmpty)
    assert(FmdvV.solve(Seq("", null), index).isEmpty)
  }

  test("the segment table chooses as the per-span oracle on every B_E and B_G case") {
    val inputs = for (corpus <- Seq("E", "G"); c <- TestFixtures.art.bench(corpus); frac <- Seq(0.1, 0.3))
      yield (s"${c.id}@$frac", c.train(frac))
    assert(inputs.size == 700)
    val bad = EnumerateOracleSpec.inParallel(inputs) { case (id, train) =>
      val (got, want) = (FmdvV.solve(train, index), FmdvVOracle.solve(train, index))
      if (got == want && got.map(_.pattern) == want.map(_.pattern)) None else Some(id)
    }.flatten
    assert(bad.size == 0, s"inputs differ, e.g. ${bad.take(5)}")
  }

  /** Each generated or fixed column under each setting, against `indexE`
    * and against an index over part of its own spans' patterns.
    */
  private def cases(n: Int): Vector[(Vector[String], FmdvConfig, PatternIndex)] = {
    val cols = Iterator.continually(genColumn.sample).flatten.take(n).toVector ++ fixedColumns
    for (vs <- cols; cfg <- settings; idx <- Seq(index, spanIndex(vs, cfg))) yield (vs, cfg, idx)
  }

  test("the segment table chooses as the per-span oracle on generated columns") {
    val bad = EnumerateOracleSpec.inParallel(cases(80)) { case (vs, cfg, idx) =>
      val (got, want) = (FmdvV.solve(vs, idx, cfg), FmdvVOracle.solve(vs, idx, cfg))
      if (got == want && got.map(_.pattern) == want.map(_.pattern)) None
      else Some(s"$vs at tau=${cfg.tau} cap=${cfg.cap}: $got, not $want")
    }.flatten
    assert(bad.size == 0, s"cases differ, e.g. ${bad.take(2)}")
  }

  test("the segment table chooses as the per-span oracle where a span's sub-values differ in one literal") {
    // one shape per span, one literal apart ("12" / "13", "ab" / "cd"),
    // with the differing token behind a gap in some values
    val cols = Seq(
      Vector("12-ab-34", "13-ab-34", "12-ab-35", "12-34"),
      Vector("x-12-ab", "x-12-cd", "x-ab", "x-13-ab", "y-12-ab"),
      Vector("ab12-x9", "ab13-x9", "ab12-x", "ab12-y9"))
    for (vs <- cols; cfg <- settings; idx <- Seq(index, spanIndex(vs, cfg))) {
      val (got, want) = (FmdvV.solve(vs, idx, cfg), FmdvVOracle.solve(vs, idx, cfg))
      assert(got == want && got.map(_.pattern) == want.map(_.pattern), s"$vs at tau=${cfg.tau} cap=${cfg.cap}")
    }
  }

  test("every token of every index key is in the vocabulary at its slot") {
    for (key <- index.entries.keysIterator) {
      val toks = Pattern.parse(key).toks
      for ((t, d) <- toks.zipWithIndex)
        assert(index.slotsOf(t).contains(PatternIndex.slot(toks.length, d)), s"$t at $d of $key")
    }
    val small = new PatternIndex(Map(
      Pattern.Pat(Vector(Pattern.ConstT("a"), Pattern.VarLen(Pattern.GClass.Digit))).key -> PatternStats(0.0, 9L)))
    assert(small.slotsOf(Pattern.ConstT("a")).toSet == Set(PatternIndex.slot(2, 0)))
    assert(small.slotsOf(Pattern.VarLen(Pattern.GClass.Digit)).toSet == Set(PatternIndex.slot(2, 1)))
    assert(small.slotsOf(Pattern.ConstT("b")).isEmpty)
  }

  test("a lone digit whose class options miss the vocabulary keeps its plan live through its literal") {
    import Pattern.{ConstT, Pat}
    // "5" at [2, 2] is a key only as its own literal: no key of one token has a
    // digit class. Its plan (one digit) is first built for "7" at [0, 0], whose
    // literal is no key of one token either.
    val idx = new PatternIndex(Map(
      Pat(Vector(ConstT("7"), ConstT("-"))).key -> PatternStats(0.01, 9L),
      Pat(Vector(ConstT("5"))).key -> PatternStats(0.02, 9L)))
    val vs = Vector("7-5")
    val segments = new FmdvV.Segments(vs, Msa.alignValues(vs), idx, FmdvConfig())
    assert(segments.hypothesis(0, 0).isEmpty)
    assert(segments.hypothesis(2, 2) == Vector(Pat(Vector(ConstT("5")))))
    val v = FmdvV.solve(vs, idx)
    assert(v == FmdvVOracle.solve(vs, idx))
    assert(v.map(_.pattern).contains(Pat(Vector(ConstT("7"), ConstT("-"), ConstT("5")))))
  }

  test("a span's pruned H(C) keeps every index key of H(C), so FMDV picks the same") {
    for ((vs, cfg, idx) <- cases(40)) {
      val distinct = vs.filter(_.nonEmpty).distinct
      val aligned = Msa.alignValues(distinct)
      val segments = new FmdvV.Segments(distinct, aligned, idx, cfg)
      for (s <- 0 until aligned.length; e <- s until aligned.length) {
        val sub = aligned.segmentValues(s, e)
        if (!sub.exists(_.isEmpty)) {
          val full = Enumerate.hypothesis(sub, cfg.tau, cfg.cap)
          val pruned = segments.hypothesis(s, e)
          val (fullKeys, prunedKeys) = (full.map(_.key).toSet, pruned.map(_.key).toSet)
          assert(fullKeys.filter(idx.lookup(_).isDefined).subsetOf(prunedKeys), s"$sub [$s, $e]")
          assert(prunedKeys.subsetOf(fullKeys), s"$sub [$s, $e]")
          for (p <- pruned; (t, d) <- p.toks.zipWithIndex)
            assert(idx.slotsOf(t).contains(PatternIndex.slot(p.toks.length, d)), s"$t at $d of ${p.key}: $sub [$s, $e]")
          assert(Fmdv.best(pruned, idx, cfg) == Fmdv.best(full, idx, cfg), s"$sub [$s, $e]")
        }
      }
    }
  }
}

object FmdvVSpec {
  /** The default, the sensitivity sweep's τ = 8, and caps small enough to
    * force pruning levels 1–3 and the first-option fallback.
    */
  val settings: Seq[FmdvConfig] =
    Seq(FmdvConfig(), FmdvConfig(tau = 8), FmdvConfig(cap = 64), FmdvConfig(cap = 4), FmdvConfig(cap = 1))

  private val pieces: Vector[Gen[String]] = Vector(
    Gen.choose(0, 99999).map(_.toString),
    Gen.oneOf("ab", "Cd", "XYZ", "q", "hello"),
    Gen.oneOf("ab12", "x9", "7f3a", "Z0z", "12ab"),
    Gen.oneOf("-", "--", ".", "/", ":", " ", "·", "中", "é", "😀"))

  private def sequence(gs: List[Gen[String]]): Gen[List[String]] =
    gs.foldRight(Gen.const(List.empty[String]))((g, acc) => g.flatMap(x => acc.map(x :: _)))

  /** Columns of one template of pieces (digits, letters, digit/letter
    * mixes, ASCII and other symbols), each piece fixed for the column or
    * drawn per value, and left out of a value now and then, so values
    * differ in token count and align with gaps.
    */
  val genColumn: Gen[Vector[String]] = for {
    k <- Gen.choose(1, 6)
    template <- Gen.listOfN(k, Gen.oneOf(pieces).flatMap(g => Gen.oneOf(Gen.const(g), g.map(Gen.const))))
    n <- Gen.choose(1, 8)
    rows <- Gen.listOfN(n, sequence(template.map(p => Gen.frequency(5 -> p, 1 -> Gen.const("")))))
  } yield rows.map(_.mkString).toVector

  /** Merged runs cut by a span bound, gaps, long multi-token values
    * (pruning levels 1–3 at the default cap), symbol-only spans and
    * non-ASCII symbols.
    */
  val fixedColumns: Vector[Vector[String]] = Vector(
    Vector("ab12-x9", "cd34-y7", "ef56-z8", "gh78-w6"),
    Vector("12-ab", "7-cd-x", "ab", "3-q-y-z"),
    Vector("ab1cd2ef3gh4ij5kl6mn", "xy7zw8ab9cd0ef1gh2ij", "qr3st4uv5wx6yz7ab8cd"),
    Vector("2021-03-04T05:06:07Z", "2020-11-30T23:59:01Z", "1999-01-01T00:00:00Z"),
    Vector("a--b", "c--d", "e..f"),
    Vector("1 · 2", "3 · 4", "5 · 6"),
    Vector("中-12", "中-34", "中-5"),
    Vector("é1😀", "é22😀", "é3😀x"))

  /** An index over part of the patterns of `vs`' spans: each key of P(v)
    * of each span's sub-values, kept when its hash is not a multiple of 3,
    * with fpr and cov from the hash (some above r, some tied), so most
    * spans have hits and the vocabulary holds only some of their options.
    */
  def spanIndex(vs: Seq[String], cfg: FmdvConfig): PatternIndex = {
    val aligned = Msa.alignValues(vs.filter(_.nonEmpty).distinct)
    val keys = (for (s <- 0 until aligned.length; e <- s until aligned.length;
                     v <- aligned.segmentValues(s, e) if v.nonEmpty;
                     k <- Enumerate.patternKeysOf(v, cfg.tau, cfg.cap)) yield k).toSet
    new PatternIndex(keys.iterator.filter(k => Math.floorMod(k.hashCode, 3) != 0).map { k =>
      val h = Math.floorMod(k.hashCode, 1000)
      k -> PatternStats(h / 5000.0, 5L + h % 7)
    }.toMap)
  }
}
