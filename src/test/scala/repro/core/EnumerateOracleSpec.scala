package repro.core

import java.util.concurrent.{Callable, ConcurrentHashMap, Executors}
import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec, TestFixtures}
import repro.core.Enumerate.{DefaultCap, DefaultTau}
import repro.index.OfflineIndexer.IndexConfig

/** The trie-counting [[Enumerate]] against the cross-product
  * [[EnumerateOracle]]: P(v), per-column counts, H(C) and Algorithm 1's
  * thresholded patterns must be identical, on generated values, on every
  * value of the test lake and on values that hit each pruning level.
  */
class EnumerateOracleSpec extends SparkSpec with PropHelpers {
  import EnumerateOracleSpec._

  private def keys(ps: Seq[Pattern.Pat]): Set[String] = ps.map(_.key).toSet

  /** (τ, cap) settings: the defaults, the sensitivity sweep's τ = 8, and
    * caps small enough to force every pruning level and the fallback.
    */
  private val settings = Seq((DefaultTau, DefaultCap), (8, DefaultCap), (DefaultTau, 64),
    (DefaultTau, 4), (DefaultTau, 1))

  private def checkValue(v: String): Unit =
    for ((tau, cap) <- settings) {
      val got = Enumerate.patternsOf(v, tau, cap)
      val want = EnumerateOracle.patternsOf(v, tau, cap)
      assert(got == want, s"P('$v') at tau=$tau cap=$cap")
    }

  private def checkColumn(vs: Seq[String]): Unit =
    for ((tau, cap) <- settings) {
      assert(Enumerate.columnPatternCounts(vs, tau, cap) == EnumerateOracle.columnPatternCounts(vs, tau, cap),
        s"counts of $vs at tau=$tau cap=$cap")
      assert(keys(Enumerate.hypothesis(vs, tau, cap)) == keys(EnumerateOracle.hypothesis(vs, tau, cap)),
        s"H of $vs at tau=$tau cap=$cap")
    }

  /** `frequentPatterns(vs, k)` for every k from 1 to |non-empty vs| + 1
    * against the oracle's counts filtered to ≥ k, in first-reached order:
    * distinct values in first-seen order, each one's oracle P(v) in order.
    * Also checks that the walk sees exactly the options whose (list length,
    * position, token) count, over distinct values with multiplicity and each
    * value once per key, reaches k — a weaker pre-filter is still exact, so
    * only this catches it. Where the pre-count's early exit leaves every
    * list empty instead, the oracle must have no pattern at that k.
    */
  private def checkFrequent(vs: Seq[String], tau: Int, cap: Int): Unit = {
    val present = vs.filter(v => v != null && v.nonEmpty)
    val distinct = present.distinct
    val mults = distinct.map(v => present.count(_ == v))
    val counts = EnumerateOracle.columnPatternCounts(vs, tau, cap)
    val firstReached = distinct.flatMap(EnumerateOracle.patternsOf(_, tau, cap)).distinctBy(_.key)
    val options = Enumerate.walkedOptions(vs, 1, tau, cap)
    assert(options.size == distinct.size)
    val optionCounts = options.zip(mults)
      .flatMap { case (lists, m) =>
        lists.flatMap(l => l.zipWithIndex.flatMap { case (o, d) => o.map(t => (l.size, d, t)) })
          .distinct.map(_ -> m)
      }
      .groupMapReduce(_._1)(_._2)(_ + _)
    for (k <- 1 to present.size + 1) {
      val want = firstReached.filter(p => counts(p.key) >= k).map(p => (p, counts(p.key)))
      assert(Enumerate.frequentPatterns(vs, k, tau, cap) == want, s"frequentPatterns($vs, $k) at tau=$tau cap=$cap")
      val kept = options.map(_.map(l => l.zipWithIndex.map { case (o, d) =>
        o.filter(t => optionCounts((l.size, d, t)) >= k)
      }).filter(_.forall(_.nonEmpty)))
      // the pre-count's early exit empties every value's lists once no
      // pattern can reach k; only then may they differ from the direct filter
      val walked = Enumerate.walkedOptions(vs, k, tau, cap)
      if (walked != kept && walked.forall(_.isEmpty))
        assert(want.isEmpty, s"early exit with a frequent pattern: $vs at k=$k tau=$tau cap=$cap")
      else assert(walked == kept, s"options of $vs at k=$k tau=$tau cap=$cap")
    }
  }

  test("oracle: P(v) is the oracle's, in the same order, on generated values") {
    forSamples(EnumerateSpec.genValue, 200)(checkValue)
    // a merged stretch beside a lone run ("ab12-x9-q"): the merged list
    // holds the lone run's literal and classes, the skeleton only
    // `<alnum>`, so only such values show the list order in P(v)
    forSamples(FmdvVSpec.genColumn, 60)(_.filter(_.nonEmpty).foreach(checkValue))
    (FmdvVSpec.fixedColumns.flatten :+ "ab12-x9-q").foreach(checkValue)
  }

  test("oracle: P(v) is the oracle's on every pruning level, the fallback and GUIDs") {
    for (v <- pruningValues) checkValue(v)
    // the levels themselves, at the default cap: level 1 drops literals
    // (4^6 fine patterns, the skeleton adds none), level 2 keeps digit
    // classes only (2^7 fine + 2^7 skeleton), level 3 one fine pattern
    // beside the merged run's two
    assert(Enumerate.patternsOf("1.2.3.4.5.6").size == 4096)
    assert(Enumerate.patternsOf("1.2.3.4.5.6.7").size == 256)
    val level3 = Enumerate.patternsOf("a1b2c3d4e5f6g").map(_.display)
    assert(level3 == Vector("<lower>+<digit>+" * 6 + "<lower>+", "<alnum>{13}", "<alnum>+"))
    // merged runs past the cap fall back to one pattern, which the skeleton
    // already holds
    val fallback = Enumerate.patternsOf("ab1-cd2-ef3-gh4-ij5-kl6-mn7", cap = 64)
    assert(fallback.size == 128)
    assert(fallback.head.display == Vector.fill(7)("<alnum>{3}").mkString("-"))
  }

  test("oracle: counts, H(C) and Algorithm 1 agree on generated columns with duplicates, nulls and empties") {
    forSamples(genColumn, 150)(checkColumn)
    checkColumn(Seq(null, "", null))
    checkColumn(Nil)
    checkColumn(pruningValues)
    checkColumn(pruningValues ++ pruningValues.take(3) ++ Seq("", null))
  }

  test("oracle: frequentPatterns and its option pre-filter agree at every threshold on generated columns") {
    forSamples(genColumn, 100)(vs => for ((tau, cap) <- settings) checkFrequent(vs, tau, cap))
    checkFrequent(pruningValues ++ pruningValues.take(3) ++ Seq("", null), DefaultTau, DefaultCap)
  }

  test("oracle: frequentPatterns and its option pre-filter agree at every threshold on hand-built columns") {
    for (vs <- handBuiltColumns; (tau, cap) <- settings) checkFrequent(vs, tau, cap)
  }

  test("oracle: shape groups count exactly where a literal is kept or stripped") {
    for (vs <- shapeColumns) {
      checkColumn(vs)
      for ((tau, cap) <- settings) checkFrequent(vs, tau, cap)
    }
  }

  test("oracle: every run of a value's tokens has the option lists of its text as a whole value") {
    val generated = Iterator.continually(genColumn.sample).flatten.take(100).flatten ++
      Iterator.continually(FmdvVSpec.genColumn.sample).flatten.take(30).flatten
    val values = (generated ++ FmdvVSpec.fixedColumns.flatten ++ pruningValues ++ handBuiltColumns.flatten)
      .filter(v => v != null && v.nonEmpty).toVector.distinct
    for (v <- values; (tau, cap) <- settings) {
      val in = new Enumerate.Interner
      val table = new Enumerate.ValueOptions(v, in)
      assert(table.length == Tokens.tokenize(v).length)
      for (a <- 0 until table.length; b <- a until table.length) {
        val sub = table.text(a, b)
        assert(Tokens.tokenize(sub).length == b - a + 1, s"'$sub' of '$v'")
        val got = table.lists(a, b, tau, cap).toVector.map(_.toVector.map(_.toVector.map(Pattern.Code.decode(_, in.text))))
        assert(got == Enumerate.walkedOptions(Seq(sub), 1, tau, cap).head,
          s"run $a … $b ('$sub') of '$v' at tau=$tau cap=$cap")
      }
    }
  }

  test("oracle: P(v) agrees on every distinct value of the test lake") {
    val lake = testLakeOracle
    assert(lake.bad.isEmpty, s"${lake.bad.size} of ${lake.checked} values differ, e.g. ${lake.bad.take(3)}")
  }

  test("oracle: H(C) agrees on every test-lake column's training prefix") {
    val cols = TestFixtures.corpusEColumns.map(_.values.take(10))
    val bad = inParallel(cols) { vs =>
      if (keys(Enumerate.hypothesis(vs)) == keys(EnumerateOracle.hypothesis(vs))) None else Some(vs)
    }.flatten
    assert(bad.isEmpty, s"${bad.size} columns differ, e.g. ${bad.take(1)}")
  }

  test("oracle: a 2^20+ digit run beside 300 distinct literals counts exactly") {
    val run = "7" * ((1 << 20) + 3)
    val literals = (0 until 300).map(i => Iterator.iterate(i)(_ / 26).take(3).map(k => ('a' + k % 26).toChar).mkString)
    assert(literals.distinct.size == 300)
    val col = Seq(run, run) ++ literals ++ literals.take(7) ++ Seq(run + "x", "x" + run)
    val got = Enumerate.columnPatternCounts(col)
    assert(got == EnumerateOracle.columnPatternCounts(col))
    assert(got(Pattern.Pat(Vector(Pattern.VarLen(Pattern.GClass.Digit))).key) == 2)
    assert(got(Pattern.Pat(Vector(Pattern.VarLen(Pattern.GClass.Lower))).key) == 307)
  }
}

object EnumerateOracleSpec {

  /** Values that reach each pruning level at the default cap (fine
    * granularity: level 0, 1, 2, 3), a merged granularity that falls back
    * to a single pattern under small caps, and GUIDs that are wide at the
    * fine granularity but mergeable under τ.
    */
  val pruningValues: Vector[String] = Vector(
    "9:07",                                    // level 0
    "1.2.3.4.5.6",                             // 5^6 > 8192 ≥ 4^6: level 1
    "1.2.3.4.5.6.7",                           // 4^7 > 8192 ≥ 2^7: level 2
    "a1b2c3d4e5f6g",                           // 3^7·2^6 > 8192: level 3
    "Ab-Cd-Ef-Gh-Ij-Kl-Mn",                     // mixed-case letters at level 2/3
    "ab1-cd2-ef3-gh4-ij5-kl6-mn7",             // merged alnum runs: fallback when 2^7 > cap
    "b0a04f4b-a1e7-564b-7ccf-e267be6c2295",    // GUID: fine > τ, merged = 9
    "{34d52294-ca91-91cc-0553-d06cf1b87d43}",
    "00:1A:2b:3C:4d:5E",
    "2019-03-04T09:07:45.123Z")

  /** Columns that stress the pre-filter's (list length, position, token)
    * key: fine, merged and skeleton lists of different lengths sharing a
    * prefix; a literal frequent at one (length, position) and rare at
    * another; repeated values; and one value whose fine and skeleton lists
    * share every literal (it must count once per key).
    */
  val handBuiltColumns: Vector[Vector[String]] = Vector(
    // fine 5 / merged 3 / skeleton 3 tokens beside fine 3 / skeleton 3 and
    // fine 2 / merged 1 / skeleton 1, all opening with "ab"
    Vector("ab12-x9", "ab12-y7", "ab-12", "ab-12", "ab12", "cd34-x9", "ab12"),
    // "ab" at (3, 0) in three values, at (1, 0) in one value seen twice
    Vector("ab", "ab-1", "ab-2", "ab-3", "cd-4", "ab"),
    // "-" at (3, 1) throughout, at (5, 1) and (5, 3) only in the dates
    Vector("1-2", "3-4", "5-6", "2021-03-04", "2021-04-05", "7-8", "1-2"),
    // multiplicities above one, beside nulls and empties
    Vector("9:07", "9:07", "9:07", "10:15", "x", "x", null, "", "10:15", "x"),
    Vector("ab-12"),
    Vector("ab-12", "ab-12"))

  /** Columns where grouping values by token shape can go wrong; every
    * threshold k runs on each, so each shared literal is met at k − 1, k
    * and k + 1 copies.
    */
  val shapeColumns: Vector[Vector[String]] = Vector(
    // one shape; "12" at (3, 0) in 4 values (one seen twice), "ab" at
    // (3, 2) in 3, "cd" in 2
    Vector("12-ab", "12-cd", "12-ab", "34-ab", "12-ef", "56-cd"),
    // "12" in "12-a1" at its fine (4, 0) and merged (3, 0): frequent at the
    // merged key (three values of fine length 3 share it) but not the fine one
    Vector("12-a1", "12-b2", "12-ab", "12-cd", "12-ef", "34-c3"),
    // the reverse: frequent at the fine (4, 0), which "12:-x" values share,
    // but not at the merged (3, 0)
    Vector("12-a1", "12:-x", "12:-y", "12:-z", "34-b2", "12:-w"),
    // different shapes (case, symbol, digit length) sharing (3, 0, "12")
    // and (3, 2, "ab")
    Vector("12-ab", "12-AB", "12.ab", "12-Ab", "123-ab", "12/ab", "12-ab"),
    // Ab / AB / ab of one length, beside one another's literals
    Vector("Ab-1", "AB-1", "ab-1", "Ab-2", "AB-2", "ab-1", "Ab-1"),
    // non-ASCII symbols, surrogate pairs, repeated pairs and lone surrogates
    Vector("é1😀", "é2😀", "é1😀", "é1😀x", "😀😀1", "😀1", "😀😀2"),
    Vector("\uD83D1", "\uD83D2", "\uDE001", "\uD83D\uD83D\uDE001", "中-12", "中-12", "中-13"))

  /** Columns of one value shape (so H(C) is often non-empty) or of mixed
    * shapes, with repeats, nulls and empty strings.
    */
  val genColumn: Gen[Vector[String]] = {
    val shaped = Gen.oneOf(EnumerateSpec.valueGens :+ EnumerateSpec.genValue)
    val cell = (g: Gen[String]) => Gen.frequency(8 -> g, 1 -> Gen.const(null), 1 -> Gen.const(""))
    for {
      g <- shaped
      pool <- Gen.nonEmptyListOf(g).map(_.take(6))
      n <- Gen.choose(0, 12)
      col <- Gen.listOfN(n, cell(Gen.oneOf(pool)))
    } yield col.toVector
  }

  /** The cross-product oracle over the test lake, in one pass shared by
    * the P(v) test here and `OfflineIndexerSpec`'s index test.
    *
    * @param bad     distinct values whose `Enumerate.patternsOf` differs from the oracle's
    * @param checked number of distinct values compared
    * @param evidence every column's `localEvidence` under the default
    *                 [[IndexConfig]], built from the same oracle P(v)
    */
  final case class TestLakeOracle(bad: Vector[String], checked: Int, evidence: Vector[(String, Double)])

  /** The oracle's P(v) once per column and distinct value: compared with
    * `Enumerate` in whichever column reaches the value first, and its keys
    * kept for that column's evidence. Only one column's keys are held at
    * a time (4 threads).
    */
  lazy val testLakeOracle: TestLakeOracle = {
    val cfg = IndexConfig()
    require((cfg.tau, cfg.capPerValue) == (DefaultTau, DefaultCap))
    val checked = ConcurrentHashMap.newKeySet[String]()
    val perColumn = inParallel(TestFixtures.corpusEColumns) { c =>
      val keys = collection.mutable.HashMap.empty[String, Vector[String]]
      val bad = c.values.filter(v => v != null && v.nonEmpty).distinct.filter { v =>
        val want = EnumerateOracle.patternsOf(v)
        keys(v) = want.map(_.key)
        checked.add(v) && Enumerate.patternsOf(v) != want
      }
      (bad, EnumerateOracle.localEvidence(c.values, cfg, keys))
    }
    TestLakeOracle(perColumn.flatMap(_._1), checked.size, perColumn.flatMap(_._2))
  }

  /** `f` over `xs` on a few threads, in order. */
  def inParallel[A, B](xs: Seq[A])(f: A => B): Vector[B] = {
    val pool = Executors.newFixedThreadPool(math.min(4, Runtime.getRuntime.availableProcessors))
    try xs.map(x => pool.submit(new Callable[B] { def call(): B = f(x) })).map(_.get()).toVector
    finally pool.shutdown()
  }
}
