package repro.core

import repro.{SparkSpec, TestFixtures}
import repro.core.Pattern.{PTok, Pat}
import repro.index.{PatternIndex, PatternStats}

/** The solvers choose their pattern in the index's token ids
  * (`Enumerate.best`); `Fmdv.best` over the same candidates, by String key,
  * is the oracle: for H(C), for FMDV-H's ⌈(1−θ)n⌉ candidates and for every
  * FMDV-V cell.
  */
class SelectionSpec extends SparkSpec {
  import SelectionSpec._

  test("selection in ids equals Fmdv.best on every B_E and B_G training prefix") {
    val index = TestFixtures.indexE
    val inputs = for (corpus <- Seq("E", "G"); c <- TestFixtures.art.bench(corpus); frac <- Seq(0.1, 0.3))
      yield (s"${c.id}@$frac", c.train(frac))
    assert(inputs.size == 700)
    val bad = EnumerateOracleSpec.inParallel(inputs) { case (id, train) =>
      mismatches(train, index, FmdvConfig()).map(m => s"$id $m")
    }.flatten
    assert(bad.isEmpty, s"${bad.size} selections differ, e.g. ${bad.take(3)}")
  }

  test("selection in ids equals Fmdv.best where the key decides and where tokens miss the index") {
    val cols = Iterator.continually(FmdvVSpec.genColumn.sample).flatten.take(60).toVector ++ FmdvVSpec.fixedColumns
    val cases = for (vs <- cols; cfg <- FmdvVSpec.settings; (drop, stats) <- indexShapes) yield (vs, cfg, drop, stats)
    // per case: its mismatches, whether the key decided its winner, and its candidates with absent tokens
    val results = EnumerateOracleSpec.inParallel(cases) { case (vs, cfg, drop, stats) =>
      val idx = constructed(vs, cfg, drop, stats)
      (mismatches(vs, idx, cfg), tiedWinners(Enumerate.hypothesis(vs, cfg.tau, cfg.cap), idx, cfg), absentTokens(vs, idx))
    }
    for (((vs, cfg, _, _), (bad, _, _)) <- cases.zip(results))
      assert(bad.isEmpty, s"$vs at tau=${cfg.tau} cap=${cfg.cap}: $bad")
    val (keyDecided, absent) = (results.map(_._2).sum, results.map(_._3).sum)
    assert(keyDecided > 0, "no H(C) winner was decided by its key")
    assert(absent > 0, "no candidate holds a token absent from the index")
  }
}

object SelectionSpec {

  /** Each selection in ids on `train` that differs from `Fmdv.best` of the
    * same candidates: H(C), FMDV-H's threshold and every FMDV-V cell but a
    * literal delimiter's.
    */
  def mismatches(train: Seq[String], idx: PatternIndex, cfg: FmdvConfig): Vector[String] = {
    val out = Vector.newBuilder[String]
    def check(what: String, got: Option[Solution], candidates: Seq[Pat]): Unit = {
      val want = Fmdv.best(candidates, idx, cfg)
      if (got != want) out += s"$what: $got, not $want"
    }
    check("H(C)", Fmdv.solve(train, idx, cfg), Enumerate.hypothesis(train, cfg.tau, cfg.cap))
    val vs = train.filter(_ != null)
    val need = math.ceil((1 - cfg.theta) * vs.size).toInt
    check("FMDV-H", Enumerate.bestFrequent(vs, need, idx, cfg),
      Enumerate.frequentPatterns(vs, need, cfg.tau, cfg.cap).map(_._1))
    val distinct = Enumerate.distinctValues(train).toVector
    if (distinct.nonEmpty) {
      val aligned = Msa.alignValues(distinct)
      val segments = new FmdvV.Segments(distinct, aligned, idx, cfg)
      for (s <- 0 until aligned.length; e <- s until aligned.length) {
        val sub = aligned.segmentValues(s, e)
        val delimiter = (s to e).forall(j => aligned.profile(j).cls == Tokens.Cls.Symbol) && sub.distinct.size == 1
        if (!delimiter) check(s"cell [$s, $e]", segments.fmdv(s, e), segments.hypothesis(s, e))
      }
    }
    out.result()
  }

  /** The H(C) candidates of `train` that hold a token no key of `idx` holds. */
  def absentTokens(train: Seq[String], idx: PatternIndex): Int =
    Enumerate.hypothesis(train).count(_.toks.exists(t => idx.slotsOf(t).isEmpty))

  /** 1 when the least feasible candidate ties with another on (fpr, cov,
    * specificity), so that the key decides, else 0.
    */
  def tiedWinners(candidates: Seq[Pat], idx: PatternIndex, cfg: FmdvConfig): Int = {
    val hits = for (p <- candidates; st <- idx.lookup(p.key) if st.fpr <= cfg.r && st.cov >= cfg.m)
      yield (st.fpr, st.cov, p.specificity)
    Fmdv.best(candidates, idx, cfg).fold(0) { w =>
      if (hits.count(_ == ((w.fpr, w.cov, w.pat.specificity))) > 1) 1 else 0
    }
  }

  /** (tokens left out of the index, stats per key): every key with one
    * stats (ties on fpr and cov everywhere, so specificity and then the key
    * decide), and few-valued stats by hash over keys that hold no token of
    * a hash class (so candidates hold tokens absent from the index).
    */
  val indexShapes: Seq[(PTok => Boolean, String => PatternStats)] = Seq(
    ((_: PTok) => false, (_: String) => PatternStats(0.01, 7L)),
    ((t: PTok) => Math.floorMod(Pat(Vector(t)).key.hashCode, 4) == 0,
      (k: String) => PatternStats(Math.floorMod(k.hashCode, 2) / 100.0, 5L + Math.floorMod(k.hashCode / 2, 2))))

  /** An index over the patterns of `vs`' spans (as `FmdvVSpec.spanIndex`),
    * less the keys that hold a `drop` token, with `stats` per key.
    */
  def constructed(vs: Seq[String], cfg: FmdvConfig, drop: PTok => Boolean,
                  stats: String => PatternStats): PatternIndex = {
    val aligned = Msa.alignValues(vs.filter(_.nonEmpty).distinct)
    val keys = (for (s <- 0 until aligned.length; e <- s until aligned.length;
                     v <- aligned.segmentValues(s, e) if v.nonEmpty;
                     k <- Enumerate.patternKeysOf(v, cfg.tau, cfg.cap)) yield k).toSet
    new PatternIndex(keys.iterator.filterNot(k => Pattern.parse(k).toks.exists(drop)).map(k => k -> stats(k)).toMap)
  }
}
