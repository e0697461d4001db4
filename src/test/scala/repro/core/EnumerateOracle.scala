package repro.core

import repro.core.Enumerate.{DefaultCap, DefaultTau}
import repro.core.Pattern._
import repro.core.Tokens.{Tok, Cls}
import repro.index.OfflineIndexer

/** Test-scope reference for [[Enumerate]]: the plain cross-product
  * enumerator, which materialises every pattern of P(v) with its key, and
  * H(C) / per-column counts built from it by set algebra. Slow, and simple
  * enough to read against Algorithm 1.
  */
object EnumerateOracle {

  private def productSize(opts: Vector[Vector[PTok]]): Long =
    opts.foldLeft(1L)((acc, o) => math.min(Long.MaxValue / 2, acc * o.length))

  private def cross(opts: Vector[Vector[PTok]]): Vector[Vector[PTok]] =
    opts.foldLeft(Vector(Vector.empty[PTok])) { (acc, o) =>
      acc.flatMap(prefix => o.map(prefix :+ _))
    }

  private def enumerateToks(toks: Vector[Tok], cap: Int): Vector[Pat] = {
    var level = 0
    var opts = toks.map(t => Hierarchy.optionsPruned(t, level))
    while (productSize(opts) > cap && level < 3) {
      level += 1
      opts = toks.map(t => Hierarchy.optionsPruned(t, level))
    }
    if (productSize(opts) > cap) Vector(Pat(opts.map(_.head)))
    else cross(opts).map(Pat(_))
  }

  /** Alnum-skeleton enumeration: every digit/letter/merged run generalizes
    * only to `<alnum>{n}` / `<alnum>+` (symbols stay literal). At most
    * 2^tokens patterns, so it survives for every value under τ regardless of
    * cap pruning — which is what keeps H(C) non-empty on hex-like columns
    * whose values tokenize differently (all-digit octets vs mixed ones).
    */
  private def enumerateSkeleton(toks: Vector[Tok]): Vector[Pat] = {
    val opts = toks.map { t =>
      t.cls match {
        case Cls.Symbol => Vector[PTok](ConstT(t.text))
        case _ => Vector[PTok](FixLen(GClass.Alnum, t.len), VarLen(GClass.Alnum))
      }
    }
    cross(opts).map(Pat(_))
  }

  /** P(v): all patterns consistent with v (fine ∪ merged granularity ∪ the
    * alnum skeleton). Empty for null/empty values and values wider than tau
    * tokens at both granularities.
    */
  def patternsOf(v: String, tau: Int = DefaultTau, cap: Int = DefaultCap): Vector[Pat] = {
    if (v == null || v.isEmpty) return Vector.empty
    val fine = Tokens.tokenize(v)
    val merged = Tokens.tokenizeMerged(v)
    val fromFine =
      if (fine.length <= tau) enumerateToks(fine, cap) else Vector.empty
    val fromMerged =
      if (merged.length <= tau && merged.exists(_.cls == Cls.Alnum))
        enumerateToks(merged, cap)
      else Vector.empty
    val skeleton =
      if (merged.length <= tau) enumerateSkeleton(merged) else Vector.empty
    val all = fromFine ++ fromMerged ++ skeleton
    val seen = collection.mutable.HashSet.empty[String]
    all.filter(p => seen.add(p.key))
  }

  /** P(v) as a key-set (cheap set algebra for H(C) and indexing). */
  def patternKeysOf(v: String, tau: Int = DefaultTau, cap: Int = DefaultCap): Set[String] =
    patternsOf(v, tau, cap).map(_.key).toSet

  /** H(C) = ∩_{v∈C} P(v), over distinct non-empty values. Empty result means
    * the column has no single consistent pattern (heterogeneous values).
    */
  def hypothesis(values: Seq[String], tau: Int = DefaultTau, cap: Int = DefaultCap): Vector[Pat] = {
    val distinct = values.filter(v => v != null && v.nonEmpty).distinct
    if (distinct.isEmpty) return Vector.empty
    // Intersect starting from the first value.
    val first = patternsOf(distinct.head, tau, cap)
    var live: Map[String, Pat] = first.map(p => p.key -> p).toMap
    val it = distinct.iterator.drop(1)
    while (it.hasNext && live.nonEmpty) {
      val keys = patternKeysOf(it.next(), tau, cap)
      live = live.filter { case (k, _) => keys.contains(k) }
    }
    live.values.toVector
  }

  /** Per-column pattern→match-count map used by the offline indexer:
    * for each pattern p ∈ P(D), the number of values v ∈ D with p ∈ P(v).
    * `values` should already be capped by the caller. Wide values (> tau
    * tokens) contribute to no pattern but still count toward |D| (the caller
    * divides by total value count to get impurity).
    */
  def columnPatternCounts(values: Seq[String], tau: Int = DefaultTau,
                          cap: Int = DefaultCap): collection.Map[String, Int] =
    countKeys(values, patternKeysOf(_, tau, cap))

  /** [[columnPatternCounts]] with each distinct value's P(v) keys taken from
    * `keysOf`.
    */
  private def countKeys(values: Seq[String], keysOf: String => Iterable[String]): collection.Map[String, Int] = {
    val counts = collection.mutable.HashMap.empty[String, Int]
    val byValue = values.filter(v => v != null && v.nonEmpty).groupBy(identity)
    for ((v, occs) <- byValue; k <- keysOf(v)) counts.update(k, counts.getOrElse(k, 0) + occs.size)
    counts
  }

  /** The offline indexer's per-column evidence (pattern key, Imp_D) on top
    * of the oracle counts: the first `maxValues` non-empty values, the τ
    * skip of wide columns, and the per-column coverage threshold.
    * `keysOf(v)` must be the oracle's P(v) keys at `cfg`'s τ and cap — its
    * [[patternKeysOf]], or a caller's memo of it.
    */
  def localEvidence(values: Seq[String], cfg: OfflineIndexer.IndexConfig,
                    keysOf: String => Iterable[String]): Seq[(String, Double)] = {
    val vs = values.iterator.filter(v => v != null && v.nonEmpty).take(cfg.maxValues).toVector
    if (vs.isEmpty) return Nil
    val enumerable = vs.count(v => Tokens.effectiveTokenCount(v) <= cfg.tau)
    if (enumerable < cfg.minEnumerable * vs.size) return Nil
    val n = vs.size.toDouble
    val minCnt = math.max(1.0, OfflineIndexer.MinColCoverage * n)
    countKeys(vs, keysOf)
      .iterator
      .filter { case (_, cnt) => cnt >= minCnt }
      .map { case (key, cnt) => (key, 1.0 - cnt / n) }.toSeq
  }
}
