package repro.index

import scala.collection.mutable
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.Enumerate
import repro.lake.LakeColumn

/** Offline indexing stage (§2.4), as one Spark pass.
  *
  * One full scan of the corpus T: for each column D, enumerate
  * P(D) = ∪_{v∈D, t(v)≤τ} P(v) and the local impurity
  * Imp_D(p) = |{v ∈ D : p ∉ P(v)}| / |D|. Each partition sums its columns'
  * evidence per pattern (the map side of a map/reduce); the driver merges
  * the partitions' sums in partition order (the reduce) into
  * FPR_T(p) = avg over matched columns of Imp_D(p) (Definition 3) and
  * Cov_T(p) = number of matched columns. The pass writes no shuffle, and
  * one partitioning gives bit-identical sums from run to run.
  *
  * The result is a small lookup table (pattern, fpr, cov) — the online stage
  * never rescans T.
  */
object OfflineIndexer {

  /** Indexing knobs.
    *
    * @param tau            max tokens per enumerated value (paper's τ)
    * @param capPerValue    cap on each of a value's fine and merged
    *                       cross-products, past which that granularity's
    *                       options are pruned; the skeleton is never
    *                       capped, so |P(v)| can exceed it
    * @param maxValues      cap on values read per column (corpus columns are
    *                       long; impurity estimates converge quickly)
    * @param minEnumerable  skip a column entirely when fewer than this
    *                       fraction of its values fit under τ (paper: wide
    *                       columns are omitted and recovered by vertical cuts)
    * @param minCov         drop index entries seen in fewer columns — they
    *                       can never satisfy a coverage constraint m ≥ minCov
    *                       and dominate index size (Fig. 13b's long tail)
    */
  final case class IndexConfig(
      tau: Int = Enumerate.DefaultTau,
      capPerValue: Int = Enumerate.DefaultCap,
      maxValues: Int = 100,
      minEnumerable: Double = 0.5,
      minCov: Long = 2L)

  /** Algorithm 1's per-column coverage threshold: a pattern enters P(D) only
    * when it covers at least this fraction of D's values. Without it a
    * single stray value (one "NULL" in a date column) makes D count as a
    * near-total-impurity column for every pattern of the stray value's
    * shape, drowning good patterns in artifact FPR.
    */
  val MinColCoverage = 0.1

  /** Per-column local evidence: one row per pattern in P(D). */
  private[index] def localEvidence(values: Seq[String], cfg: IndexConfig): Seq[(String, Double)] = {
    val vs = values.iterator.filter(v => v != null && v.nonEmpty).take(cfg.maxValues).toVector
    if (vs.isEmpty) return Nil
    val enumerable = vs.count(v => repro.core.Tokens.effectiveTokenCount(v) <= cfg.tau)
    if (enumerable < cfg.minEnumerable * vs.size) return Nil
    val n = vs.size.toDouble
    // counts are integers, so cnt ≥ x exactly when cnt ≥ ⌈x⌉
    val minCnt = math.ceil(math.max(1.0, MinColCoverage * n)).toInt
    Enumerate.frequentPatterns(vs, minCnt, cfg.tau, cfg.capPerValue)
      .map { case (p, cnt) => (p.key, 1.0 - cnt / n) }
  }

  /** One scan of `cols`: each partition combines its columns' evidence into
    * (Σ Imp_D(p), count) per key, dropping keys outside `keep`, and the
    * driver merges the partitions in order and drops entries below `minCov`.
    */
  private[index] def aggregate(cols: RDD[LakeColumn], cfg: IndexConfig,
                               keep: String => Boolean = _ => true): PatternIndex = {
    def add(to: mutable.HashMap[String, (Double, Long)], k: String, imp: Double, cov: Long): Unit =
      to(k) = to.get(k).fold((imp, cov)) { case (i, c) => (i + imp, c + cov) }
    val parts = cols.mapPartitions { it =>
      val part = mutable.HashMap.empty[String, (Double, Long)]
      for (c <- it; (k, imp) <- localEvidence(c.values, cfg) if keep(k)) add(part, k, imp, 1L)
      // parallel arrays: the task result is serialized with no object per entry
      Iterator.single((part.keys.toArray, part.values.map(_._1).toArray, part.values.map(_._2).toArray))
    }.collect()
    val all = mutable.HashMap.empty[String, (Double, Long)]
    for ((keys, imps, covs) <- parts; i <- keys.indices) add(all, keys(i), imps(i), covs(i))
    new PatternIndex(all.iterator.collect {
      case (k, (imp, cov)) if cov >= cfg.minCov => k -> PatternStats(imp / cov, cov)
    }.toMap)
  }

  /** Scan the corpus once and collect its index. */
  def buildIndex(cols: RDD[LakeColumn], cfg: IndexConfig = IndexConfig()): PatternIndex =
    aggregate(cols, cfg)

  /** Index entries per written slice. An entry serializes to about 28
    * bytes, so a slice stays far below Spark's 1,000 KiB task size.
    */
  private val EntriesPerSlice = 10000

  /** Persist the index as parquet rows (pattern, fpr, cov). */
  def save(spark: SparkSession, idx: PatternIndex, path: String): Unit = {
    import spark.implicits._
    val rows = idx.entries.iterator.map { case (k, s) => (k, s.fpr, s.cov) }.toVector
    spark.sparkContext.parallelize(rows, math.max(1, (rows.size + EntriesPerSlice - 1) / EntriesPerSlice))
      .toDF("pattern", "fpr", "cov").write.mode("overwrite").parquet(path)
  }
}
