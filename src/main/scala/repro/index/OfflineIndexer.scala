package repro.index

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Enumerate
import repro.lake.LakeColumn

/** Offline indexing stage (§2.4), as a Spark dataflow.
  *
  * One full scan of the corpus T: for each column D, enumerate
  * P(D) = ∪_{v∈D, t(v)≤τ} P(v) and the local impurity
  * Imp_D(p) = |{v ∈ D : p ∉ P(v)}| / |D|; then a map/reduce aggregation per
  * pattern computes FPR_T(p) = avg over matched columns of Imp_D(p)
  * (Definition 3) and Cov_T(p) = number of matched columns.
  *
  * The result is a small lookup table (pattern, fpr, cov) — the online stage
  * never rescans T.
  */
object OfflineIndexer {

  /** Indexing knobs.
    *
    * @param tau            max tokens per enumerated value (paper's τ)
    * @param capPerValue    cap on |P(v)| before option pruning kicks in
    * @param maxValues      cap on values read per column (corpus columns are
    *                       long; impurity estimates converge quickly)
    * @param minEnumerable  skip a column entirely when fewer than this
    *                       fraction of its values fit under τ (paper: wide
    *                       columns are omitted and recovered by vertical cuts)
    * @param minCov         drop index entries seen in fewer columns — they
    *                       can never satisfy a coverage constraint m ≥ minCov
    *                       and dominate index size (Fig. 13b's long tail)
    * @param minColCoverage Algorithm 1's per-column coverage threshold: a
    *                       pattern enters P(D) only when it covers at least
    *                       this fraction of D's values. Without it a single
    *                       stray value (one "NULL" in a date column) makes D
    *                       count as a near-total-impurity column for every
    *                       pattern of the stray value's shape, drowning good
    *                       patterns in artifact FPR.
    */
  final case class IndexConfig(
      tau: Int = Enumerate.DefaultTau,
      capPerValue: Int = Enumerate.DefaultCap,
      maxValues: Int = 100,
      minEnumerable: Double = 0.5,
      minCov: Long = 2L,
      minColCoverage: Double = 0.1)

  /** Per-column local evidence: one row per pattern in P(D). */
  private[index] def localEvidence(values: Seq[String], cfg: IndexConfig): Seq[(String, Double)] = {
    val vs = values.iterator.filter(v => v != null && v.nonEmpty).take(cfg.maxValues).toVector
    if (vs.isEmpty) return Nil
    val enumerable = vs.count(v => repro.core.Tokens.effectiveTokenCount(v) <= cfg.tau)
    if (enumerable < cfg.minEnumerable * vs.size) return Nil
    val n = vs.size.toDouble
    // counts are integers, so cnt ≥ x exactly when cnt ≥ ⌈x⌉
    val minCnt = math.ceil(math.max(1.0, cfg.minColCoverage * n)).toInt
    Enumerate.frequentPatterns(vs, minCnt, cfg.tau, cfg.capPerValue)
      .map { case (p, cnt) => (p.key, 1.0 - cnt / n) }
  }

  /** Build the index DataFrame (pattern, fpr, cov) from a corpus of columns. */
  def build(cols: Dataset[LakeColumn], cfg: IndexConfig = IndexConfig()): DataFrame = {
    val spark = cols.sparkSession
    import spark.implicits._
    cols
      .flatMap(c => localEvidence(c.values, cfg))
      .toDF("pattern", "imp")
      .groupBy($"pattern")
      .agg(avg($"imp").as("fpr"), count(lit(1)).as("cov"))
      .where(col("cov") >= cfg.minCov)
  }

  /** Collect an index DataFrame into the in-memory lookup structure. */
  def collectIndex(indexDf: DataFrame): PatternIndex = {
    val m = indexDf.select("pattern", "fpr", "cov").collect().iterator.map { r =>
      r.getString(0) -> PatternStats(r.getDouble(1), r.getLong(2))
    }.toMap
    new PatternIndex(m)
  }

  /** One-call convenience: scan corpus, aggregate, collect. */
  def buildIndex(cols: Dataset[LakeColumn], cfg: IndexConfig = IndexConfig()): PatternIndex =
    collectIndex(build(cols, cfg))

  /** Persist / restore the index (parquet on the local filesystem). */
  def save(indexDf: DataFrame, path: String): Unit =
    indexDf.write.mode("overwrite").parquet(path)

  def load(spark: SparkSession, path: String): PatternIndex =
    collectIndex(spark.read.parquet(path))
}
