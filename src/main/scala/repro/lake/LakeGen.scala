package repro.lake

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import scala.util.Random
import repro.lake.Domains.Domain

/** Builds the synthetic data-lake corpora T_E (enterprise-like) and T_G
  * (government-like) as driver-side columns (DESIGN.md §3.1–3.2), which
  * `corpus` slices into an RDD for the offline indexer's scan and `stats`
  * aggregates into Table 1.
  *
  * Besides clean domain columns, the lake contains the column types real
  * lakes have and that the method's corpus statistics depend on:
  *
  *  - *dirty* columns — domain values with a small rate of ad-hoc special
  *    values ("-", "N/A", …; Fig. 9);
  *  - *impure* columns — two related formats mixed in one column (the
  *    evidence that penalizes overly-narrow AND overly-broad patterns,
  *    Fig. 6);
  *  - *constant* columns and *null-marker* columns.
  *
  * Everything is deterministic in the config seed.
  */
object LakeGen {

  final case class LakeConfig(
      corpus: String,
      seed: Long,
      popularityScale: Double,
      valuesMin: Int,
      valuesMax: Int,
      dirtyColumnFrac: Double,
      dirtyValueRate: Double,
      impureColumnFrac: Double,
      constantColumns: Int,
      nullMarkerColumns: Int,
      messyCodeColumns: Int,
      colsPerTableMin: Int = 3,
      colsPerTableMax: Int = 8)

  /** Larger, cleaner, machine-generated-heavy corpus (T_E). */
  val Enterprise: LakeConfig = LakeConfig(
    corpus = "E", seed = 11L, popularityScale = 1.0,
    valuesMin = 40, valuesMax = 120,
    dirtyColumnFrac = 0.15, dirtyValueRate = 0.02,
    impureColumnFrac = 0.012, constantColumns = 60, nullMarkerColumns = 30,
    messyCodeColumns = 40)

  /** Smaller, shorter, dirtier corpus (T_G): manually-edited-CSV flavor. */
  val Government: LakeConfig = LakeConfig(
    corpus = "G", seed = 23L, popularityScale = 0.3,
    valuesMin = 15, valuesMax = 60,
    dirtyColumnFrac = 0.30, dirtyValueRate = 0.05,
    impureColumnFrac = 0.03, constantColumns = 20, nullMarkerColumns = 15,
    messyCodeColumns = 12)

  private val ConstantTokens = Vector("T", "F", "Y", "N", "X", "A", "0", "1", "OK",
    "ACTIVE", "prod", "v2", "default", "na", "US", "Mar", "2019", "true", "item")

  /** Pairs of related formats mixed in impure columns. Chosen to mirror real
    * format drift: with/without a time part, int vs float, plain code vs
    * dashed code. The last three pairs mix symbol-free alphanumeric codes
    * with symbol-bearing ones — the corpus evidence that makes the
    * over-general `<alnum>+` measurably impure (Fig. 6's "bad hypothesis"
    * reasoning applied at the broad end).
    */
  private def impurePairs(r: Random): (Domain, Domain) = {
    val pairs = Vector(
      (Domains.dateSlashD, Domains.dateTimeAmPmD),
      (Domains.dateIsoD, Domains.dateTimeIsoD),
      (Domains.intSmallD, Domains.float2D),
      (Domains.timeHmsD, Domains.timeAmPmD),
      (Domains.country2D, Domains.statusD),
      (Domains.custCodeD, Domains.orderIdD),
      (Domains.hex8D, Domains.guidD))
    pairs(r.nextInt(pairs.length))
  }

  /** Deterministic per-column RNG derived from the lake seed. */
  private def rngFor(cfg: LakeConfig, salt: Long): Random =
    new Random(cfg.seed * 1000003L + salt * 7919L + 17L)

  private def injectSpecials(r: Random, values: Vector[String], rate: Double): Vector[String] = {
    val marker = Domains.pickSpecialMarker(r) // one null convention per column
    values.map(v => if (r.nextDouble() < rate) marker else v)
  }

  /** All corpus columns, driver-side (the lake is materialized once and then
    * scanned by Spark; generation itself is cheap).
    */
  def generateColumns(cfg: LakeConfig): Vector[LakeColumn] = {
    val cols = Vector.newBuilder[LakeColumn]
    var salt = 0L
    def nextRng(): Random = { salt += 1; rngFor(cfg, salt) }

    // 1) domain columns (incl. NL domains — real lakes have both)
    for (d <- Domains.all) {
      val nCols = math.max(1, math.round(d.popularity * cfg.popularityScale).toInt)
      for (i <- 0 until nCols) {
        val r = nextRng()
        val n = cfg.valuesMin + r.nextInt(cfg.valuesMax - cfg.valuesMin + 1)
        var vals = d.make(r, n)
        val dirty = !d.isNL && r.nextDouble() < cfg.dirtyColumnFrac
        if (dirty) vals = injectSpecials(r, vals, cfg.dirtyValueRate)
        cols += LakeColumn(cfg.corpus, "", s"${cfg.corpus}c$salt", s"${d.name}_$i", d.name, vals)
      }
    }
    // 2) impure columns: two related formats interleaved
    val nDomainCols = cols.result().size
    val nImpure = math.round(nDomainCols * cfg.impureColumnFrac).toInt
    for (i <- 0 until nImpure) {
      val r = nextRng()
      val (d1, d2) = impurePairs(r)
      val n = cfg.valuesMin + r.nextInt(cfg.valuesMax - cfg.valuesMin + 1)
      val frac = 0.3 + r.nextDouble() * 0.4
      val n1 = math.max(1, (n * frac).toInt)
      val vals = r.shuffle(d1.make(r, n1) ++ d2.make(r, n - n1))
      cols += LakeColumn(cfg.corpus, "", s"${cfg.corpus}c$salt", s"mixed_$i", "", vals)
    }
    // 3) constant columns
    for (i <- 0 until cfg.constantColumns) {
      val r = nextRng()
      val tok = ConstantTokens(r.nextInt(ConstantTokens.length))
      val n = cfg.valuesMin + r.nextInt(cfg.valuesMax - cfg.valuesMin + 1)
      cols += LakeColumn(cfg.corpus, "", s"${cfg.corpus}c$salt", s"const_$i", "const", Vector.fill(n)(tok))
    }
    // 3b) messy code columns: SKU-like alnum codes where a minority variant
    // carries a dash ("X123" vs "X-123") — realistic formatting drift that
    // makes the over-general <alnum>+ measurably impure without touching
    // pure digit/letter patterns.
    for (i <- 0 until cfg.messyCodeColumns) {
      val r = nextRng()
      val n = cfg.valuesMin + r.nextInt(cfg.valuesMax - cfg.valuesMin + 1)
      val dashFrac = 0.12 + r.nextDouble() * 0.13
      val vals = Vector.fill(n) {
        val letter = ('A' + r.nextInt(26)).toChar
        val num = 100 + r.nextInt(9900)
        if (r.nextDouble() < dashFrac) s"$letter-$num" else s"$letter$num"
      }
      cols += LakeColumn(cfg.corpus, "", s"${cfg.corpus}c$salt", s"sku_$i", "", vals)
    }
    // 4) null-marker columns
    for (i <- 0 until cfg.nullMarkerColumns) {
      val r = nextRng()
      val marker = Domains.SpecialValues(r.nextInt(Domains.SpecialValues.length - 1)) // skip ""
      val n = cfg.valuesMin + r.nextInt(cfg.valuesMax - cfg.valuesMin + 1)
      cols += LakeColumn(cfg.corpus, "", s"${cfg.corpus}c$salt", s"null_$i", "nullmark", Vector.fill(n)(marker))
    }

    // assign columns to tables (files) of 3–8 columns, shuffled
    val r = rngFor(cfg, 999983L)
    val shuffled = r.shuffle(cols.result())
    val out = Vector.newBuilder[LakeColumn]
    var tid = 0
    var i = 0
    while (i < shuffled.length) {
      val w = cfg.colsPerTableMin + r.nextInt(cfg.colsPerTableMax - cfg.colsPerTableMin + 1)
      for (c <- shuffled.slice(i, i + w)) out += c.copy(tableId = s"${cfg.corpus}t$tid")
      tid += 1
      i += w
    }
    out.result()
  }

  /** The corpus ready for the offline indexer: `cols`, in order, cut into 4
    * slices per core. A slice is a partition, so the indexer's scan needs no
    * shuffle, and the many small slices keep every core busy while the
    * columns' enumeration work varies.
    */
  def corpus(spark: SparkSession, cols: Seq[LakeColumn]): RDD[LakeColumn] =
    spark.sparkContext.parallelize(cols, 4 * spark.sparkContext.defaultParallelism)

  /** The columns of `cfg`'s lake, sliced as above. */
  def corpus(spark: SparkSession, cfg: LakeConfig): RDD[LakeColumn] = corpus(spark, generateColumns(cfg))

  /** Table 1 statistics, aggregated by Spark SQL over one row per column. */
  final case class CorpusStats(
      corpus: String, files: Long, cols: Long,
      avgValues: Double, sdValues: Double,
      avgDistinct: Double, sdDistinct: Double)

  def stats(spark: SparkSession, cols: Seq[LakeColumn]): CorpusStats = {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val per = cols.map(c => (c.corpus, c.tableId, c.values.size.toLong, c.values.distinct.size.toLong))
      .toDF("corpus", "tableId", "n", "nd")
    val row = per.agg(
      first($"corpus").as("corpus"),
      countDistinct($"tableId").as("files"),
      count(lit(1)).as("cols"),
      avg($"n").as("avgValues"), stddev_pop($"n").as("sdValues"),
      avg($"nd").as("avgDistinct"), stddev_pop($"nd").as("sdDistinct")
    ).collect()(0)
    CorpusStats(row.getString(0), row.getLong(1), row.getLong(2),
      row.getDouble(3), row.getDouble(4), row.getDouble(5), row.getDouble(6))
  }
}
