package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Runners
import repro.index.OfflineIndexer

/** spark-submit entrypoints, one per reproduced table/figure.
  *
  * Example:
  *   spark-submit --class repro.jobs.Figure10Job repro.jar E
  */
object JobSupport {
  def run(name: String)(body: Runners.Artifacts => String): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
    try println(body(new Runners.Artifacts(spark)))
    finally spark.stop()
  }
}

/** Offline indexing stage (§2.4): scan a corpus, write the index to parquet. */
object BuildIndexJob {
  def main(args: Array[String]): Unit = {
    val corpus = args.headOption.getOrElse("E")
    val out = args.lift(1).getOrElse(s"target/index_$corpus.parquet")
    JobSupport.run(s"build-index-$corpus") { a =>
      val idx = a.index(corpus)
      OfflineIndexer.save(a.spark, idx, out)
      s"index for T_$corpus written to $out (${idx.size} patterns)"
    }
  }
}

/** Table 1: corpus characteristics. */
object Table1Job {
  def main(args: Array[String]): Unit = JobSupport.run("table1")(a => Runners.table1(a).rendered)
}

/** Figure 10 as a table: precision/recall of all methods on B_E or B_G. */
object Figure10Job {
  def main(args: Array[String]): Unit = {
    val corpus = args.headOption.getOrElse("E")
    JobSupport.run(s"figure10-$corpus")(a => Runners.figure10(a, corpus).rendered)
  }
}

/** Table 2: programmatic vs hand-curated ground-truth evaluation. */
object Table2Job {
  def main(args: Array[String]): Unit = JobSupport.run("table2")(a => Runners.table2(a).rendered)
}

/** Figure 12 as tables: sensitivity to r, m, τ, θ. */
object SensitivityJob {
  def main(args: Array[String]): Unit = JobSupport.run("sensitivity")(a => Runners.sensitivity(a).rendered)
}

/** Figure 13 as tables: pattern distribution in the offline index. */
object PatternStatsJob {
  def main(args: Array[String]): Unit = JobSupport.run("pattern-stats")(a => Runners.patternStats(a).rendered)
}

/** Figure 14 as a table: per-query-column latency. */
object LatencyJob {
  def main(args: Array[String]): Unit = JobSupport.run("latency")(a => Runners.latency(a).rendered)
}

/** Table 3: simulated user study. */
object Table3Job {
  def main(args: Array[String]): Unit = JobSupport.run("table3")(a => Runners.table3(a).rendered)
}

/** Figure 15 as a table: schema-drift detection case study. */
object DriftJob {
  def main(args: Array[String]): Unit = JobSupport.run("drift")(a => Runners.drift(a).rendered)
}
