package repro

import org.apache.spark.rdd.RDD
import repro.eval.Runners
import repro.index.PatternIndex
import repro.lake.{Benchmark, LakeColumn}

/** Shared, lazily-built fixtures so the (expensive) corpus indexes are built
  * once per test JVM and reused by every suite. They all come from one
  * [[Runners.Artifacts]], which the bench suites share too.
  */
object TestFixtures {

  lazy val art: Runners.Artifacts = new Runners.Artifacts(SparkSpec.shared)

  def corpusEColumns: Vector[LakeColumn] = art.cols("E")
  def corpusGColumns: Vector[LakeColumn] = art.cols("G")
  def corpusE: RDD[LakeColumn] = art.corpus("E")
  def indexE: PatternIndex = art.index("E")
  def benchE: Vector[Benchmark.BenchCase] = art.bench("E")
}
