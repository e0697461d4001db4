package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * The tests use it to build the offline pattern indexes of the synthetic
  * lakes (`TestFixtures.indexE`, built once per JVM and shared),
  * to run `OfflineIndexer` on small corpora, and to rescan the corpus in
  * the no-index FMDV reference. The driver heap is `Test / javaOptions`'s
  * `-Xmx` in build.sbt: SPARK_DRIVER_MEM, or half the host's memory.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output with the heap this forked JVM really got
    // (build.sbt's `testHeap`).
    Console.err.println(
      s"[SparkSpec] maxHeap=${Runtime.getRuntime.maxMemory >> 20}MiB " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
