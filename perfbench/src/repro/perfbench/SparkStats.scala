package repro.perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler._

/** Collects stage, task, shuffle and GC counters of the Spark jobs run
  * between two calls to [[reset]], through Spark's public listener API.
  */
final class SparkStats extends SparkListener {
  import SparkStats._

  private val tasks = new ConcurrentLinkedQueue[Task]()
  private val stages = new ConcurrentLinkedQueue[Stage]()
  @volatile private var jobsStarted = 0
  @volatile private var jobsEnded = 0
  @volatile private var firstJobStart = Long.MaxValue
  @volatile private var lastJobEnd = 0L

  def reset(): Unit = synchronized {
    tasks.clear(); stages.clear()
    jobsStarted = 0; jobsEnded = 0; firstJobStart = Long.MaxValue; lastJobEnd = 0L
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobsStarted += 1; firstJobStart = math.min(firstJobStart, e.time)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobsEnded += 1; lastJobEnd = math.max(lastJobEnd, e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null)
      tasks.add(Task(e.stageId, m.executorRunTime, m.executorCpuTime, m.jvmGCTime,
        m.shuffleWriteMetrics.recordsWritten, m.shuffleWriteMetrics.bytesWritten))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val i = e.stageInfo
    val dur = (for (s <- i.submissionTime; c <- i.completionTime) yield c - s).getOrElse(0L)
    val writes = i.taskMetrics != null && i.taskMetrics.shuffleWriteMetrics.recordsWritten > 0
    stages.add(Stage(i.stageId, dur, writes))
  }

  /** Blocks until every started job has been reported ended (the listener
    * bus is asynchronous), or the timeout passes.
    */
  def awaitJobs(timeoutMs: Long = 10000L): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (System.currentTimeMillis() < deadline && !(jobsStarted > 0 && jobsStarted == jobsEnded))
      Thread.sleep(20)
  }

  /** Wall time covered by the jobs since [[reset]], in milliseconds. */
  def jobSpanMs: Long = if (jobsEnded == 0) 0L else lastJobEnd - firstJobStart

  /** Counters of the jobs since [[reset]]. Map stages write shuffle output
    * (the repartition of the corpus and the evidence flatMap with its
    * partial aggregation); the others are reduce stages.
    */
  def summary(): Map[String, Double] = {
    val ts = tasks.asScala.toVector
    val ss = stages.asScala.toVector
    val mapIds = ss.filter(_.writesShuffle).map(_.id).toSet
    // skew of the heaviest map stage: slowest task over the median task
    val heaviest = ts.filter(t => mapIds(t.stageId)).groupBy(_.stageId).values
      .maxByOption(_.map(_.runMs).sum).getOrElse(Vector.empty)
    val skew =
      if (heaviest.isEmpty) 0.0
      else {
        val rt = heaviest.map(_.runMs).sorted
        rt.last.toDouble / math.max(1L, rt((rt.size - 1) / 2))
      }
    Map(
      "spark.map_stage_s" -> ss.filter(_.writesShuffle).map(_.durationMs).sum / 1e3,
      "spark.reduce_stage_s" -> ss.filterNot(_.writesShuffle).map(_.durationMs).sum / 1e3,
      "spark.task_cpu_s" -> ts.map(_.cpuNs).sum / 1e9,
      "spark.gc_s" -> ts.map(_.gcMs).sum / 1e3,
      "spark.shuffle_records" -> ts.map(_.shuffleRecords).sum.toDouble,
      "spark.shuffle_write_bytes" -> ts.map(_.shuffleBytes).sum.toDouble,
      "spark.map_task_skew" -> skew)
  }
}

object SparkStats {
  private final case class Task(stageId: Int, runMs: Long, cpuNs: Long, gcMs: Long,
                                shuffleRecords: Long, shuffleBytes: Long)
  private final case class Stage(id: Int, durationMs: Long, writesShuffle: Boolean)
}
