package repro.eval

import scala.util.Random
import repro.core.Method
import repro.lake.Domains
import repro.lake.Domains.Domain

/** Schema-drift case study (Fig. 15 substitute, DESIGN.md §3.6): synthetic
  * "tasks" each with two string-valued categorical attributes; the test feed
  * swaps the two columns' positions (the paper's simulated schema-drift).
  * We measure whether a validator trained on each column detects the swap,
  * and that it raises no alarm on un-drifted test data (no false positives).
  * The ML-model-quality delta is out of scope offline (no trainer); the
  * detection outcome is the claim under test.
  */
object Drift {

  final case class Task(name: String, colA: Domain, colB: Domain)

  /** Eleven tasks named after the paper's Kaggle sample, each assigned a
    * pair of distinct categorical-ish domains.
    */
  val Tasks: Vector[Task] = Vector(
    Task("Titanic", Domains.statusD, Domains.flagYnD),
    Task("AirBnb", Domains.country2D, Domains.localeD),
    Task("BNPParibas", Domains.lang2D, Domains.boolWordD),
    Task("RedHat", Domains.statusD, Domains.boolWordD),
    Task("SFCrime", Domains.month3D, Domains.country2D),
    Task("WestNile", Domains.flagTfD, Domains.flagYnD), // near-identical formats: hard
    Task("WalmartTrips", Domains.country2D, Domains.adsStatusD),
    Task("HousePrice", Domains.statusD, Domains.month3D),
    Task("HomeDepot", Domains.lang2D, Domains.country2D), // same shape, different case: hard
    Task("Caterpillar", Domains.localeD, Domains.adsStatusD),
    Task("WalmartSales", Domains.boolWordD, Domains.flagYnD))

  final case class TaskResult(task: String, detected: Boolean, falsePositive: Boolean)

  /** Task i draws `NValues` training and `NValues` test values per column from `Random(Seed + 131 i)`. */
  private val Seed = 404L
  private val NValues = 200

  def run(method: Method): Vector[TaskResult] =
    Tasks.zipWithIndex.map { case (t, i) =>
      val r = new Random(Seed + i * 131L)
      val trainA = t.colA.make(r, NValues); val trainB = t.colB.make(r, NValues)
      val testA = t.colA.make(r, NValues); val testB = t.colB.make(r, NValues)
      val ruleA = method.learn(trainA)
      val ruleB = method.learn(trainB)
      // schema-drift: column A's validator sees column B's data and vice versa
      val detected = ruleA.exists(_.flags(testB)) || ruleB.exists(_.flags(testA))
      val fp = ruleA.exists(_.flags(testA)) || ruleB.exists(_.flags(testB))
      TaskResult(t.name, detected, fp)
    }
}
