package repro.core

import java.util.concurrent.ConcurrentHashMap

import repro.core.Pattern.Pat
import repro.stats.StatTests

/** A learned data-validation rule: applied to a batch of future values,
  * returns true when the batch should be flagged as a data-quality issue.
  */
trait Rule extends Serializable {
  def name: String
  /** true = raise an alarm on this batch. */
  def flags(test: Seq[String]): Boolean
  def describe: String
}

/** Strict pattern rule (basic FMDV): alarm if ANY value fails the pattern. */
final case class StrictPatternRule(name: String, pat: Pat) extends Rule {
  def flags(test: Seq[String]): Boolean = test.exists(v => !pat.matches(v))
  def describe: String = pat.display
}

/** Tolerant pattern rule (FMDV-H/VH, §4): the train-time non-conforming
  * fraction θ_C is remembered; at test time the non-conforming fraction
  * θ_C' is compared with a two-sample homogeneity test and the batch is
  * flagged only if θ_C' increased significantly (p < α).
  *
  * @param nonConfTrain number of train values not matching the pattern
  * @param nTrain       train sample size
  * @param alpha        significance level (paper: Fisher two-tailed, 0.01)
  * @param useChiSq     use Pearson χ²+Yates instead of Fisher's exact test
  */
final case class TolerantPatternRule(
    name: String,
    pat: Pat,
    nonConfTrain: Int,
    nTrain: Int,
    alpha: Double = 0.01,
    useChiSq: Boolean = false) extends Rule {

  def thetaTrain: Double = if (nTrain == 0) 0.0 else nonConfTrain.toDouble / nTrain

  /** The §4 test on a batch of n values of which `bad` miss the pattern:
    * θ_test > θ_train, and then p < α.
    */
  private def alarm(bad: Int, n: Int): Boolean =
    bad.toDouble / n > thetaTrain && {
      val p =
        if (useChiSq) StatTests.chiSquaredYates(nonConfTrain, nTrain - nonConfTrain, bad, n - bad)
        else StatTests.fisherExactTwoTailed(nonConfTrain, nTrain - nonConfTrain, bad, n - bad)
      p < alpha
    }

  /** Per batch size n, the critical region of [[alarm]]: for each miss count
    * b ∈ 0..n, `end << 1 | alarm(b, n)`, where end is the largest count up to
    * which every count from b on gives the same alarm. Built on the first
    * batch of each size; never serialized.
    */
  @transient private lazy val regions = new ConcurrentHashMap[Integer, Array[Int]]

  private def region(n: Int): Array[Int] = {
    val r = new Array[Int](n + 1)
    var b = n
    while (b >= 0) {
      val a = if (alarm(b, n)) 1 else 0
      val end = if (b < n && (r(b + 1) & 1) == a) r(b + 1) >> 1 else b
      r(b) = end << 1 | a
      b -= 1
    }
    r
  }

  /** Counts misses only until every final count still reachable (the misses
    * so far plus any number of the values left) gives the same alarm.
    */
  def flags(test: Seq[String]): Boolean = {
    val n = test.size
    if (n == 0) return false
    val r = regions.computeIfAbsent(n, k => region(k))
    val it = test.iterator
    var bad = 0
    var left = n
    while ((r(bad) >> 1) < bad + left) {
      if (!pat.matches(it.next())) bad += 1
      left -= 1
    }
    (r(bad) & 1) == 1
  }

  def describe: String = f"${pat.display} (θ=$thetaTrain%.3f, α=$alpha)"
}

/** A validation method: learns a rule from training values, or None when it
  * cannot produce a (non-trivial) rule for the column. A case with no rule
  * never raises alarms.
  */
trait Method {
  def name: String
  def learn(train: Seq[String]): Option[Rule]
}
