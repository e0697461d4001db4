package repro.core

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

  def flags(test: Seq[String]): Boolean = {
    if (test.isEmpty) return false
    val bad = test.count(v => !pat.matches(v))
    val thetaTest = bad.toDouble / test.size
    if (thetaTest <= thetaTrain) return false
    val p =
      if (useChiSq) StatTests.chiSquaredYates(nonConfTrain, nTrain - nonConfTrain, bad, test.size - bad)
      else StatTests.fisherExactTwoTailed(nonConfTrain, nTrain - nonConfTrain, bad, test.size - bad)
    p < alpha
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
