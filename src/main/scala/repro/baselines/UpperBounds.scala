package repro.baselines

import repro.core.Values
import repro.lake.Benchmark.BenchCase
import repro.lake.LakeColumn

/** Recall upper-bound analyses of §5.2 (both assume perfect precision, like
  * the paper): FD-UB for functional-dependency approaches and AD-UB for
  * Auto-Detect-style co-occurrence approaches.
  */
object UpperBounds {

  /** True iff `lhs → rhs` is a non-trivial functional dependency on the
    * instance: functionality holds, and the LHS actually has duplicate
    * values (a unique key determines everything — that is trivial and would
    * put every column "in an FD").
    */
  def nonTrivialFd(lhs: Seq[String], rhs: Seq[String]): Boolean = {
    if (lhs.size != rhs.size || lhs.isEmpty) return false
    val m = collection.mutable.HashMap.empty[String, String]
    var dup = false
    for ((l, r) <- lhs.zip(rhs)) {
      m.get(l) match {
        case Some(prev) => if (prev != r) return false else dup = true
        case None       => m.update(l, r)
      }
    }
    dup
  }

  /** FD-UB: the fraction of cases whose column is the RHS of a non-trivial
    * FD in its source table (here: the generated determinant sibling).
    */
  def fdUpperBoundRecall(cases: Seq[BenchCase]): Double = {
    if (cases.isEmpty) return 0.0
    val covered = cases.count { c =>
      c.sibling.exists(sib => nonTrivialFd(sib, c.values))
    }
    covered.toDouble / cases.size
  }

  /** AD-UB: Auto-Detect needs the column's pattern to be a *common* pattern
    * (both members of a tested value pair must map to frequent patterns).
    * A case is coverable iff its plurality coarse signature occurs as the
    * plurality signature of ≥ `minColumns` corpus columns.
    */
  def adUpperBoundRecall(cases: Seq[BenchCase], corpus: Seq[LakeColumn],
                         minColumns: Int = 10): Double = {
    if (cases.isEmpty) return 0.0
    val corpusSigCounts: Map[String, Int] = corpus
      .flatMap(c => SchemaMatching.pluralitySignature(
        c.values.iterator.filterNot(Values.isMissing).take(100).toVector).map(_._1))
      .groupMapReduce(identity)(_ => 1)(_ + _)
    val covered = cases.count { c =>
      SchemaMatching.pluralitySignature(c.values.filterNot(Values.isMissing))
        .exists { case (sig, _) => corpusSigCounts.getOrElse(sig, 0) >= minColumns }
    }
    covered.toDouble / cases.size
  }
}
