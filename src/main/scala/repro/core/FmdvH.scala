package repro.core

import repro.core.Pattern.Pat
import repro.index.PatternIndex

/** FMDV-H (§4): horizontal cuts for columns with ad-hoc special values.
  *
  * The exact problem is NP-hard (Theorem 2) for arbitrary hierarchies; over
  * the enumerated pattern space we can solve it directly: the candidate set
  * of Eq. (13)+(16) is every pattern in ∪_{v∈C} P(v) that matches at least
  * (1-θ)|C| values, and the best feasible candidate under the FPR/coverage
  * constraints (Eqs. 14–15) is selected exactly as in basic FMDV. Values the
  * chosen pattern does not match are the horizontally "cut" ones.
  *
  * The learned rule is *tolerant*: it remembers the train non-conforming
  * fraction θ_C and flags a future batch only when its non-conforming
  * fraction θ_C' increased significantly under a two-sample test (§4).
  */
object FmdvH {

  /** Result: chosen pattern + the train-time non-conformance it tolerates. */
  final case class HSolution(pat: Pat, fpr: Double, nonConfTrain: Int, nTrain: Int)

  /** FMDV-H: flat horizontal cut (full-column patterns only). */
  def solve(values: Seq[String], index: PatternIndex,
            cfg: FmdvConfig = FmdvConfig()): Option[HSolution] = {
    val vs = values.filter(_ != null)
    val n = vs.size // empty strings count toward |C| as non-conforming
    if (n == 0) return None
    val need = math.ceil((1 - cfg.theta) * n).toInt
    Enumerate.bestFrequent(vs, need, index, cfg).map { s =>
      val matched = vs.count(v => s.pat.matches(v))
      HSolution(s.pat, s.fpr, n - matched, n)
    }
  }

  /** FMDV-VH: try the flat horizontal cut first (it subsumes basic FMDV);
    * when the column is too wide for full-column candidates, vertically
    * segment the dominant merged-signature group (the conforming values)
    * and keep the composed pattern if it still matches ≥ (1-θ)|C|.
    */
  def solveVH(values: Seq[String], index: PatternIndex,
              cfg: FmdvConfig = FmdvConfig()): Option[HSolution] = {
    solve(values, index, cfg) match {
      case some @ Some(_) => some
      case None =>
        val all = values.filter(_ != null)
        val vs = all.filter(_.nonEmpty)
        val n = all.size
        if (vs.isEmpty) return None
        val need = math.ceil((1 - cfg.theta) * n).toInt
        val dominant = vs.groupBy(Tokens.signatureMergedKey)
          .values.toVector.sortBy(g => (-g.size, g.head)).head
        if (dominant.size < need) None
        else FmdvV.solve(dominant, index, cfg).flatMap { v =>
          val pat = v.pattern
          val matched = all.count(x => pat.matches(x))
          if (matched >= need) Some(HSolution(pat, v.totalFpr, n - matched, n))
          else None
        }
    }
  }

  /** FMDV-H as a tolerant validation [[Method]]. */
  final class AsMethod(index: PatternIndex, cfg: FmdvConfig = FmdvConfig(),
                       override val name: String = "FMDV-H") extends Method {
    def learn(train: Seq[String]): Option[Rule] =
      solve(train, index, cfg).map(s => TolerantPatternRule(name, s.pat, s.nonConfTrain, s.nTrain))
  }

  /** FMDV-VH as a tolerant validation [[Method]]. */
  final class VhMethod(index: PatternIndex, cfg: FmdvConfig = FmdvConfig(),
                       override val name: String = "FMDV-VH") extends Method {
    def learn(train: Seq[String]): Option[Rule] =
      solveVH(train, index, cfg).map(s => TolerantPatternRule(name, s.pat, s.nonConfTrain, s.nTrain))
  }
}
