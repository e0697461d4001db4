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

  /** FMDV-H's column: its values but null, and the ⌈(1−θ)n⌉ of their n
    * that a cut must match. `""` stays: it counts toward n and, matching no
    * pattern, as non-conforming, whereas every other learner drops it as
    * missing (DESIGN §8). To drop it here too, `all` filters with
    * `Values.isMissing`.
    */
  private final class Column(values: Seq[String], index: PatternIndex, cfg: FmdvConfig) {
    val all: Seq[String] = values.filter(_ != null)
    val need: Int = math.ceil((1 - cfg.theta) * all.size).toInt
    def solution(pat: Pat, fpr: Double): HSolution = HSolution(pat, fpr, all.size - all.count(pat.matches), all.size)
    def horizontal: Option[HSolution] =
      if (all.isEmpty) None else Enumerate.bestFrequent(all, need, index, cfg).map(s => solution(s.pat, s.fpr))
  }

  /** FMDV-H: flat horizontal cut (full-column patterns only). */
  def solve(values: Seq[String], index: PatternIndex, cfg: FmdvConfig = FmdvConfig()): Option[HSolution] =
    new Column(values, index, cfg).horizontal

  /** FMDV-VH: try the flat horizontal cut first (it subsumes basic FMDV);
    * when the column is too wide for full-column candidates, vertically
    * segment the dominant merged-signature group of the present values
    * (the conforming ones) and keep the composed pattern if it still
    * matches ≥ (1-θ)|C|.
    */
  def solveVH(values: Seq[String], index: PatternIndex, cfg: FmdvConfig = FmdvConfig()): Option[HSolution] = {
    val c = new Column(values, index, cfg)
    c.horizontal.orElse {
      val groups = c.all.filterNot(Values.isMissing).groupBy(Tokens.signatureMergedKey).values.toVector
      groups.sortBy(g => (-g.size, g.head)).headOption.filter(_.size >= c.need)
        .flatMap(FmdvV.solve(_, index, cfg))
        .map(v => c.solution(v.pattern, v.totalFpr))
        .filter(h => h.nTrain - h.nonConfTrain >= c.need)
    }
  }

  /** FMDV-H as a tolerant validation [[Method]]. */
  final class AsMethod(index: PatternIndex, cfg: FmdvConfig = FmdvConfig()) extends Method {
    val name = "FMDV-H"
    def learn(train: Seq[String]): Option[Rule] =
      solve(train, index, cfg).map(s => TolerantPatternRule(name, s.pat, s.nonConfTrain, s.nTrain))
  }

  /** FMDV-VH as a tolerant validation [[Method]]. */
  final class VhMethod(index: PatternIndex, cfg: FmdvConfig = FmdvConfig()) extends Method {
    val name = "FMDV-VH"
    def learn(train: Seq[String]): Option[Rule] =
      solveVH(train, index, cfg).map(s => TolerantPatternRule(name, s.pat, s.nonConfTrain, s.nTrain))
  }
}
