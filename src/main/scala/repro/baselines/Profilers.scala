package repro.baselines

import repro.core.{Enumerate, Method, Rule, Tokens}
import repro.core.Pattern.Pat

/** Pattern-profiling baselines beyond Potter's Wheel (§5.2): SSIS, XSystem
  * and FlashProfile. All are re-implementations of the validation-relevant
  * behavior (DESIGN.md §3.4); all use their profiled patterns as strict
  * validation rules, like the paper does for profiling baselines.
  */
object Profilers {

  /** Flags a batch when some value matches none of the branch patterns. */
  final case class UnionPatternRule(name: String, pats: Vector[Pat]) extends Rule {
    def flags(test: Seq[String]): Boolean =
      test.exists(v => !pats.exists(_.matches(v)))
    def describe: String = pats.map(_.display).mkString(" | ")
  }

  /** SQL Server Integration Services data-profiling: emits a column regex.
    * SSIS patterns are notoriously *specific* (literal-heavy, fixed lengths);
    * modeled as the maximum-specificity pattern covering ≥95% of values.
    */
  final class Ssis(override val name: String = "SSIS") extends Method {
    def learn(train: Seq[String]): Option[Rule] = {
      val vs = train.filter(v => v != null && v.nonEmpty)
      if (vs.isEmpty) return None
      val exact = Enumerate.hypothesis(vs)
      val cands =
        if (exact.nonEmpty) exact
        else Enumerate.frequentPatterns(vs, math.ceil(0.95 * vs.size).toInt).map(_._1)
      if (cands.isEmpty) None
      else Some(repro.core.StrictPatternRule(name,
        cands.maxBy(p => (p.specificity, p.key))))
    }
  }

  /** XSystem: learns a branching structure over value shapes; modeled as one
    * branch per coarse signature group, each branch being that group's most
    * specific common pattern. A value must match some branch.
    */
  final class XSystem(minBranchFrac: Double = 0.02,
                      override val name: String = "XSystem") extends Method {
    def learn(train: Seq[String]): Option[Rule] = {
      val vs = train.filter(v => v != null && v.nonEmpty)
      if (vs.isEmpty) return None
      val groups = vs.groupBy(Tokens.signatureKey).values.toVector
        .filter(_.size >= math.max(1, minBranchFrac * vs.size))
      val branches = groups.flatMap { g =>
        val h = Enumerate.hypothesis(g)
        if (h.nonEmpty) Some(h.maxBy(p => (p.specificity, p.key))) else None
      }
      if (branches.isEmpty) None
      else Some(UnionPatternRule(name, branches.sortBy(_.key)))
    }
  }

  /** FlashProfile: clusters values by syntactic similarity and emits one
    * pattern per cluster; modeled as signature-groups with an MDL-chosen
    * pattern per cluster (slightly more general per-branch than XSystem).
    */
  final class FlashProfile(minClusterFrac: Double = 0.02,
                           override val name: String = "FlashProfile") extends Method {
    def learn(train: Seq[String]): Option[Rule] = {
      val vs = train.filter(v => v != null && v.nonEmpty)
      if (vs.isEmpty) return None
      val clusters = vs.groupBy(Tokens.signatureKey).values.toVector
        .filter(_.size >= math.max(1, minClusterFrac * vs.size))
      val pats = clusters.flatMap { g =>
        val h = Enumerate.hypothesis(g)
        if (h.isEmpty) None
        else Some(h.minBy(p => (PottersWheel.descriptionLength(p, g), p.key)))
      }
      if (pats.isEmpty) None
      else Some(UnionPatternRule(name, pats.sortBy(_.key)))
    }
  }
}
