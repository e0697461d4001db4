package repro.core

import repro.core.Pattern.Pat
import repro.index.PatternIndex

/** Configuration shared by all FMDV variants.
  *
  * @param r     FPR target (Eq. 6): FPR_T(h) ≤ r. The paper's corpus has
  *              7.2M columns and good patterns measure FPR ≈ 0.04%; on the
  *              ~2K-column synthetic lake the same good patterns measure
  *              1–5% (every impure column weighs ~3000× more), while truly
  *              bad patterns measure ≥ 17%. The default is scaled
  *              accordingly — it also leaves budget for the *sum* constraint
  *              of FMDV-V (Eq. 9) across half a dozen segments.
  * @param m     coverage target (Eq. 7): Cov_T(h) ≥ m. The paper uses 100 on
  *              a 7.2M-column corpus; defaults scale to the synthetic lake.
  * @param tau   max tokens per enumerated value (τ, §2.4)
  * @param cap   cap on each of a value's fine and merged cross-products,
  *              past which that granularity's options are pruned level by
  *              level; the skeleton is never capped, so |P(v)| can exceed it
  * @param theta horizontal-cut tolerance θ (§4); the learned rule's test
  *              and its α are [[TolerantPatternRule]]'s
  */
final case class FmdvConfig(
    r: Double = 0.15,
    m: Long = 5,
    tau: Int = Enumerate.DefaultTau,
    cap: Int = Enumerate.DefaultCap,
    theta: Double = 0.10)

/** A feasible FMDV solution: the chosen pattern and its corpus statistics. */
final case class Solution(pat: Pat, fpr: Double, cov: Long)

/** Basic FMDV (§2.3): over the hypothesis space H(C) = ∩_{v∈C} P(v), return
  * argmin FPR_T(h) subject to FPR_T(h) ≤ r and Cov_T(h) ≥ m, using only the
  * offline index (no corpus rescan). Ties break toward higher coverage (more
  * corpus evidence), then toward the more specific pattern (same observed
  * FPR and evidence, strictly more issues caught), then a deterministic key
  * order.
  */
object Fmdv {

  /** [[best]] of `Enumerate.hypothesis(values)`, chosen in the index's
    * token ids without a `Pat` per candidate (DESIGN §8).
    */
  def solve(values: Seq[String], index: PatternIndex, cfg: FmdvConfig = FmdvConfig()): Option[Solution] = {
    val distinct = Enumerate.distinctValues(values)
    Enumerate.bestFrequent(distinct, distinct.size, index, cfg)
  }

  /** Select the best feasible pattern among candidates: the least of the
    * preference key (fpr, −cov, −specificity, key), i.e. the lowest FPR,
    * then the highest coverage, the most specific pattern and the least key.
    * Every solver chooses in the index's token ids (`Enumerate.best`); this
    * String-key form stays only for the benchmark's selection layer and as
    * `SelectionSpec`'s oracle for that choice.
    */
  def best(candidates: Seq[Pat], index: PatternIndex, cfg: FmdvConfig): Option[Solution] = {
    import Ordering.Double.TotalOrdering
    val feasible = for (h <- candidates; st <- index.lookup(h.key) if st.fpr <= cfg.r && st.cov >= cfg.m)
      yield Solution(h, st.fpr, st.cov)
    feasible.minByOption(s => (s.fpr, -s.cov, -s.pat.specificity, s.pat.key))
  }

  /** FMDV as a validation [[Method]] (strict matching, like the paper's
    * basic variant: a single non-conforming future value raises an alarm).
    */
  final class AsMethod(index: PatternIndex, cfg: FmdvConfig = FmdvConfig()) extends Method {
    val name = "FMDV"
    def learn(train: Seq[String]): Option[Rule] =
      solve(train, index, cfg).map(s => StrictPatternRule(name, s.pat))
  }
}
