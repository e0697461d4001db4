package repro.baselines

import repro.core.{Enumerate, Method, Rule, StrictPatternRule, Values}
import repro.core.Pattern._

/** Potter's Wheel pattern profiling (§5.2 "PWheel"): select the pattern that
  * minimizes description length (MDL) for the *observed* values — the
  * pattern-profiling objective the paper contrasts with data validation.
  *
  * MDL model: cost(pattern) + Σ_v cost(v | pattern), where literals encode
  * values for free, fixed-length classes cost n·log2|Σ|, variable-length
  * classes additionally pay a length code, and values a pattern fails to
  * cover pay a raw-string escape cost. MDL therefore prefers the most
  * *succinct* description of the sample — e.g. a constant "Mar" over
  * `<letter>{3}` — which is exactly what over-fits future data (Fig. 2).
  */
object PottersWheel {

  private val LenBits = 4.0       // length code for a VarLen token
  private val TokenHeaderBits = 8.0
  private val ConstCharBits = 6.0
  private val MissPenaltyBits = 48.0 // raw escape for an uncovered value

  def patternCost(p: Pat): Double = p.toks.map {
    case ConstT(t)    => TokenHeaderBits + ConstCharBits * t.length
    case FixLen(_, _) => TokenHeaderBits + LenBits
    case VarLen(_)    => TokenHeaderBits
  }.sum

  def valueCost(p: Pat, v: String): Double =
    if (!p.matches(v)) MissPenaltyBits
    else p.toks.map {
      case ConstT(_)      => 0.0
      case FixLen(cls, n) => n * cls.alphabetBits
      case VarLen(cls)    =>
        // approximate: average token length of the value spread over VarLens
        LenBits + cls.alphabetBits * math.max(1.0, v.length.toDouble / p.toks.length)
    }.sum

  def descriptionLength(p: Pat, values: Seq[String]): Double =
    patternCost(p) + values.map(v => valueCost(p, v)).sum

  /** Profile a column: the MDL-minimal pattern among the hypothesis space,
    * falling back to high-coverage patterns when the column is not perfectly
    * homogeneous. None when no non-trivial pattern covers ≥90% of values.
    */
  def profile(values: Seq[String]): Option[Pat] = {
    // profilers sample; capping keeps schema-matching-augmented inputs cheap
    val vs = values.iterator.filterNot(Values.isMissing).take(400).toVector
    if (vs.isEmpty) return None
    val exact = Enumerate.hypothesis(vs)
    val candidates =
      if (exact.nonEmpty) exact
      else Enumerate.frequentPatterns(vs, math.ceil(0.9 * vs.size).toInt).map(_._1)
    if (candidates.isEmpty) None
    else Some(candidates.minBy(p => (descriptionLength(p, vs), p.key)))
  }

  /** PWheel as a validation method: the profiled pattern used as a strict
    * validation rule (the paper's baseline usage).
    */
  final class AsMethod extends Method {
    val name = "PWheel"
    def learn(train: Seq[String]): Option[Rule] =
      profile(train).map(p => StrictPatternRule(name, p))
  }
}
