package repro.core

import repro.core.Pattern.Pat
import repro.index.PatternIndex

/** FMDV-V (§3): vertical cuts for composite domains.
  *
  * Values are tokenized, MSA-aligned, and the aligned token positions are
  * segmented by the dynamic program of Eq. 11:
  *
  *   minFPR(C[s,e]) = min( FMDV(C[s,e]) treated as one column,
  *                         min_t minFPR(C[s,t]) + minFPR(C[t+1,e]) )
  *
  * Each segment spans at most τ tokens (longer candidates cannot exist in the
  * offline index), per-segment patterns come from plain FMDV, and the overall
  * solution is feasible when Σ FPR ≤ r (Eq. 9) with per-segment coverage ≥ m
  * (Eq. 10). The segment patterns concatenate into one validation pattern.
  */
object FmdvV {

  /** A solved segmentation: per-segment solutions, in order. */
  final case class VSolution(segments: Vector[Solution]) {
    def pattern: Pat = Pattern.concat(segments.map(_.pat))
    def totalFpr: Double = segments.map(_.fpr).sum
  }

  def solve(values: Seq[String], index: PatternIndex,
            cfg: FmdvConfig = FmdvConfig()): Option[VSolution] = {
    val vs = values.filter(v => v != null && v.nonEmpty).distinct
    if (vs.isEmpty) return None
    val aligned = Msa.alignValues(vs)
    val n = aligned.length

    def segmentFmdv(s: Int, e: Int): Option[Solution] = {
      val sub = aligned.segmentValues(s, e)
      if (sub.exists(_.isEmpty)) return None // a value has only gaps here
      // The segment is solvable as one column when its values fit under the
      // τ budget at either granularity (alnum-merged runs can compress an
      // aligned span far below its profile width — e.g. GUIDs, MACs).
      if (e - s + 1 > cfg.tau &&
          sub.exists(v => Tokens.effectiveTokenCount(v) > cfg.tau)) return None
      // Literal-delimiter rule: a segment of symbol tokens that is identical
      // across all values is a constant delimiter — future-safe by
      // construction (FPR 0). Real lakes index these from symbol-only
      // columns (null markers "-", separators); we shortcut the lookup so
      // the synthetic corpus does not need one column per delimiter string.
      val allSymbols = (s to e).forall(i => aligned.profile(i).cls == Tokens.Cls.Symbol)
      if (allSymbols && sub.distinct.size == 1)
        return Some(Solution(Pat(Vector(Pattern.ConstT(sub.head))), 0.0, Long.MaxValue))
      Fmdv.solve(sub, index, cfg)
    }

    // seg(s)(e): FMDV on the span [s, e], for each start s in order of end e
    val seg = Vector.tabulate(n, n)((s, e) => if (e < s) None else segmentFmdv(s, e))
    eq11(seg).map(VSolution(_)).filter(_.totalFpr <= cfg.r)
  }

  /** Eq. 11 over a segment table (`seg(s)(e)` for e ≥ s; cells with e < s
    * are not read): the segmentation of 0 … n−1 into defined cells with the
    * least Σ FPR, or None when no segmentation exists. Spans are solved
    * bottom-up by length; each starts from its whole-span cell, then tries
    * the splits t = s … e−1 left to right, and a split replaces the current
    * best only when its sum is strictly lower.
    */
  private[core] def eq11(seg: IndexedSeq[IndexedSeq[Option[Solution]]]): Option[Vector[Solution]] = {
    val n = seg.length
    // best(s)(e): the least Σ FPR over [s, e] and its segments
    val best = Array.fill(n, n)(Option.empty[(Double, Vector[Solution])])
    for (len <- 1 to n; s <- 0 to n - len) {
      val e = s + len - 1
      var b = seg(s)(e).map(sol => (sol.fpr, Vector(sol)))
      for (t <- s until e; (f1, p1) <- best(s)(t); (f2, p2) <- best(t + 1)(e))
        if (b.forall(_._1 > f1 + f2)) b = Some((f1 + f2, p1 ++ p2))
      best(s)(e) = b
    }
    best.headOption.flatMap(_.last).map(_._2)
  }

  /** FMDV-V as a strict validation [[Method]]. */
  final class AsMethod(index: PatternIndex, cfg: FmdvConfig = FmdvConfig(),
                       override val name: String = "FMDV-V") extends Method {
    def learn(train: Seq[String]): Option[Rule] =
      solve(train, index, cfg).map(s => StrictPatternRule(name, s.pattern))
  }
}
