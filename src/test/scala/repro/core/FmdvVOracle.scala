package repro.core

import repro.core.Pattern.Pat
import repro.index.PatternIndex

/** FMDV-V with the per-span fill that [[FmdvV.Segments]] replaces:
  * `Fmdv.best` of each span's sub-values' H(C), behind the same gap, τ and
  * literal-delimiter checks, every cell solved, and Eq. 11 bottom-up over
  * the table ([[Eq11Oracle]]).
  */
object FmdvVOracle {

  def solve(values: Seq[String], index: PatternIndex,
            cfg: FmdvConfig = FmdvConfig()): Option[FmdvV.VSolution] = {
    val vs = values.filter(v => v != null && v.nonEmpty).distinct
    if (vs.isEmpty) return None
    val aligned = Msa.alignValues(vs)
    val n = aligned.length

    def segmentFmdv(s: Int, e: Int): Option[Solution] = {
      val sub = aligned.segmentValues(s, e)
      if (sub.exists(_.isEmpty)) return None
      if (e - s + 1 > cfg.tau &&
          sub.exists(v => Tokens.effectiveTokenCount(v) > cfg.tau)) return None
      val allSymbols = (s to e).forall(i => aligned.profile(i).cls == Tokens.Cls.Symbol)
      if (allSymbols && sub.distinct.size == 1)
        return Some(Solution(Pat(Vector(Pattern.ConstT(sub.head))), 0.0, Long.MaxValue))
      Fmdv.best(Enumerate.hypothesis(sub, cfg.tau, cfg.cap), index, cfg)
    }

    val seg = Vector.tabulate(n, n)((s, e) => if (e < s) None else segmentFmdv(s, e))
    Eq11Oracle.eq11(seg).map(FmdvV.VSolution(_)).filter(_.totalFpr <= cfg.r)
  }
}
