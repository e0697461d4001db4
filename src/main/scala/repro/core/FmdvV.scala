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
  *
  * The segment cells are solved by one [[Segments]] per solve rather than
  * one `Fmdv.solve` per span, and only those that Eq. 11 reads: each value's
  * `Enumerate.ValueOptions` table lexes it once and interns each token's
  * options once for every span that holds the token. A span's H(C) leaves
  * out patterns that cannot be index keys, which `Fmdv.best` could not pick
  * anyway, so every cell chooses what `Fmdv.solve` on the span's values
  * would.
  */
object FmdvV {

  /** A solved segmentation: per-segment solutions, in order. */
  final case class VSolution(segments: Vector[Solution]) {
    def pattern: Pat = Pattern.concat(segments.map(_.pat))
    def totalFpr: Double = segments.map(_.fpr).sum
  }

  def solve(values: Seq[String], index: PatternIndex,
            cfg: FmdvConfig = FmdvConfig()): Option[VSolution] = {
    val vs = values.filter(v => v != null && v.nonEmpty).distinct.toVector
    if (vs.isEmpty) return None
    val aligned = Msa.alignValues(vs)
    val n = aligned.length
    val segments = new Segments(vs, aligned, index, cfg)
    eq11(n, segments.fmdv).map(VSolution(_)).filter(_.totalFpr <= cfg.r)
  }

  /** FMDV on the spans of one aligned column, from its values' option tables.
    *
    * A span's sub-value of value v is a run of v's fine tokens (a row's
    * non-gap cells), so its option lists are those of the run in v's
    * [[Enumerate.ValueOptions]] table. All values' tables share one
    * interner, so each (value, token, pruning level) option list is
    * interned once for every span that holds the token. Each cell counts
    * its sub-values' support (`Enumerate.groups`) in one `Shapes` for all
    * cells, which admits only the options that some index key holds at
    * their (list length, position): every token of a key in P(v) is
    * admitted, so the cell's H(C) loses only non-keys.
    * That holds only because the pruning level is chosen first, on the
    * unfiltered product; chosen on the filtered one, it could differ, and
    * so could P(v).
    */
  private[core] final class Segments(vs: IndexedSeq[String], aligned: Msa.Aligned, index: PatternIndex,
                                     cfg: FmdvConfig) {
    private val in = new Enumerate.Interner
    private val vals: Array[Enumerate.ValueOptions] = vs.map(new Enumerate.ValueOptions(_, in)).toArray
    /** first(i)(j) / last(i)(j): value i's first token at a position ≥ j / last at a position ≤ j (−1 if none). */
    private val (first, last) = {
      val atPos = aligned.matrix.map { row =>
        var k = -1
        row.map(cell => if (cell.isEmpty) -1 else { k += 1; k }).toArray
      }.toArray
      (atPos.zip(vals).map { case (at, v) => at.scanRight(v.length)((k, next) => if (k >= 0) k else next) },
       atPos.map(at => at.scanLeft(-1)((prev, k) => if (k >= 0) k else prev).tail))
    }

    private val shapes = new Enumerate.Shapes(cfg.tau, cfg.cap, in, index)
    /** nodes(i)(a)(b − a): the `shapes` node of value i's fine tokens a … b,
      * filled for every b on first use.
      */
    private val nodes: Array[Array[Array[Int]]] = vals.map(v => new Array[Array[Int]](v.length))

    private def planId(i: Int, a: Int, b: Int): Int = {
      val v = vals(i)
      if (nodes(i)(a) == null) {
        val ns = new Array[Int](v.length - a)
        var (node, k) = (0, a)
        while (k < v.length) { node = shapes.extend(node, v, k); ns(k - a) = node; k += 1 }
        nodes(i)(a) = ns
      }
      shapes.planId(nodes(i)(a)(b - a), v, a, b)
    }

    /** Each value's first token in span [s, e], or None when a value has
      * only gaps in it.
      */
    private def span(s: Int, e: Int): Option[Array[Int]] = {
      val as = Array.tabulate(vals.length)(i => first(i)(s))
      if (vals.indices.exists(i => as(i) > last(i)(e))) None else Some(as)
    }

    /** The support count of span [s, e]'s sub-values (from their first
      * tokens `as`) at H(C)'s threshold, admitting only index keys; it stops
      * at the first sub-value whose plan is keyless. Equal sub-values fall
      * into one group.
      */
    private def groups(e: Int, as: Array[Int]): Enumerate.Groups =
      Enumerate.groups(vals, as, Array.fill(vals.length)(1), i => planId(i, as(i), last(i)(e)), shapes, vals.length)

    /** The H(C) of span [s, e]'s sub-values, as `Enumerate.hypothesis`
      * counts it, less patterns that cannot be index keys; empty at a gap.
      */
    private[core] def hypothesis(s: Int, e: Int): Vector[Pat] =
      span(s, e).fold(Vector.empty[Pat])(as => Enumerate.count(in, groups(e, as), vals.length).map(_._1))

    /** FMDV on the sub-values of span [s, e], as `Fmdv.solve` would choose
      * on them, behind the gap, τ and literal-delimiter checks.
      */
    def fmdv(s: Int, e: Int): Option[Solution] = span(s, e).flatMap { as =>
      // The segment is solvable as one column when its values fit under the
      // τ budget at either granularity (alnum-merged runs can compress an
      // aligned span far below its profile width — e.g. GUIDs, MACs). A
      // sub-value that fits at neither has no option lists, so the segment
      // gets neither a literal nor an H(C).
      // Literal-delimiter rule: a segment of symbol tokens that is identical
      // across all values is a constant delimiter — future-safe by
      // construction (FPR 0). Real lakes index these from symbol-only
      // columns (null markers "-", separators); we shortcut the lookup so
      // the synthetic corpus does not need one column per delimiter string.
      def text(i: Int) = vals(i).text(as(i), last(i)(e))
      if ((s to e).forall(j => aligned.profile(j).cls == Tokens.Cls.Symbol) &&
          shapes(planId(0, as(0), last(0)(e))).lists.nonEmpty && vals.indices.forall(i => text(i) == text(0)))
        Some(Solution(Pat(Vector(Pattern.ConstT(text(0)))), 0.0, Long.MaxValue))
      else Enumerate.best(in, groups(e, as), vals.length, index, cfg)
    }
  }

  /** Eq. 11 over the cells `cell(s, e)` (s ≤ e) of positions 0 … n−1: the
    * segmentation into defined cells with the least Σ FPR, or None when no
    * segmentation exists. A span starts from its whole-span cell, then
    * tries the splits t = s … e−1 left to right, and a split replaces the
    * current best only when its sum is strictly lower. Spans are solved
    * top-down, each once, and a split's right part only when its left
    * part's FPR is below the current best: FPRs are ≥ 0, so a left part at
    * or above it cannot make a lower sum (DESIGN §8). Each cell is asked
    * for at most once.
    */
  private[core] def eq11(n: Int, cell: (Int, Int) => Option[Solution]): Option[Vector[Solution]] = {
    // best(s)(e): the least Σ FPR over [s, e] and its segments, null until solved
    val best = Array.ofDim[Option[(Double, Vector[Solution])]](n, n)
    def go(s: Int, e: Int): Option[(Double, Vector[Solution])] = {
      if (best(s)(e) == null) {
        var b = cell(s, e).map(sol => (sol.fpr, Vector(sol)))
        for (t <- s until e; (f1, p1) <- go(s, t) if b.forall(_._1 > f1); (f2, p2) <- go(t + 1, e))
          if (b.forall(_._1 > f1 + f2)) b = Some((f1 + f2, p1 ++ p2))
        best(s)(e) = b
      }
      best(s)(e)
    }
    if (n == 0) None else go(0, n - 1).map(_._2)
  }

  /** FMDV-V as a strict validation [[Method]]. */
  final class AsMethod(index: PatternIndex, cfg: FmdvConfig = FmdvConfig(),
                       override val name: String = "FMDV-V") extends Method {
    def learn(train: Seq[String]): Option[Rule] =
      solve(train, index, cfg).map(s => StrictPatternRule(name, s.pattern))
  }
}
