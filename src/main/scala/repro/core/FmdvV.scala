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
  * The segment table `seg(s)(e)` is filled by one [[Segments]] per solve
  * rather than one `Fmdv.solve` per span: each value's
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
    // seg(s)(e): FMDV on the span [s, e], for each start s in order of end e
    val seg = Vector.tabulate(n, n)((s, e) => if (e < s) None else segments.fmdv(s, e))
    eq11(seg).map(VSolution(_)).filter(_.totalFpr <= cfg.r)
  }

  /** FMDV on the spans of one aligned column, from its values' option tables.
    *
    * A span's sub-value of value v is a run of v's fine tokens (a row's
    * non-gap cells), so its option lists are those of the run in v's
    * [[Enumerate.ValueOptions]] table. All values' tables share one
    * interner, so each (value, token, pruning level) option list is
    * interned once for every span that holds the token. A span's
    * sub-values are grouped by run shape (`Enumerate.group`), and each
    * group's lists are built, filtered and walked once.
    *
    * Before H(C) is counted, an option is dropped when no index key of its
    * list's length holds it at its position (`PatternIndex.slotsOf`): a
    * pattern with such a token is not a key, and every token of a key in
    * P(v) keeps its option, so the cell's H(C) shrinks only by non-keys.
    * That holds only because the table chooses the pruning level first, on
    * the unfiltered product; the level chosen on the filtered product could
    * differ, and so could P(v).
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
    /** slots(id): where the index's keys hold interned token id. */
    private val slots = collection.mutable.ArrayBuffer.empty[collection.BitSet]

    private def admits(id: Int, len: Int, d: Int): Boolean = {
      while (slots.size <= id) slots += index.slotsOf(in.tokenOf(slots.size))
      slots(id).contains(PatternIndex.slot(len, d))
    }

    /** `list` with each option that no key holds at its slot dropped, or
      * null once a position has none left.
      */
    private def keyable(list: Array[Array[Int]]): Array[Array[Int]] = {
      val len = list.length
      val out = new Array[Array[Int]](len)
      var d = 0
      while (d < len) {
        val o = list(d)
        var kept = 0
        var j = 0
        while (j < o.length) { if (admits(o(j), len, d)) kept += 1; j += 1 }
        if (kept == 0) return null
        out(d) = if (kept == o.length) o else o.filter(admits(_, len, d))
        d += 1
      }
      out
    }

    private val shapes = new Enumerate.Shapes(cfg.tau, cfg.cap)
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

    /** 1 + (1 when [[keyless]]) for each plan id, 0 until known. */
    private var keylessAt = new Array[Byte](64)

    /** True when plan p has no list in which each position has an option
      * that some key holds there, a literal slot counting as one: then no
      * run of p has an index key in P(v), whatever its literals.
      */
    private def keyless(p: Int): Boolean = {
      if (p >= keylessAt.length) keylessAt = java.util.Arrays.copyOf(keylessAt, 2 * p + 2)
      if (keylessAt(p) == 0) {
        val plan = shapes(p)
        def isSlot(l: Int, d: Int) = plan.slots.indices.exists(i => i % 3 == 0 && plan.slots(i) == l && plan.slots(i + 1) == d)
        val alive = plan.lists.indices.exists { l =>
          val list = plan.lists(l)
          list.indices.forall(d => list(d).exists(admits(_, list.length, d)) || isSlot(l, d))
        }
        keylessAt(p) = if (alive) 1 else 2
      }
      keylessAt(p) == 2
    }

    /** Each value's first token in span [s, e], or None when a value has
      * only gaps in it.
      */
    private def span(s: Int, e: Int): Option[Array[Int]] = {
      val as = Array.tabulate(vals.length)(i => first(i)(s))
      if (vals.indices.exists(i => as(i) > last(i)(e))) None else Some(as)
    }

    /** The H(C) of span [s, e]'s sub-values (from their first tokens
      * `as`), as `Enumerate.hypothesis` counts it, less patterns that
      * cannot be index keys; empty when no key is in some sub-value's P(v).
      * The sub-values are grouped at H(C)'s threshold (`Enumerate.group`;
      * equal sub-values fall into one group), and each group's lists are
      * filtered and walked once.
      */
    private def hypothesis(e: Int, as: Array[Int]): Vector[Pat] = {
      val plans = new Array[Int](vals.length)
      for (i <- vals.indices) {
        plans(i) = planId(i, as(i), last(i)(e))
        if (keyless(plans(i))) return Vector.empty
      }
      val g = Enumerate.group(vals, as, Array.fill(vals.length)(1), plans, shapes, vals.length, cfg.tau)
      val kept = g.lists.iterator.map(_.map(keyable).filter(_ != null)).takeWhile(_.nonEmpty).toArray
      if (kept.length < g.lists.length) Vector.empty else Enumerate.hypothesisOf(g.ms, kept, vals.length, in, cfg.tau)
    }

    /** [[hypothesis]] of span [s, e]; empty at a gap. */
    private[core] def hypothesis(s: Int, e: Int): Vector[Pat] =
      span(s, e).fold(Vector.empty[Pat])(hypothesis(e, _))

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
      else Fmdv.best(hypothesis(e, as), index, cfg)
    }
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
