package repro.core

import repro.core.Pattern.Pat
import repro.core.Tokens.Tok
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
  * The segment table `seg(s)(e)` is filled from one [[Segments]] option
  * table per solve rather than one `Fmdv.solve` per span: each value is
  * lexed once, and each token's options are interned once for every span
  * that holds the token. A span's H(C) leaves out patterns that cannot be
  * index keys, which `Fmdv.best` could not pick anyway, so every cell
  * chooses what `Fmdv.solve` on the span's values would.
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

  /** FMDV on the spans of one aligned column, from one option table.
    *
    * A span's sub-value of value v is a run of v's fine tokens (a row's
    * non-gap cells), so its fine tokens are that slice of v's tokens and
    * its merged tokens are the maximal digit/letter stretches inside the
    * slice. Each (value, token, pruning level) option list is interned
    * once, into one interner that all spans share, and each span's fine,
    * merged and skeleton lists are assembled from these as
    * `Enumerate.hypothesis` builds them from the sub-values.
    *
    * Before H(C) is counted, an option is dropped when no index key of its
    * list's length holds it at its position (`PatternIndex.slotsOf`): a
    * pattern with such a token is not a key, and every token of a key in
    * P(v) keeps its option, so the cell's H(C) shrinks only by non-keys.
    * That holds only because the pruning level is chosen first, on the
    * unfiltered product, exactly as for the sub-value itself; the level
    * chosen on the filtered product could differ, and so could P(v).
    */
  private[core] final class Segments(vs: IndexedSeq[String], aligned: Msa.Aligned, index: PatternIndex,
                                     cfg: FmdvConfig) {
    private val in = new Enumerate.Interner
    private val toks: Array[Vector[Tok]] = vs.map(Tokens.tokenize).toArray
    /** from(i)(k): the offset of value i's token k in it; from(i)(#tokens) is its length. */
    private val from: Array[Array[Int]] = toks.map(_.scanLeft(0)(_ + _.len).toArray)
    /** first(i)(j) / last(i)(j): value i's first token at a position ≥ j / last at a position ≤ j (−1 if none). */
    private val (first, last) = {
      val atPos = aligned.matrix.map { row =>
        var k = -1
        row.map(cell => if (cell.isEmpty) -1 else { k += 1; k }).toArray
      }.toArray
      (atPos.zip(toks).map { case (at, ts) => at.scanRight(ts.length)((k, next) => if (k >= 0) k else next) },
       atPos.map(at => at.scanLeft(-1)((prev, k) => if (k >= 0) k else prev).tail))
    }
    /** runEnd(i)(k): the last token of the digit/letter stretch of value i that holds token k. */
    private val runEnd: Array[Array[Int]] = toks.map { ts =>
      ts.indices.scanRight(ts.length - 1) { (k, next) =>
        if (k + 1 < ts.length && !isSym(ts, k) && !isSym(ts, k + 1)) next else k
      }.init.toArray
    }
    /** opts(i)(k)(level): token k's interned options at pruning levels 0–3;
      * level 4 keeps only level 3's first option (the cap's last resort).
      */
    private val opts: Array[Array[Array[Array[Int]]]] = toks.map(ts => Array.fill(ts.length)(new Array[Array[Int]](5)))
    /** The `<alnum>{len}`, `<alnum>+` options of merged runs, and the first alone. */
    private val alnums = collection.mutable.HashMap.empty[Int, Array[Array[Int]]]
    /** slots(id): where the index's keys hold interned token id. */
    private val slots = collection.mutable.ArrayBuffer.empty[collection.BitSet]

    private def isSym(ts: Vector[Tok], k: Int): Boolean = ts(k).cls == Tokens.Cls.Symbol

    private def fine(i: Int, k: Int, level: Int): Array[Int] = {
      val o = opts(i)(k)
      if (o(level) == null)
        o(level) = if (level == 4) Array(fine(i, k, 3)(0)) else in.idsOf(Hierarchy.optionsPruned(toks(i)(k), level))
      o(level)
    }

    private def alnum(len: Int, head: Boolean): Array[Int] = {
      val o = alnums.getOrElseUpdate(len, {
        val both = in.idsOf(Vector(Pattern.FixLen(Pattern.GClass.Alnum, len), Pattern.VarLen(Pattern.GClass.Alnum)))
        Array(both, Array(both(0)))
      })
      if (head) o(1) else o(0)
    }

    /** The options of value i's merged token of fine tokens a … b. */
    private def merged(i: Int, a: Int, b: Int, level: Int): Array[Int] =
      if (a == b) fine(i, a, level) else alnum(from(i)(b + 1) - from(i)(a), level == 4)

    /** The skeleton options of value i's merged token of fine tokens a … b. */
    private def skeleton(i: Int, a: Int, b: Int): Array[Int] =
      if (isSym(toks(i), a)) fine(i, a, 0) else alnum(from(i)(b + 1) - from(i)(a), head = false)

    /** The pruning level that `Enumerate.prunedOptions` chooses for `len`
      * positions with options `at(d, level)` (4 for its first-option
      * fallback).
      */
    private def levelOf(len: Int, at: (Int, Int) => Array[Int]): Int = {
      def product(level: Int): Long = {
        var acc = 1L
        var d = 0
        while (d < len) { acc = math.min(Long.MaxValue / 2, acc * at(d, level).length); d += 1 }
        acc
      }
      var level = 0
      while (level < 4 && product(level) > cfg.cap) level += 1
      level
    }

    private def admits(id: Int, len: Int, d: Int): Boolean = {
      while (slots.size <= id) slots += index.slotsOf(in.tokenOf(slots.size))
      slots(id).contains(PatternIndex.slot(len, d))
    }

    /** The list of `len` positions with each option that no key holds at
      * its slot dropped, or null once a position has none left.
      */
    private def keyable(len: Int, at: Int => Array[Int]): Array[Array[Int]] = {
      val out = new Array[Array[Int]](len)
      var d = 0
      while (d < len) {
        val o = at(d)
        var kept = 0
        var j = 0
        while (j < o.length) { if (admits(o(j), len, d)) kept += 1; j += 1 }
        if (kept == 0) return null
        out(d) = if (kept == o.length) o else o.filter(admits(_, len, d))
        d += 1
      }
      out
    }

    /** The distinct sub-values of span [s, e]: value rows(r)'s fine tokens
      * a(r) … b(r), whose merged tokens are the fine-token runs
      * mFrom(r)(m) … mTo(r)(m).
      */
    private final class Span(val rows: Array[Int], s: Int, e: Int) {
      val a: Array[Int] = rows.map(first(_)(s))
      val b: Array[Int] = rows.map(last(_)(e))
      val (mFrom, mTo) = rows.indices.map(r => runs(rows(r), a(r), b(r))).toArray.unzip
    }

    private def text(i: Int, a: Int, b: Int): String = vs(i).substring(from(i)(a), from(i)(b + 1))

    /** The merged tokens of value i's fine tokens a … b, as runs of them. */
    private def runs(i: Int, a: Int, b: Int): (Array[Int], Array[Int]) = {
      val (starts, ends) = (Array.newBuilder[Int], Array.newBuilder[Int])
      var k = a
      while (k <= b) {
        val end = math.min(runEnd(i)(k), b)
        starts += k; ends += end
        k = end + 1
      }
      (starts.result(), ends.result())
    }

    /** Span [s, e], or None when a value has only gaps in it. */
    private def span(s: Int, e: Int): Option[Span] = {
      val seen = new java.util.HashSet[String]
      val rows = Array.newBuilder[Int]
      var i = 0
      while (i < toks.length) {
        if (first(i)(s) > last(i)(e)) return None
        if (seen.add(text(i, first(i)(s), last(i)(e)))) rows += i
        i += 1
      }
      Some(new Span(rows.result(), s, e))
    }

    /** The span's H(C), as `Enumerate.hypothesis` on its distinct
      * sub-values counts it, less patterns that cannot be index keys; empty
      * when no key is in some sub-value's P(v).
      */
    private def hypothesis(sp: Span): Vector[Pat] = {
      val lists = new Array[Enumerate.OptionIds](sp.rows.length)
      for (r <- sp.rows.indices) {
        val (i, a, ms, mt) = (sp.rows(r), sp.a(r), sp.mFrom(r), sp.mTo(r))
        val nFine = sp.b(r) - a + 1
        val out = Array.newBuilder[Array[Array[Int]]]
        def add(l: Array[Array[Int]]): Unit = if (l != null) out += l
        if (nFine <= cfg.tau) {
          val level = levelOf(nFine, (d, lv) => fine(i, a + d, lv))
          add(keyable(nFine, d => fine(i, a + d, level)))
        }
        if (ms.length <= cfg.tau && ms.indices.exists(m => mt(m) > ms(m))) {
          val level = levelOf(ms.length, (m, lv) => merged(i, ms(m), mt(m), lv))
          add(keyable(ms.length, m => merged(i, ms(m), mt(m), level)))
        }
        if (ms.length <= cfg.tau) add(keyable(ms.length, m => skeleton(i, ms(m), mt(m))))
        lists(r) = out.result()
        if (lists(r).isEmpty) return Vector.empty
      }
      Enumerate.hypothesisOf(lists, in, cfg.tau)
    }

    /** [[hypothesis]] of span [s, e]; empty at a gap. */
    private[core] def hypothesis(s: Int, e: Int): Vector[Pat] =
      span(s, e).fold(Vector.empty[Pat])(hypothesis)

    /** FMDV on the sub-values of span [s, e], as `Fmdv.solve` would choose
      * on them, behind the gap, τ and literal-delimiter checks.
      */
    def fmdv(s: Int, e: Int): Option[Solution] = span(s, e).flatMap { sp =>
      // The segment is solvable as one column when its values fit under the
      // τ budget at either granularity (alnum-merged runs can compress an
      // aligned span far below its profile width — e.g. GUIDs, MACs).
      if (e - s + 1 > cfg.tau && sp.mFrom.exists(_.length > cfg.tau)) None
      // Literal-delimiter rule: a segment of symbol tokens that is identical
      // across all values is a constant delimiter — future-safe by
      // construction (FPR 0). Real lakes index these from symbol-only
      // columns (null markers "-", separators); we shortcut the lookup so
      // the synthetic corpus does not need one column per delimiter string.
      else if (sp.rows.length == 1 && (s to e).forall(j => aligned.profile(j).cls == Tokens.Cls.Symbol))
        Some(Solution(Pat(Vector(Pattern.ConstT(text(sp.rows(0), sp.a(0), sp.b(0))))), 0.0, Long.MaxValue))
      else Fmdv.best(hypothesis(sp), index, cfg)
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
