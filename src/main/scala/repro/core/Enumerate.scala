package repro.core

import repro.core.Pattern._
import repro.core.Tokens.{Tok, Cls}

/** Pattern enumeration (§2.1, Algorithm 1).
  *
  * `patternsOf(v)` is P(v): every pattern consistent with value v under the
  * hierarchy — the cross-product of per-token generalization options, at two
  * granularities (fine runs and merged alnum runs), plus the alnum skeleton.
  * `hypothesis(values)` is H(C) = ∩ P(v), the hypothesis space of a column
  * (trivial ".*" excluded by construction — it is not in the language).
  *
  * Values wider than `tau` tokens are not enumerated (paper §2.4: wide
  * columns are skipped at indexing and recovered via vertical cuts). If a
  * granularity's cross-product would exceed `cap`, its options are pruned
  * (literals first, then fixed lengths) so enumeration stays tractable.
  *
  * Every entry point runs on one [[Counter]]: the cross-products are walked
  * down a prefix trie of interned token ids, and a `Pat` is built only for
  * the trie nodes whose count reaches the caller's threshold (for H(C),
  * every distinct value).
  */
object Enumerate {

  /** Default maximum tokens per enumerated value (paper uses 8 or 13; its
    * main results use 13, with 8 swept in the sensitivity analysis).
    */
  val DefaultTau = 13
  /** Default cap on each granularity's cross-product (fine and merged are
    * capped separately, so |P(v)| itself can exceed it).
    */
  val DefaultCap = 8192

  private def productSize(opts: Vector[Vector[PTok]]): Long =
    opts.foldLeft(1L)((acc, o) => math.min(Long.MaxValue / 2, acc * o.length))

  /** Per-token options of one granularity, pruned level by level until the
    * cross-product fits under `cap`; past level 3, only each token's first
    * remaining option is kept (a single pattern).
    */
  private def prunedOptions(toks: Vector[Tok], cap: Int): Vector[Vector[PTok]] = {
    var level = 0
    var opts = toks.map(t => Hierarchy.optionsPruned(t, level))
    while (productSize(opts) > cap && level < 3) {
      level += 1
      opts = toks.map(t => Hierarchy.optionsPruned(t, level))
    }
    if (productSize(opts) > cap) opts.map(o => Vector(o.head)) else opts
  }

  /** Alnum-skeleton options: every digit/letter/merged run generalizes only
    * to `<alnum>{n}` / `<alnum>+` (symbols stay literal). At most 2^tokens
    * patterns, so it survives for every value under τ regardless of cap
    * pruning — which is what keeps H(C) non-empty on hex-like columns whose
    * values tokenize differently (all-digit octets vs mixed ones).
    */
  private def skeletonOptions(toks: Vector[Tok]): Vector[Vector[PTok]] =
    toks.map { t =>
      t.cls match {
        case Cls.Symbol => Vector[PTok](ConstT(t.text))
        case _ => Vector[PTok](FixLen(GClass.Alnum, t.len), VarLen(GClass.Alnum))
      }
    }

  /** The option lists whose cross-products make up P(v): fine, merged and
    * skeleton, each only when its granularity fits under τ. Empty for
    * null/empty values.
    */
  private def optionLists(v: String, tau: Int, cap: Int): Seq[Vector[Vector[PTok]]] = {
    if (v == null || v.isEmpty) return Nil
    val fine = Tokens.tokenize(v)
    val merged = Tokens.tokenizeMerged(v)
    val out = Seq.newBuilder[Vector[Vector[PTok]]]
    if (fine.length <= tau) out += prunedOptions(fine, cap)
    if (merged.length <= tau && merged.exists(_.cls == Cls.Alnum)) out += prunedOptions(merged, cap)
    if (merged.length <= tau) out += skeletonOptions(merged)
    out.result()
  }

  /** One value's option lists as interned token ids: list × position ×
    * option.
    */
  private type OptionIds = Array[Array[Array[Int]]]

  /** An open-addressing map from `Long` keys (≥ 0) to dense ids 0, 1, 2, …
    * handed out in insertion order, so callers keep per-key values in plain
    * arrays indexed by id. Keys and ids lie side by side, so a probe touches
    * one cache line. Starts small and doubles when half full, since one
    * solve often counts only a few short values.
    */
  private final class IdMap {
    private var bits = 7
    private var slots = emptySlots(bits)
    private var n = 0

    private def emptySlots(bits: Int): Array[Long] = {
      val a = new Array[Long](2 << bits)
      java.util.Arrays.fill(a, -1L)
      a
    }

    def size: Int = n

    private def find(key: Long): Int = {
      val mask = (1 << bits) - 1
      var i = ((key * 0x9E3779B97F4A7C15L) >>> (64 - bits)).toInt
      while (slots(2 * i) != -1L && slots(2 * i) != key) i = (i + 1) & mask
      i
    }

    /** The id of `key`, or -1 when absent. */
    def get(key: Long): Int = {
      val i = find(key)
      if (slots(2 * i) == -1L) -1 else slots(2 * i + 1).toInt
    }

    /** The id of `key`; an absent key gets the next id. */
    def getOrAdd(key: Long): Int = {
      var i = find(key)
      if (slots(2 * i) == -1L) {
        if (2 * (n + 1) > (1 << bits)) { grow(); i = find(key) }
        slots(2 * i) = key; slots(2 * i + 1) = n; n += 1
      }
      slots(2 * i + 1).toInt
    }

    private def grow(): Unit = {
      val old = slots
      bits += 1
      slots = emptySlots(bits)
      var j = 0
      while (j < old.length) {
        if (old(j) != -1L) {
          val i = find(old(j))
          slots(2 * i) = old(j); slots(2 * i + 1) = old(j + 1)
        }
        j += 2
      }
    }
  }

  /** Counts P(v) over the values of one column without materialising a
    * pattern per value. Option tokens are interned to `Int` ids; each
    * cross-product is walked depth-first down a prefix trie of those ids.
    * A node that ends a pattern keeps a count and the index of the last
    * value that reached it, so a pattern reached twice from one value (from
    * fine and from skeleton, say) counts once, with that value's
    * multiplicity. The trie's edges live in an [[IdMap]] keyed by
    * (parent id, token id): an edge is added exactly when its child is
    * created, so edge id i leads to node i + 1, and fan-out is unbounded.
    */
  private final class Counter(tau: Int, cap: Int) {
    private val tokIds = new java.util.HashMap[PTok, Integer]
    private val tokens = collection.mutable.ArrayBuffer.empty[PTok]

    // node 0 is the root (the empty prefix)
    private val edges = new IdMap
    private var parent = new Array[Int](64)
    private var tokOf = new Array[Int](64)
    private var count = new Array[Int](64)
    private var stamp = new Array[Int](64)
    java.util.Arrays.fill(stamp, -1)
    private var ends = new Array[Int](64)
    private var nEnds = 0

    private var round = -1
    private var mult = 1

    private def idOf(t: PTok): Int = {
      val id = tokIds.get(t)
      if (id != null) id.intValue
      else { tokIds.put(t, tokens.size); tokens += t; tokens.size - 1 }
    }

    def tokenOf(id: Int): PTok = tokens(id)

    /** v's option lists (fine, merged, skeleton), interned. */
    def optionIds(v: String): OptionIds = {
      val lists = optionLists(v, tau, cap)
      val out = new OptionIds(lists.size)
      var l = 0
      for (opts <- lists) {
        val ids = new Array[Array[Int]](opts.length)
        var d = 0
        while (d < ids.length) {
          val o = opts(d)
          val a = new Array[Int](o.length)
          var i = 0
          while (i < a.length) { a(i) = idOf(o(i)); i += 1 }
          ids(d) = a
          d += 1
        }
        out(l) = ids
        l += 1
      }
      out
    }

    /** The child of `node` along `tok`, created when absent. */
    private def child(node: Int, tok: Int): Int = {
      val before = edges.size
      val c = edges.getOrAdd((node.toLong << 32) | tok) + 1
      if (c > before) {
        if (c == parent.length) {
          val n = c * 2
          parent = java.util.Arrays.copyOf(parent, n)
          tokOf = java.util.Arrays.copyOf(tokOf, n)
          count = java.util.Arrays.copyOf(count, n)
          stamp = java.util.Arrays.copyOf(stamp, n)
          java.util.Arrays.fill(stamp, c, n, -1)
        }
        parent(c) = node; tokOf(c) = tok
      }
      c
    }

    private def walk(opts: Array[Array[Int]], depth: Int, node: Int): Unit =
      if (depth == opts.length) reach(node)
      else {
        val o = opts(depth)
        var i = 0
        while (i < o.length) { walk(opts, depth + 1, child(node, o(i))); i += 1 }
      }

    private def reach(node: Int): Unit =
      if (stamp(node) != round) {
        if (stamp(node) < 0) {
          if (nEnds == ends.length) ends = java.util.Arrays.copyOf(ends, nEnds * 2)
          ends(nEnds) = node; nEnds += 1
        }
        stamp(node) = round
        count(node) += mult
      }

    /** Adds every pattern of the option lists' cross-products, `m` times. */
    def add(lists: OptionIds, m: Int): Unit = {
      round += 1; mult = m
      var l = 0
      while (l < lists.length) { walk(lists(l), 0, 0); l += 1 }
    }

    private def patOf(node: Int): Pat = {
      var depth = 0
      var a = node
      while (a != 0) { depth += 1; a = parent(a) }
      val ts = new Array[PTok](depth)
      a = node
      while (a != 0) { depth -= 1; ts(depth) = tokens(tokOf(a)); a = parent(a) }
      Pat(ts.toVector)
    }

    /** Patterns counted at least `minCount` times, with their counts, in
      * the order they were first reached.
      */
    def survivors(minCount: Int): Vector[(Pat, Int)] = {
      val out = Vector.newBuilder[(Pat, Int)]
      var i = 0
      while (i < nEnds) {
        val n = ends(i)
        if (count(n) >= minCount) out += ((patOf(n), count(n)))
        i += 1
      }
      out.result()
    }
  }

  /** Bound on τ for the pre-filter: a list's length and position must fit
    * in the 31 bits above a token id in an [[OptionCounts]] key.
    */
  private val MaxKeyedLength = 1 << 15

  /** The exact option pre-filter of [[frequentPatterns]] (Apriori's
    * anti-monotone support bound, per list length and position). Counts,
    * for every key (list length L, position d, token id t), the values that
    * have t among their options at d of some option list of length L —
    * each value once per key, with its multiplicity. A pattern of length L
    * counted `minCount` times needs each of its tokens to reach `minCount`
    * at its (L, d), so dropping the options below that, and the lists left
    * with an empty position, changes no survivor, no count and no
    * first-reached order.
    */
  private final class OptionCounts {
    private val ids = new IdMap
    private var counts = new Array[Int](64)
    /** 1 + index of the last value counted under the key. */
    private var lastValue = new Array[Int](64)

    private def key(len: Int, d: Int, tok: Int): Long =
      (len.toLong << 48) | (d.toLong << 32) | tok

    /** Counts value number `v` (from 0), of multiplicity `m`. True when
      * one of its lists has, at every position, an option counted at least
      * `need` times so far; otherwise, with `need` = minCount − the
      * multiplicity still to be counted, the value is in no frequent
      * pattern.
      */
    def add(lists: OptionIds, m: Int, v: Int, need: Int): Boolean = {
      var alive = false
      var l = 0
      while (l < lists.length) {
        val opts = lists(l)
        var full = true
        var d = 0
        while (d < opts.length) {
          val o = opts(d)
          var reached = false
          var j = 0
          while (j < o.length) {
            val i = ids.getOrAdd(key(opts.length, d, o(j)))
            if (i == counts.length) {
              counts = java.util.Arrays.copyOf(counts, 2 * i)
              lastValue = java.util.Arrays.copyOf(lastValue, 2 * i)
            }
            if (lastValue(i) != v + 1) { lastValue(i) = v + 1; counts(i) += m }
            reached ||= counts(i) >= need
            j += 1
          }
          full &&= reached
          d += 1
        }
        alive ||= full
        l += 1
      }
      alive
    }

    private def countOf(len: Int, d: Int, tok: Int): Int = {
      val i = ids.get(key(len, d, tok))
      if (i < 0) 0 else counts(i)
    }

    /** `lists` with the options counted fewer than `minCount` times
      * dropped, and without the lists left with an empty position.
      */
    def frequent(lists: OptionIds, minCount: Int): OptionIds = {
      val out = Array.newBuilder[Array[Array[Int]]]
      var l = 0
      while (l < lists.length) {
        val opts = lists(l)
        val kept = new Array[Array[Int]](opts.length)
        var empty = false
        var d = 0
        while (!empty && d < opts.length) {
          val o = opts(d)
          val keep = new Array[Int](o.length)
          var n = 0
          var j = 0
          while (j < o.length) {
            if (countOf(opts.length, d, o(j)) >= minCount) { keep(n) = o(j); n += 1 }
            j += 1
          }
          kept(d) = if (n == o.length) o else java.util.Arrays.copyOf(keep, n)
          empty = n == 0
          d += 1
        }
        if (!empty) out += kept
        l += 1
      }
      out.result()
    }
  }

  /** Each distinct non-empty value's multiplicity and interned option
    * lists, in first-seen order; for `minCount > 1`, through the exact
    * [[OptionCounts]] pre-filter. Values in no frequent pattern cannot
    * count toward one, so once they hold more than `total − minCount` of
    * the multiplicity no pattern is frequent: the pre-count stops there,
    * without interning the rest, and every value's lists are empty.
    */
  private def columnOptions(c: Counter, values: Seq[String], minCount: Int,
                            tau: Int): (Array[Int], Array[OptionIds]) = {
    val mult = collection.mutable.LinkedHashMap.empty[String, Int]
    for (v <- values if v != null && v.nonEmpty) mult.update(v, mult.getOrElse(v, 0) + 1)
    val ms = mult.valuesIterator.toArray
    val vs = mult.keysIterator.toArray
    if (minCount <= 1 || tau >= MaxKeyedLength) (ms, vs.map(c.optionIds))
    else {
      val oc = new OptionCounts
      val lists = new Array[OptionIds](vs.length)
      var rest = ms.sum
      val spare = rest - minCount
      var dead = 0
      var i = 0
      while (i < vs.length && dead <= spare) {
        lists(i) = c.optionIds(vs(i))
        rest -= ms(i)
        if (!oc.add(lists(i), ms(i), i, minCount - rest)) dead += ms(i)
        i += 1
      }
      (ms, if (dead > spare) Array.fill(vs.length)(new OptionIds(0)) else lists.map(oc.frequent(_, minCount)))
    }
  }

  /** Every pattern p ∈ P(D) that at least `minCount` values v ∈ D have in
    * P(v) (counted with multiplicity), with that count, in the order the
    * walk first reached them. Null and empty values count toward no pattern.
    */
  def frequentPatterns(values: Seq[String], minCount: Int, tau: Int = DefaultTau,
                       cap: Int = DefaultCap): Vector[(Pat, Int)] = {
    val c = new Counter(tau, cap)
    val (ms, lists) = columnOptions(c, values, minCount, tau)
    var i = 0
    while (i < lists.length) { c.add(lists(i), ms(i)); i += 1 }
    c.survivors(minCount)
  }

  /** The option lists that `frequentPatterns(values, minCount)` walks, per
    * distinct non-empty value in first-seen order (list × position ×
    * option), so tests can check the pre-filter against a direct count.
    */
  private[core] def walkedOptions(values: Seq[String], minCount: Int, tau: Int = DefaultTau,
                                  cap: Int = DefaultCap): Vector[Vector[Vector[Vector[PTok]]]] = {
    val c = new Counter(tau, cap)
    columnOptions(c, values, minCount, tau)._2.toVector
      .map(_.toVector.map(_.toVector.map(_.toVector.map(c.tokenOf))))
  }

  /** P(v): all patterns consistent with v (fine ∪ merged granularity ∪ the
    * alnum skeleton). Empty for null/empty values and values wider than tau
    * tokens at both granularities.
    */
  def patternsOf(v: String, tau: Int = DefaultTau, cap: Int = DefaultCap): Vector[Pat] =
    frequentPatterns(Seq(v), 1, tau, cap).map(_._1)

  /** P(v) as a key-set. */
  def patternKeysOf(v: String, tau: Int = DefaultTau, cap: Int = DefaultCap): Set[String] =
    patternsOf(v, tau, cap).map(_.key).toSet

  /** H(C) = ∩_{v∈C} P(v), over distinct non-empty values. Empty result means
    * the column has no single consistent pattern (heterogeneous values).
    * Each distinct value counts once toward a pattern, so H(C) is exactly
    * the patterns counted |distinct| times.
    */
  def hypothesis(values: Seq[String], tau: Int = DefaultTau, cap: Int = DefaultCap): Vector[Pat] = {
    val distinct = values.filter(v => v != null && v.nonEmpty).distinct
    frequentPatterns(distinct, distinct.size, tau, cap).map(_._1)
  }

  /** Per-column pattern→match-count map: for each pattern p ∈ P(D), the
    * number of values v ∈ D with p ∈ P(v). Wide values (> tau tokens)
    * contribute to no pattern but still count toward |D| (the caller
    * divides by total value count to get impurity).
    */
  def columnPatternCounts(values: Seq[String], tau: Int = DefaultTau,
                          cap: Int = DefaultCap): collection.Map[String, Int] = {
    val counts = collection.mutable.HashMap.empty[String, Int]
    for ((p, n) <- frequentPatterns(values, 1, tau, cap)) counts.update(p.key, n)
    counts
  }

  /** Algorithm 1 (GeneratePatterns): coarse patterns with a coverage
    * threshold, then drill-down keeping fine patterns meeting the threshold.
    * Returns patterns covering at least `minCoverage` fraction of values —
    * this is the profiling-style entry point (used by FMDV-H's greedy step
    * and by profiling baselines).
    */
  def generatePatterns(values: Seq[String], minCoverage: Double,
                       tau: Int = DefaultTau, cap: Int = DefaultCap): Vector[(Pat, Int)] = {
    val vs = values.filter(v => v != null && v.nonEmpty)
    if (vs.isEmpty) return Vector.empty
    val need = math.ceil(minCoverage * vs.size).toInt
    frequentPatterns(vs, need, tau, cap)
      .sortBy { case (p, c) => (-c, -p.specificity, p.key) }
  }
}
