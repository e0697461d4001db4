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
  * Option lists come only from [[ValueOptions]], one table per value, for
  * whole values here and for FMDV-V's runs of tokens alike.
  *
  * Every entry point runs on one [[Counter]]: the cross-products are walked
  * down a prefix trie of interned token ids, and a `Pat` is built only for
  * the trie nodes whose count reaches the caller's threshold (for H(C),
  * every distinct value). Before any walk, the values (or FMDV-V's runs of
  * tokens) are grouped by token shape ([[group]]): values whose lists can
  * differ only in literals that cannot reach the threshold are counted by
  * one walk of one set of lists, with their summed multiplicity.
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

  /** One value's option lists as interned token ids: list × position ×
    * option.
    */
  private[core] type OptionIds = Array[Array[Array[Int]]]

  /** Interns pattern tokens to dense ids 0, 1, 2, … in first-seen order. */
  private[core] final class Interner {
    private val ids = new java.util.HashMap[PTok, Integer]
    private val tokens = collection.mutable.ArrayBuffer.empty[PTok]

    def idOf(t: PTok): Int = {
      val id = ids.get(t)
      if (id != null) id.intValue
      else { ids.put(t, tokens.size); tokens += t; tokens.size - 1 }
    }

    def tokenOf(id: Int): PTok = tokens(id)

    private val shapes = new IdMap(4)

    /** A dense id for a token shape code (`Tokens.shapeCode`). */
    def shapeId(code: Long): Int = shapes.getOrAdd(code)

    private val literals = new java.util.HashMap[String, Integer]

    /** The id of `ConstT(text)`, without a `ConstT` once `text` was seen. */
    def literalId(text: String): Int = {
      val id = literals.get(text)
      if (id != null) id.intValue
      else { val i = idOf(ConstT(text)); literals.put(text, i); i }
    }

    /** `opts` as an array of ids. */
    def idsOf(opts: Vector[PTok]): Array[Int] = {
      val a = new Array[Int](opts.length)
      var i = 0
      while (i < a.length) { a(i) = idOf(opts(i)); i += 1 }
      a
    }

    private val alnums = new java.util.HashMap[Integer, Array[Int]]

    /** The ids of `<alnum>{len}` and `<alnum>+`. */
    def alnumIds(len: Int): Array[Int] = {
      var o = alnums.get(len)
      if (o == null) { o = idsOf(Vector(FixLen(GClass.Alnum, len), VarLen(GClass.Alnum))); alnums.put(len, o) }
      o
    }
  }

  /** One value's option table: the value is lexed once into token offsets
    * and shape codes, and each fine token's options are interned per
    * pruning level on first use. A run of fine tokens a … b lexes, as a
    * value of its own, to exactly those tokens, so [[lists]] is P(v) of any
    * run's text — of the whole value for the run 0 … length − 1.
    */
  private[core] final class ValueOptions(value: String, in: Interner) {
    /** from(k): the offset of token k; from(length) is the value's length. */
    private val from: Array[Int] = Tokens.offsets(value)
    private val codes: Array[Long] = Array.tabulate(from.length - 1)(k => Tokens.shapeCode(value, from(k), from(k + 1)))
    private val shapes: Array[Int] = codes.map(in.shapeId)
    /** 1 + token k's literal id, 0 until first asked for. */
    private val literals = new Array[Int](codes.length)
    /** opts(k)(level): token k's options at pruning levels 0–3; level 4
      * keeps only level 3's first option (the cap's last resort).
      */
    private val opts: Array[Array[Array[Int]]] = new Array(codes.length)

    /** The number of fine tokens. */
    def length: Int = codes.length

    /** The text of fine tokens a … b. */
    def text(a: Int, b: Int): String = value.substring(from(a), from(b + 1))

    /** Token k's shape (`Tokens.shapeCode`), interned. */
    def shape(k: Int): Int = shapes(k)

    /** The id of token k's text as a literal; equal ids are equal tokens. */
    def literal(k: Int): Int = {
      if (literals(k) == 0) literals(k) = in.literalId(text(k, k)) + 1
      literals(k) - 1
    }

    private def isSym(k: Int): Boolean = Tokens.isSymbolShape(codes(k))

    private def fine(k: Int, level: Int): Array[Int] = {
      if (opts(k) == null) opts(k) = new Array[Array[Int]](5)
      val o = opts(k)
      if (o(level) == null)
        o(level) =
          if (level == 4) Array(fine(k, 3)(0))
          else in.idsOf(Hierarchy.optionsPruned(Tok(Tokens.clsOfShape(codes(k)), text(k, k)), level))
      o(level)
    }

    /** The options of the token that fine tokens a … b merge into: a lone
      * token keeps its fine options, a digit/letter stretch has `<alnum>{n}`
      * and `<alnum>+` at every level (the first alone at level 4).
      */
    private def merged(a: Int, b: Int, level: Int): Array[Int] =
      if (a == b) fine(a, level)
      else {
        val o = in.alnumIds(from(b + 1) - from(a))
        if (level == 4) Array(o(0)) else o
      }

    /** Alnum-skeleton options of the token that fine tokens a … b merge
      * into: every digit/letter run generalizes only to `<alnum>{n}` /
      * `<alnum>+` (symbols stay literal). At most 2^tokens patterns, so the
      * skeleton survives for every value under τ regardless of cap pruning
      * — which is what keeps H(C) non-empty on hex-like columns whose values
      * tokenize differently (all-digit octets vs mixed ones).
      */
    private def skeleton(a: Int, b: Int): Array[Int] =
      if (isSym(a)) fine(a, 0) else in.alnumIds(from(b + 1) - from(a))

    /** The first pruning level at which the cross-product of the tokens
      * that the runs starts(d) … ends(d) merge into fits under `cap`, or 4
      * (one pattern) when none does.
      */
    private def level(starts: Array[Int], ends: Array[Int], cap: Int): Int = {
      def product(level: Int): Long = {
        var acc = 1L
        var d = 0
        while (d < starts.length) {
          acc = math.min(Long.MaxValue / 2, acc * merged(starts(d), ends(d), level).length)
          d += 1
        }
        acc
      }
      var level = 0
      while (level < 4 && product(level) > cap) level += 1
      level
    }

    /** P(v) of the text of fine tokens a … b as option lists: fine, merged
      * (when a digit/letter stretch merges) and skeleton, each only when its
      * granularity fits under τ, and each pruned on the run's own product.
      */
    def lists(a: Int, b: Int, tau: Int, cap: Int): OptionIds = plan(a, b, tau, cap).lists

    /** [[lists]] of fine tokens a … b with its literal slots: a digit or
      * letter literal is option 0 at each position of a level-0 list that
      * holds one fine token alone (every position of the fine list, the
      * lone runs of the merged one). Both depend only on the run's shapes.
      */
    private[core] def plan(a: Int, b: Int, tau: Int, cap: Int): Plan = {
      // the merged tokens: the maximal digit/letter stretches ms(m) … mt(m)
      val (ms, mt) = (Array.newBuilder[Int], Array.newBuilder[Int])
      var k = a
      while (k <= b) {
        var end = k
        if (!isSym(k)) while (end < b && !isSym(end + 1)) end += 1
        ms += k; mt += end
        k = end + 1
      }
      val (starts, ends, fineRuns) = (ms.result(), mt.result(), Array.range(a, b + 1))
      val out = collection.mutable.ArrayBuffer.empty[Array[Array[Int]]]
      val slots = Array.newBuilder[Int]
      def add(starts: Array[Int], ends: Array[Int]): Unit = {
        val lv = level(starts, ends, cap)
        if (lv == 0)
          for (d <- starts.indices if starts(d) == ends(d) && !isSym(starts(d))) {
            slots += out.length; slots += d; slots += starts(d) - a
          }
        out += Array.tabulate(starts.length)(d => merged(starts(d), ends(d), lv))
      }
      if (fineRuns.length <= tau) add(fineRuns, fineRuns)
      if (starts.length <= tau && starts.length < fineRuns.length) add(starts, ends)
      if (starts.length <= tau) out += Array.tabulate(starts.length)(m => skeleton(starts(m), ends(m)))
      new Plan(out.toArray, slots.result())
    }
  }

  /** A run's option lists and its literal slots, as (list, position,
    * token offset in the run) triples.
    */
  private[core] final class Plan(val lists: OptionIds, val slots: Array[Int]) {
    /** [[lists]] with slot i's literal replaced by `lits(i)`, or dropped
      * where `lits(i)` is −1.
      */
    def withLiterals(lits: Array[Int]): OptionIds = {
      var out = lists
      var i = 0
      while (i < lits.length) {
        val (l, d) = (slots(3 * i), slots(3 * i + 1))
        val o = lists(l)(d)
        if (lits(i) != o(0)) {
          if (out eq lists) out = lists.map(_.clone)
          out(l)(d) = if (lits(i) < 0) java.util.Arrays.copyOfRange(o, 1, o.length) else { val c = o.clone; c(0) = lits(i); c }
        }
        i += 1
      }
      out
    }
  }

  /** An open-addressing map from `Long` keys (≥ 0) to dense ids 0, 1, 2, …
    * handed out in insertion order, so callers keep per-key values in plain
    * arrays indexed by id. Keys and ids lie side by side, so a probe touches
    * one cache line. Starts at 2^`bits` slots (small, since one solve
    * often counts only a few short values) and doubles when half full.
    */
  private final class IdMap(private var bits: Int = 7) {
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
    * pattern per value. Each cross-product of option ids interned by `in`
    * is walked depth-first down a prefix trie of those ids.
    * A node that ends a pattern keeps a count and the index of the last
    * value that reached it, so a pattern reached twice from one value (from
    * fine and from skeleton, say) counts once, with that value's
    * multiplicity. The trie's edges live in an [[IdMap]] keyed by
    * (parent id, token id): an edge is added exactly when its child is
    * created, so edge id i leads to node i + 1, and fan-out is unbounded.
    */
  private final class Counter(in: Interner) {
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
      while (a != 0) { depth -= 1; ts(depth) = in.tokenOf(tokOf(a)); a = parent(a) }
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

  /** The [[Plan]]s of runs by token shape: a trie of interned shapes, in
    * which the node that a run's shapes end at holds the plan of the first
    * run that reached it. Runs of equal shapes have equal lists but for
    * their literal slots, so they share the plan.
    */
  private[core] final class Shapes(tau: Int, cap: Int) {
    private val trie = new IdMap
    private var planAt = new Array[Int](64) // 1 + the plan of a node, 0 for none
    private val plans = collection.mutable.ArrayBuffer.empty[Plan]

    /** The node of a run's shapes extended by token k of `vo`, from the
      * node of the run before it (0 for the empty run).
      */
    def extend(node: Int, vo: ValueOptions, k: Int): Int = trie.getOrAdd((node.toLong << 32) | vo.shape(k)) + 1

    /** The plan id of fine tokens a … b of `vo`, whose shapes end at `node`. */
    def planId(node: Int, vo: ValueOptions, a: Int, b: Int): Int = {
      if (node >= planAt.length) planAt = java.util.Arrays.copyOf(planAt, 2 * node)
      if (planAt(node) == 0) { plans += vo.plan(a, b, tau, cap); planAt(node) = plans.length }
      planAt(node) - 1
    }

    /** The plan id of fine tokens a … b of `vo`. */
    def planId(vo: ValueOptions, a: Int, b: Int): Int = {
      var node = 0
      var k = a
      while (k <= b) { node = extend(node, vo, k); k += 1 }
      planId(node, vo, a, b)
    }

    def apply(id: Int): Plan = plans(id)
  }

  /** Runs grouped for counting: `of(r)` is run r's group, and group g has
    * option lists `lists(g)` and the summed multiplicity `ms(g)` of its
    * runs; groups are in the order of their first runs.
    */
  private[core] final class Groups(val of: Array[Int], val lists: Array[OptionIds], val ms: Array[Int])

  /** Groups the runs r (the fine tokens from `as(r)` of `vos(r)` that plan
    * `planIds(r)` of `shapes` covers, of multiplicity `ms(r)`) whose option
    * lists are equal once the literals that cannot reach `minCount` are
    * dropped, so that one walk of a group's lists, with its summed
    * multiplicity, counts all its runs.
    *
    * A slot's literal joins the group key when its (list length,
    * position, literal) key is counted, over all runs with multiplicity
    * and each run once, at least `minCount` times; a key is counted only
    * if, where it is first met, the runs left can still bring it there.
    * Otherwise no pattern counted `minCount` times holds the literal
    * there, and the group's lists drop it, after the pruning level was
    * chosen on the unfiltered product. Without the option pre-filter
    * (`minCount` ≤ 1, or τ too wide for its keys) every literal joins the
    * key. So a group's runs have equal lists once the pre-filter has run,
    * and a pattern's first reaching run is its group's first run: counts,
    * survivors and first-reached order are unchanged. At H(C)'s threshold
    * (`minCount` = the total multiplicity) a kept literal is at its slot
    * in every run, so each plan is one group. Keys and groups are tries
    * of `Int` ids in [[IdMap]]s; no string is built for them.
    */
  private[core] def group(vos: Array[ValueOptions], as: Array[Int], ms: Array[Int], planIds: Array[Int],
                          shapes: Shapes, minCount: Int, tau: Int): Groups = {
    val n = vos.length
    val strip = minCount > 1 && tau < MaxKeyedLength
    // each run's literals as slot-ordered ids, and the count of each
    // (list length, position, literal) key that can still reach minCount
    // when first met (-1 for the others)
    var lits = new Array[Int](64)
    var keyOf = new Array[Int](64)
    val litKeys = new IdMap(4)
    var counts = new Array[Int](64)
    var rest = ms.sum
    val total = rest
    var r = 0
    var j = 0
    while (r < n) {
      val p = shapes(planIds(r))
      var i = 0
      while (i < p.slots.length) {
        if (j == lits.length) { lits = java.util.Arrays.copyOf(lits, 2 * j); keyOf = java.util.Arrays.copyOf(keyOf, 2 * j) }
        lits(j) = vos(r).literal(as(r) + p.slots(i + 2))
        if (strip) {
          val key = (p.lists(p.slots(i)).length.toLong << 48) | (p.slots(i + 1).toLong << 32) | lits(j)
          var id = litKeys.get(key)
          if (id < 0 && rest >= minCount) {
            id = litKeys.getOrAdd(key)
            if (id == counts.length) counts = java.util.Arrays.copyOf(counts, 2 * id)
          }
          if (id >= 0) counts(id) += ms(r)
          keyOf(j) = id
        }
        i += 3; j += 1
      }
      rest -= ms(r)
      r += 1
    }
    // the runs' groups: a trie over the plan and each slot's kept literal,
    // or the plan alone at H(C)'s threshold
    val trie = new IdMap(4)
    var groupAt = new Array[Int](64) // 1 + the group of a trie node, 0 for none
    val of = new Array[Int](n)
    val lists = collection.mutable.ArrayBuffer.empty[OptionIds]
    val gms = collection.mutable.ArrayBuffer.empty[Int]
    r = 0
    j = 0
    while (r < n) {
      val p = shapes(planIds(r))
      val first = j
      var node = trie.getOrAdd(planIds(r)) + 1
      while (j < first + p.slots.length / 3) {
        if (strip && (keyOf(j) < 0 || counts(keyOf(j)) < minCount)) lits(j) = -1
        if (!strip || minCount < total) node = trie.getOrAdd((node.toLong << 32) | (lits(j) + 1)) + 1
        j += 1
      }
      if (node >= groupAt.length) groupAt = java.util.Arrays.copyOf(groupAt, 2 * node)
      if (groupAt(node) == 0) {
        lists += p.withLiterals(java.util.Arrays.copyOfRange(lits, first, j)); gms += 0; groupAt(node) = lists.length
      }
      of(r) = groupAt(node) - 1
      gms(of(r)) += ms(r)
      r += 1
    }
    new Groups(of, lists.toArray, gms.toArray)
  }

  /** The interned option lists of values of multiplicities `ms`, value i's
    * from `listsOf(i)`; for `minCount > 1`, through the exact
    * [[OptionCounts]] pre-filter. Values in no frequent pattern cannot
    * count toward one, so once they hold more than `total − minCount` of
    * the multiplicity no pattern is frequent: the pre-count stops there,
    * without asking for the rest, and every value's lists are empty.
    */
  private def frequentLists(ms: Array[Int], minCount: Int, tau: Int)
                           (listsOf: Int => OptionIds): Array[OptionIds] =
    if (minCount <= 1 || tau >= MaxKeyedLength) Array.tabulate(ms.length)(listsOf)
    else {
      val oc = new OptionCounts
      val lists = new Array[OptionIds](ms.length)
      var rest = ms.sum
      val spare = rest - minCount
      var dead = 0
      var i = 0
      while (i < ms.length && dead <= spare) {
        lists(i) = listsOf(i)
        rest -= ms(i)
        if (!oc.add(lists(i), ms(i), i, minCount - rest)) dead += ms(i)
        i += 1
      }
      if (dead > spare) Array.fill(ms.length)(new OptionIds(0)) else lists.map(oc.frequent(_, minCount))
    }

  /** Each distinct non-empty value's group (first-seen order), and each
    * group's multiplicity and option lists through [[frequentLists]].
    */
  private def columnOptions(in: Interner, values: Seq[String], minCount: Int, tau: Int,
                            cap: Int): (Array[Int], Array[Int], Array[OptionIds]) = {
    val mult = collection.mutable.LinkedHashMap.empty[String, Int]
    for (v <- values if v != null && v.nonEmpty) mult.update(v, mult.getOrElse(v, 0) + 1)
    val vos = mult.keysIterator.map(new ValueOptions(_, in)).toArray
    val shapes = new Shapes(tau, cap)
    val g = group(vos, new Array[Int](vos.length), mult.valuesIterator.toArray,
      vos.map(vo => shapes.planId(vo, 0, vo.length - 1)), shapes, minCount, tau)
    (g.of, g.ms, frequentLists(g.ms, minCount, tau)(g.lists(_)))
  }

  /** The patterns that the cross-products of `lists` (value i's, of
    * multiplicity `ms(i)`) reach at least `minCount` times, with their
    * counts, in the order the walk first reached them.
    */
  private def count(in: Interner, ms: Array[Int], lists: Array[OptionIds],
                    minCount: Int): Vector[(Pat, Int)] = {
    val c = new Counter(in)
    var i = 0
    while (i < lists.length) { c.add(lists(i), ms(i)); i += 1 }
    c.survivors(minCount)
  }

  /** Every pattern p ∈ P(D) that at least `minCount` values v ∈ D have in
    * P(v) (counted with multiplicity), with that count, in the order the
    * walk first reached them. Null and empty values count toward no pattern.
    * Algorithm 1 (GeneratePatterns) is this count at a coverage threshold c:
    * `frequentPatterns(vs, ⌈c·|vs|⌉)` over the non-empty values vs.
    */
  def frequentPatterns(values: Seq[String], minCount: Int, tau: Int = DefaultTau,
                       cap: Int = DefaultCap): Vector[(Pat, Int)] = {
    val in = new Interner
    val (_, ms, lists) = columnOptions(in, values, minCount, tau, cap)
    count(in, ms, lists, minCount)
  }

  /** The patterns that groups of multiplicities `ms`, given as option
    * lists interned by the caller's `in`, reach `minCount` times, through
    * the same pre-filter and count as [[frequentPatterns]]: H(C) when
    * `minCount` is the runs' total multiplicity.
    */
  private[core] def hypothesisOf(ms: Array[Int], lists: Array[OptionIds], minCount: Int, in: Interner,
                                 tau: Int): Vector[Pat] =
    count(in, ms, frequentLists(ms, minCount, tau)(lists(_)), minCount).map(_._1)

  /** The option lists that `frequentPatterns(values, minCount)` walks for
    * each distinct non-empty value in first-seen order (its group's lists,
    * list × position × option), so tests can check the grouping and the
    * pre-filter against a direct count.
    */
  private[core] def walkedOptions(values: Seq[String], minCount: Int, tau: Int = DefaultTau,
                                  cap: Int = DefaultCap): Vector[Vector[Vector[Vector[PTok]]]] = {
    val in = new Interner
    val (of, _, lists) = columnOptions(in, values, minCount, tau, cap)
    of.toVector.map(g => lists(g).toVector.map(_.toVector.map(_.toVector.map(in.tokenOf))))
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
}
