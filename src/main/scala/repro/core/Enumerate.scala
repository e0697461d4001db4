package repro.core

import repro.core.Pattern._
import repro.index.PatternIndex

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
  * down a prefix trie of token codes, and a `Pat` is built only for
  * the trie nodes whose count reaches the caller's threshold (for H(C),
  * every distinct value). Before any walk, one support count ([[groups]])
  * drops the options that no pattern reaching the threshold can hold, and
  * groups the values (or FMDV-V's runs of tokens) whose remaining lists
  * are equal, so that one walk of one set of lists, with their summed
  * multiplicity, counts them.
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

  /** One value's option lists as token codes: list × position × option. */
  private[core] type OptionIds = Array[Array[Array[Int]]]

  /** The literal table of one count (class tokens need none, see
    * [[Pattern.Code]]), with a dense id per token shape code and each
    * literal's code in one index.
    */
  private[core] final class Interner extends Literals {
    private val shapes = new IdMap(4)

    /** A dense id for a token shape code (`Tokens.shapeCode`). */
    def shapeId(code: Long): Int = shapes.getOrAdd(code)

    private var indexIds = new Array[Int](0) // 2 + literal l's code in the index, 0 until looked up

    /** Code c's token in `index`'s id table, −1 when no key holds it: a
      * class code is its own id, and a literal is looked up once by its
      * text, so an interner serves one index.
      */
    def indexId(c: Int, index: PatternIndex): Int =
      if (!Code.isLiteral(c)) { if (index.ids.holds(c)) c else -1 }
      else {
        if (c >= indexIds.length) indexIds = java.util.Arrays.copyOf(indexIds, math.max(64, 2 * c))
        if (indexIds(c) == 0) indexIds(c) = index.ids.literal(text(c)) + 2
        indexIds(c) - 2
      }
  }

  /** One value's option table: the value is lexed once into token offsets
    * and shape codes, and each fine token's option codes are made per
    * pruning level on first use. A run of fine tokens a … b lexes, as a
    * value of its own, to exactly those tokens, so [[lists]] is P(v) of any
    * run's text — of the whole value for the run 0 … length − 1.
    */
  private[core] final class ValueOptions(value: String, in: Interner) {
    /** from(k): the offset of token k; from(length) is the value's length. */
    private val from: Array[Int] = Tokens.offsets(value)
    private val codes: Array[Long] = Array.tabulate(from.length - 1)(k => Tokens.shapeCode(value, from(k), from(k + 1)))
    private val shapes: Array[Int] = codes.map(in.shapeId)
    /** 1 + token k's literal code, 0 until first asked for. */
    private val literals = new Array[Int](codes.length)
    /** opts(k)(level): token k's options at pruning levels 0–4; level 4,
      * the cap's last resort, keeps level 3's one option.
      */
    private val opts: Array[Array[Array[Int]]] = new Array(codes.length)

    /** The number of fine tokens. */
    def length: Int = codes.length

    /** The text of fine tokens a … b. */
    def text(a: Int, b: Int): String = value.substring(from(a), from(b + 1))

    /** Token k's shape (`Tokens.shapeCode`), interned. */
    def shape(k: Int): Int = shapes(k)

    /** The code of token k's text as a literal; equal codes are equal texts.
      * Unless `intern`, −1 when the interner has not seen the text.
      */
    def literal(k: Int, intern: Boolean): Int = {
      if (literals(k) == 0) literals(k) = in.code(text(k, k), intern) + 1
      literals(k) - 1
    }

    private def isSym(k: Int): Boolean = Tokens.isSymbolShape(codes(k))

    private def fine(k: Int, level: Int): Array[Int] = {
      if (opts(k) == null) opts(k) = new Array[Array[Int]](5)
      val o = opts(k)
      if (o(level) == null)
        o(level) = Hierarchy.options(codes(k), level, literal(k, intern = true))
      o(level)
    }

    /** The options of the token that fine tokens a … b merge into: a lone
      * token keeps its fine options, a digit/letter stretch has `<alnum>{n}`
      * and `<alnum>+` at every level (the first alone at level 4).
      */
    private def merged(a: Int, b: Int, level: Int): Array[Int] =
      if (a == b) fine(a, level)
      else {
        val o = Hierarchy.alnum(from(b + 1) - from(a))
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
      if (isSym(a)) fine(a, 0) else Hierarchy.alnum(from(b + 1) - from(a))

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
    // set on first use by the plan's [[Shapes]]: each option's key id (−1
    // where the vocabulary does not admit it, [[Slot]] at a slot's literal),
    // the distinct admitted keys but the slots', and [[Shapes.keyless]]
    private[core] var ids: OptionIds = _
    private[core] var keys: Array[Int] = _
    private[core] var keyless: Int = 0 // 1 + (1 when keyless), 0 until known
  }

  private final val Slot = -2 // the key id of a slot's literal in `Plan.ids`

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
    * pattern per value. Each cross-product of option codes (literals coded
    * by `in`) is walked depth-first down a prefix trie of those codes.
    * A node that ends a pattern keeps a count and the index of the last
    * value that reached it, so a pattern reached twice from one value (from
    * fine and from skeleton, say) counts once, with that value's
    * multiplicity. The trie's edges live in an [[IdMap]] keyed by
    * (parent id, token code): an edge is added exactly when its child is
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
      while (a != 0) { depth -= 1; ts(depth) = Code.decode(tokOf(a), in.text); a = parent(a) }
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

    /** `Fmdv.best` of [[survivors]]`(minCount)`, chosen in `index`'s token
      * ids: a survivor all of whose tokens are in the index is looked up by
      * its id sequence, and a `Pat` is built for the winner alone.
      */
    def best(minCount: Int, index: PatternIndex, cfg: FmdvConfig): Option[Solution] = {
      val ids = index.ids
      var (win, at, winSpec) = (-1, 0, 0) // the least feasible entry so far, its node and specificity
      var seq = new Array[Int](16)
      var i = 0
      while (i < nEnds) {
        val n = ends(i)
        if (count(n) >= minCount) {
          var (len, a) = (0, n)
          while (a != 0) { len += 1; a = parent(a) }
          if (len > seq.length) seq = new Array[Int](2 * len)
          // the node's tokens in index ids, last first, and its `Pat.specificity`;
          // a token no key holds ends the walk
          var (d, spec, missing) = (len, 0, false)
          a = n
          while (d > 0 && !missing) {
            d -= 1; seq(d) = in.indexId(tokOf(a), index); missing = seq(d) < 0
            spec += Code.specificity(tokOf(a)); a = parent(a)
          }
          val e = if (missing) -1 else ids.entry(seq, len)
          if (e >= 0 && ids.fpr(e) <= cfg.r && ids.cov(e) >= cfg.m && (win < 0 || before(ids, e, spec, win, winSpec))) {
            win = e; at = n; winSpec = spec
          }
        }
        i += 1
      }
      if (win < 0) None else Some(Solution(patOf(at), ids.fpr(win), ids.cov(win)))
    }

    /** True when entry e, of specificity se, precedes entry w, of
      * specificity sw, in `Fmdv.best`'s order: lower fpr
      * (`java.lang.Double.compare`, as `Ordering.Double.TotalOrdering`), then
      * higher cov, then higher specificity, then the lesser key.
      */
    private def before(ids: PatternIndex.Ids, e: Int, se: Int, w: Int, sw: Int): Boolean = {
      val c = java.lang.Double.compare(ids.fpr(e), ids.fpr(w))
      if (c != 0) c < 0
      else if (ids.cov(e) != ids.cov(w)) ids.cov(e) > ids.cov(w)
      else if (se != sw) se > sw
      else ids.key(e).compareTo(ids.key(w)) < 0
    }
  }

  /** The plans and support keys that the counts ([[groups]]) of one column,
    * or of every cell of one FMDV-V solve, share. Plans by token shape: the
    * node of a trie of interned shapes that a run's shapes end at holds the
    * [[Plan]] of the first run that reached it. Support keys (list length L,
    * position d, token code t) get dense ids, a plan's when it is counted, and
    * `index` (null for none) admits only those that some index key has
    * (its id table's slots). Support is kept per key id,
    * stamped with its count, so a count costs nothing for keys it leaves.
    */
  private[core] final class Shapes(tau: Int, cap: Int, in: Interner, index: PatternIndex) {
    private val trie = new IdMap
    private var planAt = new Array[Int](64) // 1 + the plan of a node, 0 for none
    private val plans = collection.mutable.ArrayBuffer.empty[Plan]
    private val keyIds = new IdMap
    private var support = new Array[Int](64)
    private var stamp = new Array[Int](64) // the count that support(k) belongs to
    private var owner = new Array[Int](64) // 1 + the last plan that took key k
    private var counting = 0

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

    /** The id of key (len, d, t); −1 when the vocabulary does not admit it, or when
      * it is new and not `added`. (len, d) is packed as its `PatternIndex.slot`, unique
      * for len ≤ 46,341 (a list holds ≤ τ tokens); past that, a shared id only adds supports.
      */
    def keyId(len: Int, d: Int, t: Int, added: Boolean = true): Int = {
      if (!admits(t, len, d)) return -1
      val key = (PatternIndex.slot(len, d).toLong << 32) | t
      val k = if (added) keyIds.getOrAdd(key) else keyIds.get(key)
      if (k == support.length) {
        support = java.util.Arrays.copyOf(support, 2 * k)
        stamp = java.util.Arrays.copyOf(stamp, 2 * k)
        owner = java.util.Arrays.copyOf(owner, 2 * k)
      }
      k
    }

    private def admits(t: Int, len: Int, d: Int): Boolean = index == null || {
      val i = in.indexId(t, index)
      i >= 0 && index.ids.slots(i).contains(PatternIndex.slot(len, d))
    }

    /** Plan p, with its key ids built on first use. */
    private def keyed(p: Int): Plan = {
      val plan = plans(p)
      if (plan.ids == null) {
        val keys = Array.newBuilder[Int]
        var s = 0 // the next slot
        plan.ids = Array.tabulate(plan.lists.length) { l =>
          val list = plan.lists(l)
          Array.tabulate(list.length) { d =>
            val slot = s < plan.slots.length && plan.slots(s) == l && plan.slots(s + 1) == d
            if (slot) s += 3
            val ids = new Array[Int](list(d).length)
            var j = 0
            while (j < ids.length) {
              ids(j) = if (slot && j == 0) Slot else keyId(list.length, d, list(d)(j))
              // once per plan: the merged list and the skeleton share `<alnum>` keys at one (L, d)
              if (ids(j) >= 0 && owner(ids(j)) != p + 1) { owner(ids(j)) = p + 1; keys += ids(j) }
              j += 1
            }
            ids
          }
        }
        plan.keys = keys.result()
      }
      plan
    }

    /** True when no run of plan p can have an index key in P(v): no list
      * has, at every position, a slot or an admitted option.
      */
    def keyless(p: Int): Boolean = plans(p).lists.isEmpty || index != null && {
      val plan = plans(p)
      if (plan.keyless == 0) {
        def slot(l: Int, d: Int) = plan.slots.indices.exists(i => i % 3 == 0 && plan.slots(i) == l && plan.slots(i + 1) == d)
        val live = plan.lists.indices.exists { l =>
          val list = plan.lists(l)
          list.indices.forall(d => slot(l, d) || list(d).exists(admits(_, list.length, d)))
        }
        plan.keyless = if (live) 1 else 2
      }
      plan.keyless == 2
    }

    /** Starts a count, in which every key's support is 0. */
    def begin(): Unit = counting += 1

    def supportOf(k: Int): Int = if (stamp(k) == counting) support(k) else 0

    def add(k: Int, m: Int): Unit = { support(k) = supportOf(k) + m; stamp(k) = counting }

    /** Adds `m` to the support of each key of plan p but its slots'. */
    def addPlan(p: Int, m: Int): Unit = {
      val ks = keyed(p).keys
      var i = 0
      while (i < ks.length) { add(ks(i), m); i += 1 }
    }

    /** Plan p's lists for one group: slot i's literal is `lits(from + i)`, dropped
      * at −1; any other option stays when its key is admitted and its support
      * is at least `need`; a list left with an empty position is dropped.
      */
    def lists(p: Int, lits: Array[Int], from: Int, need: Int): OptionIds = {
      val plan = keyed(p)
      val out = Array.newBuilder[Array[Array[Int]]]
      var s = from
      var l = 0
      while (l < plan.lists.length) {
        val kept = new Array[Array[Int]](plan.lists(l).length)
        var empty = false
        var d = 0
        while (d < kept.length) {
          val o = plan.lists(l)(d)
          val ids = plan.ids(l)(d)
          val keep = new Array[Int](o.length)
          var n = 0
          var j = 0
          while (j < o.length) {
            if (ids(j) == Slot) { if (lits(s) >= 0) { keep(n) = lits(s); n += 1 }; s += 1 }
            else if (ids(j) >= 0 && supportOf(ids(j)) >= need) { keep(n) = o(j); n += 1 }
            j += 1
          }
          kept(d) = if (n == o.length && ids(0) != Slot) o else java.util.Arrays.copyOf(keep, n)
          empty ||= n == 0
          d += 1
        }
        if (!empty) out += kept
        l += 1
      }
      out.result()
    }
  }

  /** Runs grouped for counting: `of(r)` is run r's group, and group g has
    * lists `lists(g)` and its runs' summed multiplicity `ms(g)`, in the
    * order of their first runs.
    */
  private[core] final class Groups(val of: Array[Int], val lists: Array[OptionIds], val ms: Array[Int])

  /** The support count of P(v), for a column's distinct values and an
    * FMDV-V span's sub-values alike (DESIGN §8): the runs r (the fine tokens
    * from `as(r)` of `vos(r)`, under plan `planOf(r)` of `shapes`, of
    * multiplicity `ms(r)`) in groups that one walk each counts, less every
    * option that no pattern counted `minCount` times can hold. A key (list
    * length L, position d, token t) has the support of the runs that have t
    * at d of some list of length L, each once (Apriori's anti-monotone
    * bound). A plan's options but its slot literals are alike in all its
    * runs, so they count once, with the plan's summed multiplicity; each run
    * adds its slot literals, which equal no other key of its plan (a digit or
    * letter literal is an option only at a slot). An option or literal stays
    * when the vocabulary admits it and its support reaches `minCount`
    * (always, at `minCount` ≤ 1). A group is keyed by (plan, each slot's kept
    * literal), or by the plan alone at H(C)'s threshold, where a kept literal
    * is at its slot in every run. A run is dead when its plan is
    * [[Shapes.keyless]] or its group keeps no list; once dead runs hold more
    * than the total − `minCount`, no pattern survives, and the count returns
    * no lists (at a keyless plan, before asking for the later runs' plans).
    */
  private[core] def groups(vos: Array[ValueOptions], as: Array[Int], ms: Array[Int], planOf: Int => Int,
                           shapes: Shapes, minCount: Int): Groups = {
    val n = vos.length
    var total = 0
    var r = 0
    while (r < n) { total += ms(r); r += 1 }
    val spare = total - minCount
    def none = new Groups(new Array[Int](n), Array(new OptionIds(0)), Array(total))
    // each run's plan and slot literals (run r's from slots(r) until slots(r + 1)),
    // and the groups' trie over the plan and each slot's kept literal, whose
    // first nodes are the live runs' plans (of multiplicity `mass`), in order
    shapes.begin()
    val planIds = new Array[Int](n)
    val slots = new Array[Int](n + 1)
    val (litsB, keysB) = (Array.newBuilder[Int], Array.newBuilder[Int])
    val trie = new IdMap(4)
    val order = new Array[Int](n)
    val mass = new Array[Int](n)
    var dead = 0
    var left = total // the multiplicity of runs r, r + 1, …
    r = 0
    while (r < n) {
      planIds(r) = planOf(r)
      val p = shapes(planIds(r))
      if (shapes.keyless(planIds(r))) { dead += ms(r); if (dead > spare) return none }
      else { val q = trie.getOrAdd(planIds(r)); order(q) = planIds(r); mass(q) += ms(r) }
      slots(r + 1) = slots(r) + p.slots.length / 3
      // a literal key first met where the runs left cannot bring it to minCount gets
      // no id, so its text is only looked up: it has a key only if it was coded
      val keyed = left >= minCount
      var i = 0
      while (i < p.slots.length) {
        val lit = vos(r).literal(as(r) + p.slots(i + 2), keyed)
        val k = if (lit < 0) -1 else shapes.keyId(p.lists(p.slots(i)).length, p.slots(i + 1), lit, keyed)
        if (k >= 0) shapes.add(k, ms(r))
        litsB += lit; keysB += k
        i += 3
      }
      left -= ms(r)
      r += 1
    }
    val (lits, keys) = (litsB.result(), keysB.result())
    var q = 0
    while (q < trie.size) { shapes.addPlan(order(q), mass(q)); q += 1 }
    val need = if (minCount > 1) minCount else Int.MinValue
    // the groups: keyed by the plan alone at H(C)'s threshold
    val byLiteral = minCount <= 1 || minCount < total
    var groupAt = new Array[Int](64) // 1 + the group of a trie node, 0 for none
    val of = new Array[Int](n)
    val lists = collection.mutable.ArrayBuffer.empty[OptionIds]
    val gms = collection.mutable.ArrayBuffer.empty[Int]
    r = 0
    while (r < n) {
      var node = trie.getOrAdd(planIds(r)) + 1
      var j = slots(r)
      while (j < slots(r + 1)) {
        if (keys(j) < 0 || shapes.supportOf(keys(j)) < need) lits(j) = -1
        if (byLiteral) node = trie.getOrAdd((node.toLong << 32) | (lits(j) + 1)) + 1
        j += 1
      }
      if (node >= groupAt.length) groupAt = java.util.Arrays.copyOf(groupAt, 2 * node)
      if (groupAt(node) == 0) {
        lists += shapes.lists(planIds(r), lits, slots(r), need); gms += 0; groupAt(node) = lists.length
      }
      of(r) = groupAt(node) - 1
      gms(of(r)) += ms(r)
      if (lists(of(r)).isEmpty && !shapes.keyless(planIds(r))) { dead += ms(r); if (dead > spare) return none }
      r += 1
    }
    new Groups(of, lists.toArray, gms.toArray)
  }

  /** The [[groups]] of a column's distinct non-empty values, in first-seen
    * order, with their multiplicities.
    */
  private[core] def columnOptions(in: Interner, values: Seq[String], minCount: Int, tau: Int, cap: Int): Groups = {
    val mult = collection.mutable.LinkedHashMap.empty[String, Int]
    for (v <- values if !Values.isMissing(v)) mult.update(v, mult.getOrElse(v, 0) + 1)
    val vos = mult.keysIterator.map(new ValueOptions(_, in)).toArray
    val shapes = new Shapes(tau, cap, in, null)
    groups(vos, new Array[Int](vos.length), mult.valuesIterator.toArray,
      r => shapes.planId(vos(r), 0, vos(r).length - 1), shapes, minCount)
  }

  /** The patterns that the groups' lists, walked with the groups'
    * multiplicities, reach at least `minCount` times, with their counts,
    * in the order the walk first reached them.
    */
  private[core] def count(in: Interner, g: Groups, minCount: Int): Vector[(Pat, Int)] =
    walk(in, g).survivors(minCount)

  /** `Fmdv.best` of the patterns that [[count]] returns, without a `Pat`
    * per candidate ([[Counter.best]]).
    */
  private[core] def best(in: Interner, g: Groups, minCount: Int, index: PatternIndex,
                         cfg: FmdvConfig): Option[Solution] =
    walk(in, g).best(minCount, index, cfg)

  private def walk(in: Interner, g: Groups): Counter = {
    val c = new Counter(in)
    var i = 0
    while (i < g.lists.length) { c.add(g.lists(i), g.ms(i)); i += 1 }
    c
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
    count(in, columnOptions(in, values, minCount, tau, cap), minCount)
  }

  /** `Fmdv.best(frequentPatterns(values, minCount).map(_._1), index, cfg)`,
    * chosen in the index's token ids.
    */
  private[core] def bestFrequent(values: Seq[String], minCount: Int, index: PatternIndex,
                                 cfg: FmdvConfig): Option[Solution] = {
    val in = new Interner
    best(in, columnOptions(in, values, minCount, cfg.tau, cfg.cap), minCount, index, cfg)
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
    val distinct = distinctValues(values)
    frequentPatterns(distinct, distinct.size, tau, cap).map(_._1)
  }

  /** The distinct non-empty values, whose every-value count is H(C). */
  private[core] def distinctValues(values: Seq[String]): Seq[String] =
    values.filterNot(Values.isMissing).distinct

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
