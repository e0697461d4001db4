package repro.index

import scala.collection.mutable
import repro.core.Pattern
import repro.core.Pattern.{Code, GClass, Literals, PTok}

/** Pre-computed corpus statistics for one pattern (§2.4 offline stage):
  * estimated false-positive rate FPR_T(p) and coverage Cov_T(p).
  */
final case class PatternStats(fpr: Double, cov: Long)

/** The offline index: pattern-key → (FPR_T, Cov_T). Orders of magnitude
  * smaller than the corpus; online inference only performs lookups here.
  */
final class PatternIndex(val entries: Map[String, PatternStats]) extends Serializable {

  def lookup(key: String): Option[PatternStats] = entries.get(key)

  def size: Int = entries.size

  /** The index in token ids, for the online selection: built on first use
    * by one scan that splits the keys without parsing them, and never
    * serialized with the index.
    */
  @transient private[repro] lazy val ids: PatternIndex.Ids = new PatternIndex.Ids(entries)

  /** The slots at which some key of this index holds `tok`: slot(L, d) is
    * set when a key of L tokens has `tok` at position d. A pattern whose
    * token misses its slot is not a key.
    */
  def slotsOf(tok: PTok): collection.BitSet = {
    val t = Code.encode(tok, ids.literal)
    if (t < 0) collection.BitSet.empty else ids.slots(t)
  }

  /** Pattern count by token-length (Fig. 13a). */
  def byTokenLength: Map[Int, Long] =
    entries.keysIterator
      .map(Pattern.tokenLengthOfKey)
      .toSeq.groupBy(identity).map { case (l, xs) => l -> xs.size.toLong }

  /** Coverage histogram in powers of two (Fig. 13b: power-law head/tail).
    * Key = floor(log2(cov)), value = number of patterns in the bucket.
    */
  def coverageHistogram: Map[Int, Long] =
    entries.valuesIterator
      .map(s => (math.log(s.cov.toDouble.max(1.0)) / math.log(2)).toInt)
      .toSeq.groupBy(identity).map { case (b, xs) => b -> xs.size.toLong }

  /** "Head" domain patterns: high coverage, low FPR (§5.3 pattern analysis). */
  def headPatterns(minCov: Long, maxFpr: Double, k: Int): Seq[(String, PatternStats)] =
    entries.toSeq
      .filter { case (_, s) => s.cov >= minCov && s.fpr <= maxFpr }
      .sortBy { case (key, s) => (-s.cov, s.fpr, key) }
      .take(k)
}

object PatternIndex {
  /** The bit of (token length L ≥ 1, position 0 ≤ d < L) in [[PatternIndex.slotsOf]]. */
  def slot(len: Int, d: Int): Int = len * (len - 1) / 2 + d

  /** The entries of an index in token ids: a class token's id is its
    * [[Code]], a literal's its code in the index's own literal table; each
    * token id has the slots at which keys hold it, and each entry e its
    * token-id sequence, `fpr(e)`, `cov(e)` and `key(e)`. An open-addressing
    * table finds an entry by its id sequence. Immutable once built, so
    * learners may share it across threads.
    */
  private[repro] final class Ids(entries: Map[String, PatternStats]) {
    private val literals = new Literals
    /** slotSets(at(t)): token id t's slots, null when no key holds it. */
    private val slotSets = mutable.ArrayBuffer.empty[mutable.BitSet]
    private val n = entries.size
    val key = new Array[String](n)
    val fpr = new Array[Double](n)
    val cov = new Array[Long](n)
    /** Entry e's token ids are toks(from(e)) … toks(from(e + 1) − 1). */
    private val from = new Array[Int](n + 1)
    private var toks = new Array[Int](4 * n + 16)
    private val bits = 32 - Integer.numberOfLeadingZeros(2 * n + 1)
    private val table = new Array[Int](1 << bits) // 1 + an entry, 0 for none

    {
      val idOf = new java.util.HashMap[String, Integer] // token key → token id, each parsed once
      var e = 0
      for ((k, st) <- entries) {
        key(e) = k; fpr(e) = st.fpr; cov(e) = st.cov
        val tks = Pattern.tokenKeysOf(k)
        if (from(e) + tks.length > toks.length) toks = java.util.Arrays.copyOf(toks, 2 * (from(e) + tks.length))
        var d = 0
        while (d < tks.length) {
          var t = idOf.get(tks(d))
          if (t == null) { t = Code.encode(Pattern.parse(tks(d)).toks.head, literals.code(_, intern = true)); idOf.put(tks(d), t) }
          val i = at(t)
          while (slotSets.length <= i) slotSets += null
          if (slotSets(i) == null) slotSets(i) = mutable.BitSet.empty
          slotSets(i) += slot(tks.length, d)
          toks(from(e) + d) = t
          d += 1
        }
        from(e + 1) = from(e) + tks.length
        table(find(toks, from(e), tks.length)) = e + 1
        e += 1
      }
    }

    /** The table slot of the entry with ids seq(at) … seq(at + len − 1), or the empty slot it would take. */
    private def find(seq: Array[Int], at: Int, len: Int): Int = {
      var h = len
      var j = 0
      while (j < len) { h = 31 * h + seq(at + j); j += 1 }
      val mask = (1 << bits) - 1
      var i = (h * 0x9E3779B9) >>> (32 - bits)
      while (table(i) != 0 && !same(table(i) - 1, seq, at, len)) i = (i + 1) & mask
      i
    }

    private def same(e: Int, seq: Array[Int], at: Int, len: Int): Boolean =
      from(e + 1) - from(e) == len && java.util.Arrays.equals(toks, from(e), from(e + 1), seq, at, at + len)

    /** The id of literal `text`, or −1 when no key holds it. */
    def literal(text: String): Int = literals.code(text, intern = false)

    /** True when some key holds token id t. */
    def holds(t: Int): Boolean = at(t) < slotSets.length && slotSets(at(t)) != null

    /** The slots of token id t, empty when no key holds it. */
    def slots(t: Int): collection.BitSet = if (holds(t)) slotSets(at(t)) else collection.BitSet.empty

    /** Token id t's place in `slotSets`: a literal's is even, a class
      * code's odd, by its length and class, so no table maps codes.
      */
    private def at(t: Int): Int =
      if (Code.isLiteral(t)) 2 * t else 2 * (GClass.all.length * Code.length(t) + Code.order(t)) + 1

    /** The entry whose token ids are seq(0) … seq(len − 1), or −1. */
    def entry(seq: Array[Int], len: Int): Int = table(find(seq, 0, len)) - 1
  }
}
