package repro.index

import scala.collection.mutable
import repro.core.Pattern
import repro.core.Pattern.PTok

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

  /** Token key → the slots ([[PatternIndex.slot]]) at which some key holds
    * that token. Built on first use by one scan that splits the keys
    * without parsing them, and never serialized with the index.
    */
  @transient private lazy val vocabulary: collection.Map[String, mutable.BitSet] = {
    val slots = mutable.HashMap.empty[String, mutable.BitSet]
    for (key <- entries.keysIterator) {
      val toks = Pattern.tokenKeysOf(key)
      var d = 0
      while (d < toks.length) {
        slots.getOrElseUpdate(toks(d), mutable.BitSet.empty) += PatternIndex.slot(toks.length, d)
        d += 1
      }
    }
    slots
  }

  /** The slots at which some key of this index holds `tok`: slot(L, d) is
    * set when a key of L tokens has `tok` at position d. A pattern whose
    * token misses its slot is not a key.
    */
  def slotsOf(tok: PTok): collection.BitSet =
    vocabulary.getOrElse(Pattern.tokenKey(tok), collection.BitSet.empty)

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
}
