package repro.baselines

import repro.core.{Method, Rule}

/** Dictionary-based validation baselines (§5.2).
  *
  * Re-implementations of the validation-relevant logic of TFDV and Deequ
  * (the binaries are unavailable offline; see DESIGN.md §3.4):
  *
  *  - TFDV infers a domain = the set of values seen in training and flags
  *    any future value outside it (its string-column suggestion).
  *  - Deequ's CategoricalRangeRule suggests a fixed dictionary only when the
  *    column looks categorical (top values cover most of the data).
  *  - Deequ's FractionalCategoricalRangeRule requires only a *fraction* of
  *    future values to fall in the dictionary.
  */
object Dict {

  /** Flags a batch when any value is outside the learned dictionary. */
  final case class CompleteDictRule(name: String, dict: Set[String]) extends Rule {
    def flags(test: Seq[String]): Boolean = test.exists(v => !dict.contains(v))
    def describe: String = s"value ∈ dict(${dict.size})"
  }

  /** Flags a batch when less than `minInDict` of values are in-dictionary. */
  final case class FractionalDictRule(name: String, dict: Set[String], minInDict: Double) extends Rule {
    /** The in-dictionary fraction is monotone in the count, so the values
      * are read only until the full count can no longer cross `minInDict`.
      */
    def flags(test: Seq[String]): Boolean = {
      val n = test.size
      if (n == 0) return false
      val it = test.iterator
      var in = 0
      var left = n
      while (in.toDouble / n < minInDict && (in + left).toDouble / n >= minInDict) {
        if (dict.contains(it.next())) in += 1
        left -= 1
      }
      in.toDouble / n < minInDict
    }
    def describe: String = f"≥$minInDict%.2f of values ∈ dict(${dict.size})"
  }

  /** TFDV: always suggests the seen-values dictionary for string columns. */
  final class Tfdv extends Method {
    val name = "TFDV"
    def learn(train: Seq[String]): Option[Rule] =
      if (train.isEmpty) None else Some(CompleteDictRule(name, train.toSet))
  }

  /** Deequ-Cat: dictionary rule, suggested only for categorical-looking
    * columns (distinct ratio below `maxDistinctRatio`, mirroring Deequ's
    * categorical-range heuristic).
    */
  final class DeequCat(maxDistinctRatio: Double = 0.4) extends Method {
    val name = "Deequ-Cat"
    def learn(train: Seq[String]): Option[Rule] = {
      if (train.isEmpty) return None
      val distinct = train.distinct.size
      if (distinct.toDouble / train.size <= maxDistinctRatio)
        Some(CompleteDictRule(name, train.toSet))
      else None
    }
  }

  /** Deequ-Fra: fractional dictionary — the dictionary of values covering
    * ≥ `coverage` of training data must keep covering ≥ `coverage` (with a
    * small allowance) of future data.
    */
  final class DeequFra(coverage: Double = 0.9, allowance: Double = 0.05) extends Method {
    val name = "Deequ-Fra"
    def learn(train: Seq[String]): Option[Rule] = {
      if (train.isEmpty) return None
      val byFreq = train.groupBy(identity).toSeq.sortBy(-_._2.size)
      val need = math.ceil(coverage * train.size).toInt
      val dict = collection.mutable.LinkedHashSet.empty[String]
      var got = 0
      for ((v, occ) <- byFreq if got < need) { dict += v; got += occ.size }
      Some(FractionalDictRule(name, dict.toSet, math.max(0.0, coverage - allowance)))
    }
  }
}
