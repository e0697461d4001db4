package repro.baselines

import repro.core.{Method, Rule, Tokens, Values}
import repro.lake.LakeColumn

/** Schema-matching baselines (§5.2): broaden the training sample with
  * "related" corpus columns before profiling, where related is determined by
  * instance overlap (SM-I-k) or by coarse-pattern agreement (SM-P-M/SM-P-P).
  * The augmented sample is profiled with Potter's Wheel (the paper's choice,
  * being the best-performing profiler).
  */
object SchemaMatching {

  /** Pre-digested corpus column: distinct values + signature statistics. */
  private final case class ColDigest(
      distinct: Set[String],
      values: Vector[String],
      pluralitySig: String,
      majoritySig: Option[String])

  private def digest(c: LakeColumn): ColDigest = {
    val vs = c.values.iterator.filterNot(Values.isMissing).take(200).toVector
    val sig = pluralitySignature(vs)
    ColDigest(vs.toSet, vs, sig.fold("")(_._1), sig.collect { case (k, true) => k })
  }

  /** The plurality coarse signature of `vs` (ties go to the larger key) and
    * whether it is also the majority one, held by more than half of `vs`;
    * `None` for no values.
    */
  private[baselines] def pluralitySignature(vs: Seq[String]): Option[(String, Boolean)] =
    if (vs.isEmpty) None
    else {
      val (k, n) = vs.groupMapReduce(Tokens.signatureKey)(_ => 1)(_ + _).maxBy { case (sig, cnt) => (cnt, sig) }
      Some((k, n * 2 > vs.size))
    }

  /** Shared digests for a corpus (built once, reused by all four methods). */
  final class CorpusView(columns: Seq[LakeColumn]) {
    private[SchemaMatching] val digests: Vector[ColDigest] =
      columns.map(digest).toVector
  }

  private val MaxAugmentValues = 2000

  private def profileAugmented(name: String, train: Seq[String],
                               related: Seq[ColDigest]): Option[Rule] = {
    val extra = related.iterator.flatMap(_.values).take(MaxAugmentValues - train.size).toVector
    PottersWheel.profile(train ++ extra).map(p => repro.core.StrictPatternRule(name, p))
  }

  /** SM-I-k: columns sharing ≥ k distinct instances with the training data
    * are treated as additional training examples.
    */
  final class InstanceBased(view: CorpusView, k: Int) extends Method {
    val name = s"SM-I-$k"
    def learn(train: Seq[String]): Option[Rule] = {
      val ts = train.filterNot(Values.isMissing).toSet
      if (ts.isEmpty) return None
      val related = view.digests.filter(d => d.distinct.count(ts.contains) >= k)
      profileAugmented(name, train.filter(_ != null), related)
    }
  }

  /** SM-P-M / SM-P-P: columns whose majority (resp. plurality) coarse
    * pattern equals that of the training data are additional examples.
    */
  final class PatternBased(view: CorpusView, majority: Boolean) extends Method {
    val name = if (majority) "SM-P-M" else "SM-P-P"
    def learn(train: Seq[String]): Option[Rule] = {
      val vs = train.filterNot(Values.isMissing)
      if (vs.isEmpty) return None
      val (sig, isMajority) = pluralitySignature(vs).get
      val related =
        if (!majority) view.digests.filter(_.pluralitySig == sig)
        else if (isMajority) view.digests.filter(_.majoritySig.contains(sig))
        else Vector.empty
      profileAugmented(name, vs, related)
    }
  }
}
