package repro.index

import org.apache.spark.rdd.RDD
import repro.core.{Enumerate, Fmdv, Solution}
import repro.lake.LakeColumn

/** "FMDV (no-index)" reference point of Fig. 14: solve FMDV by re-scanning
  * the corpus for every query column instead of using the offline index.
  * Functionally identical to [[repro.core.Fmdv]] over an index restricted to
  * H(C); many orders of magnitude slower per query, which is the point.
  */
object NoIndexFmdv {

  /** `Fmdv.solve` on the index of H(C)'s keys that one rescan aggregates. */
  def solve(values: Seq[String], corpus: RDD[LakeColumn]): Option[Solution] =
    scan(values, corpus).flatMap(Fmdv.solve(values, _))

  /** That index, aggregated as the indexer would; no rescan when H(C) is empty. */
  private[index] def scan(values: Seq[String], corpus: RDD[LakeColumn]): Option[PatternIndex] =
    Some(Enumerate.hypothesis(values).map(_.key).toSet).filter(_.nonEmpty)
      .map(OfflineIndexer.aggregate(corpus, OfflineIndexer.IndexConfig(), _))
}
