package repro.index

import org.apache.spark.sql.Dataset
import repro.core.{Enumerate, Fmdv, FmdvConfig, Solution}
import repro.lake.LakeColumn

/** "FMDV (no-index)" reference point of Fig. 14: solve FMDV by re-scanning
  * the corpus for every query column instead of using the offline index.
  * Functionally identical to [[repro.core.Fmdv]] over an index restricted to
  * H(C); many orders of magnitude slower per query, which is the point.
  */
object NoIndexFmdv {

  def solve(values: Seq[String], corpus: Dataset[LakeColumn],
            cfg: FmdvConfig = FmdvConfig(),
            idxCfg: OfflineIndexer.IndexConfig = OfflineIndexer.IndexConfig()): Option[Solution] = {
    val hs = Enumerate.hypothesis(values, cfg.tau, cfg.cap)
    if (hs.isEmpty) return None
    val wanted = hs.map(_.key).toSet
    Fmdv.best(hs, OfflineIndexer.aggregate(corpus, idxCfg, wanted), cfg)
  }
}
