package repro.lake

import scala.util.Random
import repro.lake.Domains.Domain

/** Benchmark construction (§5.1): query columns sampled from the same domain
  * population as the corpus, each split into a 10% training prefix (the data
  * "observed so far") and a 90% testing suffix (the data "arriving later").
  *
  * Ground-truth information carried along (never shown to inference):
  *  - the generating domain (recall adjustment of Table 2: flagging another
  *    column of the same domain is not a recall loss);
  *  - positions of injected header-like noise values in the test split
  *    (precision adjustment of Table 2: the manual pass removed values that
  *    "should not belong to the column");
  *  - an optional determinant sibling column (for the FD-UB analysis).
  */
object Benchmark {

  /** The share of each column that is its training prefix (§5.1). */
  val TrainFrac = 0.1

  /** The length of the training prefix of `n` values: at least one value. */
  private def trainSize(n: Int, trainFrac: Double): Int = math.max(1, (n * trainFrac).toInt)

  final case class BenchCase(
      id: String,
      domain: String,
      isNL: Boolean,
      groundTruth: String,
      values: Vector[String],
      noiseIdx: Set[Int],
      sibling: Option[Vector[String]]) {

    def train(trainFrac: Double = TrainFrac): Vector[String] = values.take(trainSize(values.size, trainFrac))

    def test(trainFrac: Double = TrainFrac): Vector[String] = values.drop(trainSize(values.size, trainFrac))

    /** Test split with injected noise removed (ground-truth evaluation). */
    def testClean(trainFrac: Double = TrainFrac): Vector[String] =
      values.zipWithIndex.drop(trainSize(values.size, trainFrac)).collect {
        case (v, i) if !noiseIdx.contains(i) => v
      }
  }

  final case class BenchConfig(
      corpus: String,
      seed: Long,
      nCases: Int,
      nlFrac: Double,
      valuesPerCase: Int,
      dirtyFrac: Double = 0.2,
      dirtyRate: Double = 0.03,
      noiseFrac: Double = 0.10,
      siblingFrac: Double = 0.6)

  /** B_E: 200 cases of 300 values (the paper: 1000 × 1000, scaled down). */
  val EnterpriseBench: BenchConfig = BenchConfig(
    corpus = "E", seed = 101L, nCases = 200, nlFrac = 0.40,
    valuesPerCase = 300)

  /** B_G: shorter, dirtier cases (the paper used 100 values per column). */
  val GovernmentBench: BenchConfig = BenchConfig(
    corpus = "G", seed = 202L, nCases = 150, nlFrac = 0.40,
    valuesPerCase = 100, dirtyFrac = 0.3, dirtyRate = 0.06, noiseFrac = 0.15)

  private val NoiseValues = Vector("ship_date", "VALUE", "column1", "key", "Total:", "__header__")

  private def weightedPick(r: Random, ds: Vector[Domain]): Domain = {
    val total = ds.map(_.popularity).sum
    var x = r.nextInt(total)
    for (d <- ds) { x -= d.popularity; if (x < 0) return d }
    ds.last
  }

  /** A deterministic determinant sibling: each distinct value of the case
    * maps to one key token, so (sibling → case-column) is a functional
    * dependency on the table instance. Whether FD-UB counts the case depends
    * on the miner finding a *non-trivial* FD (LHS with duplicates) — true
    * for enum-like domains, false for key-like ones.
    */
  private def makeSibling(values: Vector[String]): Vector[String] = {
    val keyOf = values.distinct.zipWithIndex.toMap
    values.map(v => s"K${keyOf(v)}")
  }

  def generate(cfg: BenchConfig): Vector[BenchCase] = {
    val nNl = math.round(cfg.nCases * cfg.nlFrac).toInt
    val nMg = cfg.nCases - nNl
    val out = Vector.newBuilder[BenchCase]
    for (i <- 0 until cfg.nCases) {
      val r = new Random(cfg.seed * 1000003L + i * 6971L + 5L)
      val isNl = i >= nMg
      val d = if (isNl) weightedPick(r, Domains.naturalLanguage)
              else weightedPick(r, Domains.machineGenerated)
      var vals = d.make(r, cfg.valuesPerCase)
      // dirty cases: one special marker sprinkled through the whole column
      if (!isNl && r.nextDouble() < cfg.dirtyFrac) {
        val marker = Domains.pickSpecialMarker(r)
        vals = vals.map(v => if (r.nextDouble() < cfg.dirtyRate) marker else v)
      }
      // header-like noise injected into the TEST portion only
      var noise = Set.empty[Int]
      if (!isNl && r.nextDouble() < cfg.noiseFrac) {
        val off = trainSize(vals.size, TrainFrac)
        val k = 1 + r.nextInt(2)
        val idx = Vector.fill(k)(off + r.nextInt(vals.size - off)).distinct
        vals = idx.foldLeft(vals)((acc, j) =>
          acc.updated(j, NoiseValues(r.nextInt(NoiseValues.length))))
        noise = idx.toSet
      }
      val sibling = if (r.nextDouble() < cfg.siblingFrac) Some(makeSibling(vals)) else None
      out += BenchCase(s"${cfg.corpus}-${"%03d".format(i)}", d.name, d.isNL,
        d.groundTruth, vals, noise, sibling)
    }
    out.result()
  }
}
