package repro.eval

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.index.{NoIndexFmdv, OfflineIndexer, PatternIndex}
import repro.lake._
import repro.eval.Eval.{EvalConfig, MethodScore}

/** Shared experiment engine: each paper table/figure has one runner that
  * returns both the rendered text table and the underlying numbers, used by
  * the `jobs/` spark-submit entrypoints and asserted on by `bench/` suites.
  */
object Runners {

  /** Lazily-built expensive artifacts of the corpora "E" (T_E, B_E) and "G"
    * (T_G, B_G): each lake's columns, generated once, the corpus RDD sliced
    * from them, its benchmark, and its indexes cached per τ.
    */
  final class Artifacts(val spark: SparkSession) {
    private final class Lake(cfg: LakeGen.LakeConfig, benchCfg: Benchmark.BenchConfig) {
      lazy val cols = LakeGen.generateColumns(cfg)
      lazy val corpus = LakeGen.corpus(spark, cols)
      lazy val bench = Benchmark.generate(benchCfg)
    }
    private val lakes = Map(
      "E" -> new Lake(LakeGen.Enterprise, Benchmark.EnterpriseBench),
      "G" -> new Lake(LakeGen.Government, Benchmark.GovernmentBench))
    private def lake(corpus: String): Lake =
      lakes.getOrElse(corpus, throw new IllegalArgumentException(s"unknown corpus $corpus"))

    def cols(corpus: String): Vector[LakeColumn] = lake(corpus).cols
    def corpus(corpus: String): RDD[LakeColumn] = lake(corpus).corpus
    def bench(corpus: String): Vector[Benchmark.BenchCase] = lake(corpus).bench

    private val indexCache = collection.mutable.HashMap.empty[(String, Int), PatternIndex]
    def index(corpus: String, tau: Int = Enumerate.DefaultTau): PatternIndex = synchronized {
      indexCache.getOrElseUpdate((corpus, tau), {
        val cols = lake(corpus).corpus
        val t0 = System.nanoTime()
        val idx = OfflineIndexer.buildIndex(cols, OfflineIndexer.IndexConfig(tau = tau))
        Console.err.println(
          f"[Runners] index($corpus, tau=$tau) size=${idx.size} in ${(System.nanoTime() - t0) / 1e9}%.1f s")
        idx
      })
    }
  }

  /** All compared validation methods (§5.2), in the paper's grouping. */
  def methods(index: PatternIndex, corpusCols: Seq[LakeColumn],
              cfg: FmdvConfig = FmdvConfig()): Vector[Method] = {
    val smView = new SchemaMatching.CorpusView(corpusCols)
    fmdvVariants(index, cfg) ++ Vector(
      new Dict.Tfdv,
      new Dict.DeequCat,
      new Dict.DeequFra,
      new PottersWheel.AsMethod,
      new Profilers.Ssis,
      new Profilers.XSystem,
      new Profilers.FlashProfile,
      new Grok.AsMethod,
      new SchemaMatching.InstanceBased(smView, 1),
      new SchemaMatching.InstanceBased(smView, 10),
      new SchemaMatching.PatternBased(smView, majority = true),
      new SchemaMatching.PatternBased(smView, majority = false))
  }

  /** The four FMDV variants, in Fig. 10's order. */
  def fmdvVariants(index: PatternIndex, cfg: FmdvConfig): Vector[Method] = Vector(
    new Fmdv.AsMethod(index, cfg),
    new FmdvV.AsMethod(index, cfg),
    new FmdvH.AsMethod(index, cfg),
    new FmdvH.VhMethod(index, cfg))

  // ------------------------------------------------------------------
  // Table 1 — corpus characteristics
  // ------------------------------------------------------------------
  final case class Table1Result(e: LakeGen.CorpusStats, g: LakeGen.CorpusStats, rendered: String)

  def table1(art: Artifacts): Table1Result = {
    val e = LakeGen.stats(art.spark, art.cols("E"))
    val g = LakeGen.stats(art.spark, art.cols("G"))
    def row(s: LakeGen.CorpusStats, label: String) =
      f"$label%-16s ${s.files}%8d ${s.cols}%9d ${s.avgValues}%8.0f (${s.sdValues}%.0f) ${s.avgDistinct}%8.0f (${s.sdDistinct}%.0f)"
    val rendered = Seq(
      "== Table 1: corpus characteristics ==",
      f"${"corpus"}%-16s ${"files"}%8s ${"cols"}%9s ${"avg values (sd)"}%16s ${"avg distinct (sd)"}%18s",
      row(e, "Enterprise (TE)"),
      row(g, "Government (TG)")).mkString("\n")
    Table1Result(e, g, rendered)
  }

  // ------------------------------------------------------------------
  // Figure 10 (as a table) — precision/recall of all methods
  // ------------------------------------------------------------------
  final case class Fig10Result(scores: Vector[MethodScore], fdUb: Double, adUb: Double,
                               nSubset: Int, nTotal: Int, rendered: String)

  def figure10(art: Artifacts, corpus: String): Fig10Result = {
    val index = art.index(corpus)
    val cases = art.bench(corpus)
    val subset = Eval.patternedSubset(cases)
    val ms = methods(index, art.cols(corpus))
    val t0 = System.nanoTime()
    val scores = Eval.evaluateAll(ms, cases)
    val evalMs = (System.nanoTime() - t0) / 1e6
    val fdUb = UpperBounds.fdUpperBoundRecall(subset)
    val adUb = UpperBounds.adUpperBoundRecall(subset, art.cols(corpus))
    val lines = scores.map(s => Eval.scoreRow(s.method, s.precision, s.recall)) ++
      Seq(Eval.scoreRow("FD-UB", 1.0, fdUb) + " (recall upper bound)",
        Eval.scoreRow("AD-UB", 1.0, adUb) + " (recall upper bound)")
    val rendered = (Seq(
      s"== Figure 10(${if (corpus == "E") "a" else "b"}) as a table: benchmark B_$corpus ==",
      s"(${subset.size} of ${cases.size} cases have syntactic patterns; scores on that subset)",
      Eval.scoreHeader) ++ lines :+ f"(evaluation wall time: $evalMs%.0f ms)").mkString("\n")
    Fig10Result(scores, fdUb, adUb, subset.size, cases.size, rendered)
  }

  // ------------------------------------------------------------------
  // Table 2 — programmatic evaluation vs hand-curated ground truth
  // ------------------------------------------------------------------
  final case class Table2Result(programmatic: MethodScore, groundTruth: MethodScore, rendered: String)

  def table2(art: Artifacts): Table2Result = {
    val index = art.index("E")
    val vh = new FmdvH.VhMethod(index)
    val prog = Eval.evaluate(vh, art.bench("E"), EvalConfig(groundTruth = false))
    val gt = Eval.evaluate(vh, art.bench("E"), EvalConfig(groundTruth = true))
    val rendered = Seq(
      "== Table 2: programmatic evaluation vs ground truth (FMDV-VH on B_E) ==",
      f"${"evaluation"}%-28s ${"precision"}%9s ${"recall"}%9s",
      f"${"Programmatic evaluation"}%-28s ${prog.precision}%9.3f ${prog.recall}%9.3f",
      f"${"Hand-curated ground-truth"}%-28s ${gt.precision}%9.3f ${gt.recall}%9.3f").mkString("\n")
    Table2Result(prog, gt, rendered)
  }

  // ------------------------------------------------------------------
  // Figure 12 (as tables) — sensitivity of FMDV variants to r, m, τ, θ
  // ------------------------------------------------------------------
  final case class SensResult(rows: Vector[(String, Double, String, Double, Double)], rendered: String)

  def sensitivity(art: Artifacts,
                  rs: Seq[Double] = Seq(0.0, 0.05, 0.15, 0.25),
                  ms: Seq[Long] = Seq(0L, 5L, 20L, 100L),
                  taus: Seq[Int] = Seq(8, 13),
                  thetas: Seq[Double] = Seq(0.02, 0.05, 0.1, 0.2)): SensResult = {
    val cases = art.bench("E")
    val rows = Vector.newBuilder[(String, Double, String, Double, Double)]
    def sweep(param: String, values: Seq[Double], mk: Double => (PatternIndex, FmdvConfig)): Unit =
      for (v <- values) {
        val (idx, cfg) = mk(v)
        for (s <- Eval.evaluateAll(fmdvVariants(idx, cfg), cases))
          rows += ((param, v, s.method, s.precision, s.recall))
      }
    sweep("r", rs, r => (art.index("E"), FmdvConfig(r = r)))
    sweep("m", ms.map(_.toDouble), m => (art.index("E"), FmdvConfig(m = m.toLong)))
    sweep("tau", taus.map(_.toDouble), t => (art.index("E", t.toInt), FmdvConfig(tau = t.toInt)))
    sweep("theta", thetas, th => (art.index("E"), FmdvConfig(theta = th)))
    val rs0 = rows.result()
    val rendered = (Seq("== Figure 12 as tables: sensitivity of FMDV variants (B_E) ==",
      f"${"param"}%-6s ${"value"}%8s ${"method"}%-10s ${"precision"}%9s ${"recall"}%9s") ++
      rs0.map { case (p, v, m, pr, rc) => f"$p%-6s $v%8.3f $m%-10s $pr%9.3f $rc%9.3f" }).mkString("\n")
    SensResult(rs0, rendered)
  }

  // ------------------------------------------------------------------
  // Figure 13 (as tables) — pattern distribution in the offline index
  // ------------------------------------------------------------------
  final case class PatternStatsResult(byLen: Map[Int, Long], covHist: Map[Int, Long],
                                      head: Seq[(String, repro.index.PatternStats)], rendered: String)

  def patternStats(art: Artifacts): PatternStatsResult = {
    val idx = art.index("E")
    val byLen = idx.byTokenLength
    val covHist = idx.coverageHistogram
    val head = idx.headPatterns(minCov = 30, maxFpr = 0.05, k = 15)
    val rendered = (Seq("== Figure 13 as tables: offline index pattern distribution (T_E) ==",
      s"index size: ${idx.size} patterns",
      "-- (a) patterns by token length --") ++
      byLen.toSeq.sorted.map { case (l, c) => f"  tokens=$l%2d  $c%9d" } ++
      Seq("-- (b) patterns by coverage bucket (2^k columns) --") ++
      covHist.toSeq.sorted.map { case (b, c) => f"  cov∈[2^$b%d,2^${b + 1}%d)  $c%9d" } ++
      Seq("-- head domain patterns (cov ≥ 30, FPR ≤ 0.05) --") ++
      head.map { case (k, st) => f"  ${Pattern.parse(k).display}%-50s cov=${st.cov}%5d fpr=${st.fpr}%.4f" })
      .mkString("\n")
    PatternStatsResult(byLen, covHist, head, rendered)
  }

  // ------------------------------------------------------------------
  // Figure 14 (as a table) — per-query-column latency
  // ------------------------------------------------------------------
  final case class LatencyResult(msPerMethod: Map[String, Double], rendered: String)

  /** Columns the no-index variant, which re-scans the corpus per query, is timed on. */
  private val NoIndexCols = 3

  /** Each method's average over every patterned B_E column (the no-index
    * variant's first [[NoIndexCols]]), and each FMDV variant's per-column
    * p50 / p95 / max, all from one timed pass per method after a warm-up
    * call.
    */
  def latency(art: Artifacts): LatencyResult = {
    val index = art.index("E")
    val all = Eval.patternedSubset(art.bench("E"))
    val corpus = art.corpus("E")

    /** Per-column times in ms, sorted, each with the column's domain. */
    def timed(cols: Seq[Benchmark.BenchCase])(f: Seq[String] => Any): Vector[(Double, String)] = {
      f(cols.head.train()) // warm-up
      cols.map { c =>
        val tr = c.train()
        val t0 = System.nanoTime()
        f(tr)
        ((System.nanoTime() - t0) / 1e6, c.domain)
      }.toVector.sortBy(_._1)
    }

    val fmdvs = Seq[(String, Seq[String] => Any)](
      "FMDV" -> (vs => Fmdv.solve(vs, index)),
      "FMDV-V" -> (vs => FmdvV.solve(vs, index)),
      "FMDV-H" -> (vs => FmdvH.solve(vs, index)),
      "FMDV-VH" -> (vs => FmdvH.solveVH(vs, index)))
    val others = Seq[(String, Seq[Benchmark.BenchCase], Seq[String] => Any)](
      ("PWheel", all, vs => PottersWheel.profile(vs)),
      ("XSystem", all, vs => new Profilers.XSystem().learn(vs)),
      ("FlashProfile", all, vs => new Profilers.FlashProfile().learn(vs)),
      ("FMDV(no-index)", all.take(NoIndexCols), vs => NoIndexFmdv.solve(vs, corpus)))
    val byCol = fmdvs.map { case (label, f) => label -> timed(all)(f) } ++
      others.map { case (label, cols, f) => label -> timed(cols)(f) }
    val m = byCol.map { case (label, ts) => label -> ts.map(_._1).sum / ts.size }.toMap
    val tail = for ((label, ts) <- byCol.take(fmdvs.size)) yield {
      def pct(p: Double): Double = ts((math.ceil(p * ts.size).toInt - 1).max(0))._1
      f"  $label%-15s p50 ${pct(0.5)}%8.2f  p95 ${pct(0.95)}%8.2f  max ${ts.last._1}%8.2f ms (${ts.last._2})"
    }
    val rendered = (Seq("== Figure 14 as a table: avg latency per query column (ms) ==") ++
      byCol.map { case (label, _) => f"  $label%-15s ${m(label)}%12.2f ms" } ++
      Seq(s"-- per column over all ${all.size} patterned B_E columns --") ++ tail).mkString("\n")
    LatencyResult(m, rendered)
  }

  // ------------------------------------------------------------------
  // Table 3 — (simulated) user study
  // ------------------------------------------------------------------
  final case class Table3Result(rows: Vector[(String, String, Double, Double, Double)], rendered: String)

  def table3(art: Artifacts, nCases: Int = 20): Table3Result = {
    val index = art.index("E")
    val sample = Eval.patternedSubset(art.bench("E")).take(nCases)
    val contenders: Vector[Method] = Programmers.all :+ new FmdvH.VhMethod(index)
    val rows = contenders.map { m =>
      val t0 = System.nanoTime()
      val score = Eval.evaluate(m, sample)
      val sec = (System.nanoTime() - t0) / 1e9 / sample.size
      val time = Programmers.PaperSeconds.get(m.name).map(s => s"${s * 1000} (paper)")
        .getOrElse(f"${sec * 1000}%.3f (measured)")
      (m.name, time, sec, score.precision, score.recall)
    }
    val rendered = (Seq(
      s"== Table 3: simulated user study ($nCases sampled B_E columns) ==",
      "(human seconds cannot be reproduced offline; paper times shown for the",
      " simulated programmer policies, measured time for the algorithm)",
      f"${"contender"}%-14s ${"time/col (ms)"}%16s ${"precision"}%9s ${"recall"}%9s") ++
      rows.map { case (n, t, _, p, r) => f"$n%-14s $t%16s $p%9.3f $r%9.3f" }).mkString("\n")
    Table3Result(rows, rendered)
  }

  // ------------------------------------------------------------------
  // Figure 15 (as a table) — schema-drift detection case study
  // ------------------------------------------------------------------
  final case class DriftResult(results: Vector[Drift.TaskResult], rendered: String)

  def drift(art: Artifacts): DriftResult = {
    val index = art.index("E")
    val res = Drift.run(new FmdvH.VhMethod(index))
    val detected = res.count(_.detected)
    val fps = res.count(_.falsePositive)
    val rendered = (Seq("== Figure 15 as a table: schema-drift detection on synthetic Kaggle-like tasks ==",
      f"${"task"}%-14s ${"drift detected"}%14s ${"false positive"}%14s") ++
      res.map(t => f"${t.task}%-14s ${if (t.detected) "yes" else "NO"}%14s ${if (t.falsePositive) "YES" else "no"}%14s") ++
      Seq(s"detected in $detected/11 tasks, $fps false positives (paper: 8/11, 0 FPs)")).mkString("\n")
    DriftResult(res, rendered)
  }
}
