package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.jdk.CollectionConverters._
import repro.core._
import repro.core.Pattern.Pat
import repro.index.{OfflineIndexer, PatternIndex}
import repro.lake.LakeColumn
import repro.stats.StatTests

/** Per-layer replays of the traced run. Each replays one layer's public
  * calls on the workload's inputs and times them from outside; no span
  * lives inside the program.
  */
object Layers {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def cpuNs(): Long = threads.getCurrentThreadCpuTime
  def allocBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)
  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, System.nanoTime() - t0)
  }

  private final class IndexAcc {
    var tokensNs, tokenValues, enumNs, enumAlloc, distinct, patterns, patternsMax = 0L
    var scanned, skippedWide = 0L
    def add(o: IndexAcc): Unit = {
      tokensNs += o.tokensNs; tokenValues += o.tokenValues; enumNs += o.enumNs
      enumAlloc += o.enumAlloc; distinct += o.distinct; patterns += o.patterns
      patternsMax = math.max(patternsMax, o.patternsMax)
      scanned += o.scanned; skippedWide += o.skippedWide
    }
  }

  /** The indexer's per-column work, replayed the way `OfflineIndexer`
    * reads a column: the first `maxValues` non-empty values, the τ filter
    * through `Tokens.effectiveTokenCount`, then
    * `Enumerate.columnPatternCounts`. Columns are spread over `nThreads`
    * threads; busy times are summed thread CPU times, so they equal
    * single-thread work.
    */
  def indexLayers(cols: Seq[LakeColumn], nThreads: Int): Map[String, Double] = {
    val cfg = OfflineIndexer.IndexConfig()
    def replay(part: Seq[LakeColumn]): IndexAcc = {
      val a = new IndexAcc
      for (c <- part) {
        val vs = c.values.iterator.filter(v => v != null && v.nonEmpty).take(cfg.maxValues).toVector
        val t0 = cpuNs()
        val enumerable = vs.count(v => Tokens.effectiveTokenCount(v) <= cfg.tau)
        a.tokensNs += cpuNs() - t0
        a.tokenValues += vs.size
        if (vs.nonEmpty && enumerable < cfg.minEnumerable * vs.size) a.skippedWide += 1
        else if (vs.nonEmpty) {
          a.scanned += 1
          val c0 = cpuNs(); val b0 = allocBytes()
          Enumerate.columnPatternCounts(vs, cfg.tau, cfg.capPerValue)
          a.enumNs += cpuNs() - c0
          a.enumAlloc += allocBytes() - b0
          for (v <- vs.distinct) {
            val k = Enumerate.patternKeysOf(v, cfg.tau, cfg.capPerValue).size.toLong
            a.distinct += 1; a.patterns += k; a.patternsMax = math.max(a.patternsMax, k)
          }
        }
      }
      a
    }
    val pool = Executors.newFixedThreadPool(nThreads)
    val total = new IndexAcc
    try {
      val parts = cols.zipWithIndex.groupBy(_._2 % nThreads).values.map(_.map(_._1)).toVector
      val futures = parts.map(p => pool.submit(new Callable[IndexAcc] { def call(): IndexAcc = replay(p) }))
      futures.foreach(f => total.add(f.get()))
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
    val pats = math.max(1L, total.patterns).toDouble
    Map(
      "tokens.busy_s" -> total.tokensNs / 1e9,
      "tokens.values" -> total.tokenValues.toDouble,
      "enumerate.busy_s" -> total.enumNs / 1e9,
      "enumerate.distinct_values" -> total.distinct.toDouble,
      "enumerate.patterns" -> total.patterns.toDouble,
      "enumerate.patterns_max" -> total.patternsMax.toDouble,
      "enumerate.ns_per_pattern" -> total.enumNs / pats,
      "enumerate.alloc_bytes_per_pattern" -> total.enumAlloc / pats,
      "indexer.cols_scanned" -> total.scanned.toDouble,
      "indexer.cols_skipped_wide" -> total.skippedWide.toDouble)
  }

  private def pctl(xs: Seq[Int], q: Double): Double =
    if (xs.isEmpty) 0.0 else xs.sorted.apply(math.max(0, math.ceil(q * xs.size).toInt - 1)).toDouble

  /** The online learning layers, one call at a time on every learn-set
    * column: H(C) and the index lookups of FMDV, FMDV-H's per-column counts
    * and key parses, and FMDV-V's MSA and Eq. 11 segment solves. FMDV-V's
    * DP self time is its `FmdvV.solve` wall time minus the replayed MSA and
    * segment solves.
    */
  def learnLayers(train: Seq[Vector[String]], idx: PatternIndex, cfg: FmdvConfig): Map[String, Double] = {
    var hypNs, bestNs, lookups, hits, feasible, noRule = 0L
    var countsNs, candidates, parseNs = 0L
    var msaNs, segments, skippedTau, segNs, solveNs, vMaxNs, fallthrough = 0L
    val hSizes = Vector.newBuilder[Int]
    val profiles = Vector.newBuilder[Int]
    for (tr <- train) {
      val (hs, tHyp) = timed(Enumerate.hypothesis(tr, cfg.tau, cfg.cap))
      hypNs += tHyp; hSizes += hs.size
      lookups += hs.size; hits += hs.count(h => idx.lookup(h.key).isDefined)
      val (best, tBest) = timed(Fmdv.best(hs, idx, cfg))
      bestNs += tBest
      if (best.isDefined) feasible += 1 else noRule += 1

      val nonNull = tr.filter(_ != null)
      val need = math.ceil((1 - cfg.theta) * nonNull.size).toInt
      val (counts, tCounts) = timed(Enumerate.columnPatternCounts(nonNull, cfg.tau, cfg.cap))
      countsNs += tCounts
      val keys = counts.iterator.collect { case (k, n) if n >= need => k }.toVector
      candidates += keys.size
      parseNs += timed(keys.foreach(Pattern.parse))._2
      if (FmdvH.solve(tr, idx, cfg).isEmpty) fallthrough += 1

      val (_, tSolve) = timed(FmdvV.solve(tr, idx, cfg))
      solveNs += tSolve; vMaxNs = math.max(vMaxNs, tSolve)
      val vs = tr.filter(v => v != null && v.nonEmpty).distinct
      val (al, tMsa) = timed(Msa.alignValues(vs))
      msaNs += tMsa; profiles += al.length
      // the segments FmdvV's memoised DP solves: every [s, e] of the profile
      for (s <- 0 until al.length; e <- s until al.length) {
        val sub = al.segmentValues(s, e)
        if (sub.exists(_.isEmpty)) ()
        else if (e - s + 1 > cfg.tau && sub.exists(v => Tokens.effectiveTokenCount(v) > cfg.tau)) skippedTau += 1
        else if ((s to e).forall(i => al.profile(i).cls == Tokens.Cls.Symbol) && sub.distinct.size == 1) ()
        else { segments += 1; segNs += timed(Fmdv.solve(sub, idx, cfg))._2 }
      }
    }
    val h = hSizes.result(); val p = profiles.result()
    Map(
      "enumerate.hypothesis_s" -> hypNs / 1e9,
      "enumerate.h_size_p50" -> pctl(h, 0.5),
      "enumerate.h_size_max" -> h.maxOption.getOrElse(0).toDouble,
      "index.lookups" -> lookups.toDouble,
      "index.hits" -> hits.toDouble,
      "index.hit_ratio" -> hits.toDouble / math.max(1L, lookups),
      "fmdv.best_s" -> bestNs / 1e9,
      "fmdv.feasible" -> feasible.toDouble,
      "fmdv.no_rule" -> noRule.toDouble,
      "fmdv_h.column_counts_s" -> countsNs / 1e9,
      "fmdv_h.candidates" -> candidates.toDouble,
      "pattern.parse_s" -> parseNs / 1e9,
      "msa.busy_s" -> msaNs / 1e9,
      "msa.profile_len_p50" -> pctl(p, 0.5),
      "msa.profile_len_max" -> p.maxOption.getOrElse(0).toDouble,
      "fmdv_v.solve_s" -> solveNs / 1e9,
      "fmdv_v.segments" -> segments.toDouble,
      "fmdv_v.segments_skipped_tau" -> skippedTau.toDouble,
      "fmdv_v.segment_solve_s" -> segNs / 1e9,
      "fmdv_v.dp_self_s" -> (solveNs - msaNs - segNs) / 1e9,
      "fmdv_vh.fallthrough" -> fallthrough.toDouble,
      "learn_fmdv_v_max_ms" -> vMaxNs / 1e6)
  }

  /** Rule application, replayed call by call: regex compilation, every
    * `Pat.matches` a rule makes (strict rules stop at the first miss) and
    * the Fisher tests of tolerant rules. Returns the alarm count too, so the
    * caller can compare it with the verdicts of the timed passes.
    */
  def validateLayers(rules: Seq[Rule], batches: Seq[Vector[String]]): Map[String, Double] = {
    var compileNs, matchCalls, offered, matchNs, fisherCalls, fisherNs, nBatches, alarms = 0L
    for (r <- rules) {
      val pat = rulePattern(r)
      compileNs += timed(Pat(pat.toks).compiled)._2
      for (b <- batches) {
        nBatches += 1; offered += b.size
        val alarm = r match {
          case _: StrictPatternRule =>
            var i = 0; var miss = false
            val t0 = System.nanoTime()
            while (!miss && i < b.size) { if (!pat.matches(b(i))) miss = true; i += 1 }
            matchNs += System.nanoTime() - t0
            matchCalls += i
            miss
          case t: TolerantPatternRule =>
            val (bad, tm) = timed(b.count(v => v == null || !pat.matches(v)))
            matchNs += tm; matchCalls += b.size
            b.nonEmpty && bad.toDouble / b.size > t.thetaTrain && {
              require(!t.useChiSq, "the benchmark's rules use Fisher's test")
              val (p, tf) = timed(StatTests.fisherExactTwoTailed(
                t.nonConfTrain, t.nTrain - t.nonConfTrain, bad, b.size - bad))
              fisherCalls += 1; fisherNs += tf
              p < t.alpha
            }
          case _ => false
        }
        if (alarm) alarms += 1
      }
    }
    Map(
      "pattern.compile_s" -> compileNs / 1e9,
      "pattern.match_calls" -> matchCalls.toDouble,
      "pattern.match_s" -> matchNs / 1e9,
      "pattern.values_examined_ratio" -> matchCalls.toDouble / math.max(1L, offered),
      "stats.fisher_calls" -> fisherCalls.toDouble,
      "stats.fisher_s" -> fisherNs / 1e9,
      "validator.batches" -> nBatches.toDouble,
      "validator.alarms" -> alarms.toDouble)
  }

  /** The pattern a FMDV-family rule applies. */
  def rulePattern(r: Rule): Pat = r match {
    case s: StrictPatternRule   => s.pat
    case t: TolerantPatternRule => t.pat
    case other => throw new IllegalStateException(s"unexpected rule ${other.name}")
  }
}
