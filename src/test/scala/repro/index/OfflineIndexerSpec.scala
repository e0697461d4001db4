package repro.index

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.core.{EnumerateOracle, EnumerateOracleSpec, Pattern}
import repro.core.Pattern._
import repro.index.OfflineIndexer.IndexConfig
import repro.lake.LakeColumn

/** Offline indexing: local evidence, the one-pass aggregation (checked
  * against DuckDB and across corpus slicings), pruning, and persistence.
  */
class OfflineIndexerSpec extends SparkSpec {

  private val cfg = IndexConfig()
  private def col(id: String, vals: Seq[String]): LakeColumn =
    LakeColumn("T", "t0", id, id, "", vals)

  test("localEvidence: pure column has impurity 0 for its patterns") {
    val ev = OfflineIndexer.localEvidence(Seq("12", "34", "56"), cfg).toMap
    val d2 = Pat(Vector(FixLen(GClass.Digit, 2))).key
    assert(ev(d2) == 0.0)
  }

  test("localEvidence: impurity is the non-matching fraction (Def. 1)") {
    val ev = OfflineIndexer.localEvidence(Seq("12", "34", "567", "890"), cfg).toMap
    val d3 = Pat(Vector(FixLen(GClass.Digit, 3))).key
    assert(math.abs(ev(d3) - 0.5) < 1e-12) // "567" and "890" match <digit>{3}
  }

  test("localEvidence: Algorithm 1 coverage threshold drops stray shapes") {
    val vals = Vector.fill(30)("12/31/2020") :+ "NULL"
    val ev = OfflineIndexer.localEvidence(vals, cfg).toMap
    val letters = Pat(Vector(VarLen(GClass.Upper))).key
    assert(!ev.contains(letters), "a single NULL must not register letter patterns for this column")
  }

  test("localEvidence: empty values are skipped") {
    assert(OfflineIndexer.localEvidence(Seq("", null), cfg).isEmpty)
  }

  test("localEvidence: maxValues caps the scan") {
    val vals = (1 to 500).map(_.toString)
    val ev = OfflineIndexer.localEvidence(vals, cfg.copy(maxValues = 50))
    assert(ev.nonEmpty)
  }

  test("localEvidence: wide columns are skipped entirely (§2.4)") {
    val wide = (1 to 30).map(i => (1 to 20).map(_ => i).mkString("-"))
    assert(OfflineIndexer.localEvidence(wide, cfg).isEmpty)
  }

  test("localEvidence: guid columns are enumerable via the merged granularity") {
    val g = Seq("b0a04f4b-a1e7-564b-7ccf-e267be6c2295", "34d52294-ca91-91cc-0553-d06cf1b87d43")
    val ev = OfflineIndexer.localEvidence(g, cfg).toMap
    assert(ev.keys.exists(k => Pattern.parse(k).display ==
      "<alnum>{8}-<alnum>{4}-<alnum>{4}-<alnum>{4}-<alnum>{12}"))
  }

  /** A corpus Dataset cut into exactly `slices` partitions, in order. */
  private def sliced(cols: Seq[LakeColumn], slices: Int) = {
    import spark.implicits._
    val ds = spark.createDataset(spark.sparkContext.parallelize(cols, slices))
    assert(ds.rdd.getNumPartitions == slices)
    ds
  }

  test("build: aggregation matches DuckDB (oracle)") {
    import spark.implicits._
    val cols = Vector(
      col("c1", Seq("12", "34", "567")),
      col("c2", Seq("88", "9", "77")),
      col("c3", Seq("ab", "cd", "ef")),
      col("c4", Seq("12/31/2020", "1/2/2021")))
    val built = OfflineIndexer.buildIndex(sliced(cols, 3), cfg).entries.toSeq
      .map { case (k, st) => (k, st.fpr, st.cov) }.toDF("pattern", "fpr", "cov")
    // reference evidence computed driver-side with the same local function
    val ev = cols.flatMap(c => OfflineIndexer.localEvidence(c.values, cfg))
    val evDf = ev.toDF("pattern", "imp")
    Oracle.assertEquivalent(
      built,
      s"""SELECT pattern, avg(CAST(imp AS DOUBLE)) AS fpr, count(*) AS cov
         |FROM ev GROUP BY pattern HAVING count(*) >= ${cfg.minCov}""".stripMargin,
      "ev" -> evDf)
  }

  test("build: the index does not depend on how the corpus is sliced") {
    def same(a: PatternIndex, b: PatternIndex, what: String): Unit = {
      assert(a.entries.keySet == b.entries.keySet, what)
      for ((k, st) <- a.entries) {
        assert(b.entries(k).cov == st.cov, s"$what: $k")
        assert(math.abs(b.entries(k).fpr - st.fpr) <= 1e-12, s"$what: $k")
      }
    }
    val cols = TestFixtures.corpusGColumns.take(160)
    val one = OfflineIndexer.buildIndex(sliced(cols, 1), cfg)
    assert(one.size > 100)
    for (n <- Seq(3, 17)) same(one, OfflineIndexer.buildIndex(sliced(cols, n), cfg), s"$n slices")
    // more slices than columns: most partitions are empty
    val few = cols.take(12)
    same(OfflineIndexer.buildIndex(sliced(few, 1), cfg),
      OfflineIndexer.buildIndex(sliced(few, few.size + 5), cfg), "empty partitions")
  }

  test("build: a corpus without enumerable columns gives an empty index") {
    val wide = (1 to 30).map(i => (1 to 20).map(_ => i).mkString("-"))
    assert(OfflineIndexer.buildIndex(sliced(Nil, 4), cfg).size == 0)
    val unusable = Vector(col("nulls", Seq(null, null)), col("empty", Seq("", null)),
      col("wide1", wide), col("wide2", wide.reverse))
    assert(OfflineIndexer.buildIndex(sliced(unusable, 3), cfg).size == 0)
  }

  test("build: the test lake's index equals one aggregated from the cross-product oracle") {
    val ev = EnumerateOracleSpec.inParallel(TestFixtures.corpusEColumns)(c =>
      EnumerateOracle.localEvidence(c.values, cfg)).flatten
    val want = ev.groupBy(_._1).collect { case (k, rows) if rows.size >= cfg.minCov =>
      k -> (rows.map(_._2).sum / rows.size, rows.size.toLong)
    }
    val got = TestFixtures.indexE.entries
    assert(got.keySet == want.keySet)
    for ((k, st) <- got) {
      val (fpr, cov) = want(k)
      assert(st.cov == cov, k)
      assert(math.abs(st.fpr - fpr) <= 1e-12, k)
    }
  }

  test("build: FPR averages only over matched columns (Def. 3)") {
    import spark.implicits._
    val cols = Vector(
      col("pure1", Seq.fill(10)("123")),
      col("pure2", Seq.fill(10)("456")),
      col("mixed", Seq.fill(5)("789") ++ Seq.fill(5)("ab.cd")))
    val idx = OfflineIndexer.buildIndex(spark.createDataset(cols), cfg)
    val d3 = Pat(Vector(FixLen(GClass.Digit, 3))).key
    val st = idx.lookup(d3).get
    assert(st.cov == 3)
    assert(math.abs(st.fpr - 0.5 / 3.0) < 1e-9)
  }

  test("build: minCov prunes singleton patterns") {
    import spark.implicits._
    val cols = Vector(col("only", Seq("zz@zz")), col("digits1", Seq("1")), col("digits2", Seq("2")))
    val idx = OfflineIndexer.buildIndex(spark.createDataset(cols), cfg.copy(minCov = 2))
    assert(idx.lookup(Pat(Vector(VarLen(GClass.Digit))).key).isDefined)
    assert(idx.lookup(Pat(Vector(ConstT("zz"), ConstT("@"), ConstT("zz"))).key).isEmpty)
  }

  test("save/load roundtrip through parquet") {
    val cols = Vector(col("a", Seq("12", "34")), col("b", Seq("56", "78")))
    val idx = OfflineIndexer.buildIndex(sliced(cols, 2), cfg)
    assert(idx.size > 0)
    val dir = java.nio.file.Files.createTempDirectory("idx").toString + "/index.parquet"
    OfflineIndexer.save(spark, idx, dir)
    val loaded = OfflineIndexer.load(spark, dir)
    assert(loaded.entries == idx.entries)
  }

  test("PatternIndex analytics: token-length histogram and coverage buckets") {
    val idx = new PatternIndex(Map(
      Pat(Vector(VarLen(GClass.Digit))).key -> PatternStats(0.0, 100),
      Pat(Vector(VarLen(GClass.Digit), ConstT("/"), VarLen(GClass.Digit))).key -> PatternStats(0.0, 4),
      Pat(Vector(ConstT("x"))).key -> PatternStats(0.2, 1)))
    assert(idx.byTokenLength == Map(1 -> 2L, 3 -> 1L))
    assert(idx.coverageHistogram == Map(6 -> 1L, 2 -> 1L, 0 -> 1L))
    val head = idx.headPatterns(minCov = 4, maxFpr = 0.1, k = 10)
    assert(head.map(_._1).contains(Pat(Vector(VarLen(GClass.Digit))).key))
    assert(head.size == 2)
  }
}
