package repro.lake

import repro.{Oracle, SparkSpec}

class LakeGenSpec extends SparkSpec {

  lazy val eCols = LakeGen.generateColumns(LakeGen.Enterprise)
  lazy val gCols = LakeGen.generateColumns(LakeGen.Government)

  test("generation is deterministic") {
    val again = LakeGen.generateColumns(LakeGen.Enterprise)
    assert(eCols.map(_.colId) == again.map(_.colId))
    assert(eCols.take(20).map(_.values) == again.take(20).map(_.values))
  }

  test("enterprise lake is large and diverse") {
    assert(eCols.size > 1200, s"got ${eCols.size}")
    val domains = eCols.map(_.domain).toSet
    assert(Domains.all.map(_.name).toSet.subsetOf(domains))
  }

  test("government lake is a scaled-down, dirtier corpus") {
    assert(gCols.size < eCols.size / 2)
    assert(gCols.map(_.values.size).max <= LakeGen.Government.valuesMax)
  }

  test("column ids are unique") {
    assert(eCols.map(_.colId).distinct.size == eCols.size)
  }

  test("value counts respect the configured range") {
    assert(eCols.forall(c => c.values.size >= LakeGen.Enterprise.valuesMin &&
      c.values.size <= LakeGen.Enterprise.valuesMax))
  }

  test("special column types are present") {
    assert(eCols.exists(_.domain == "const"))
    assert(eCols.exists(_.domain == "nullmark"))
    assert(eCols.exists(_.name.startsWith("mixed_")))
    assert(eCols.exists(_.name.startsWith("sku_")))
  }

  test("constant columns hold a single distinct value") {
    assert(eCols.filter(_.domain == "const").forall(_.values.distinct.size == 1))
  }

  test("null-marker columns hold only special values") {
    val special = Domains.SpecialValues.toSet
    assert(eCols.filter(_.domain == "nullmark").forall(_.values.forall(special.contains)))
  }

  test("impure columns genuinely mix two formats") {
    val mixed = eCols.filter(_.name.startsWith("mixed_"))
    assert(mixed.nonEmpty)
    // most pairs differ in coarse signature; (country2, status) differs only
    // in case/length, so require a majority of structurally-visible mixes
    val visibly = mixed.count { c =>
      c.values.map(repro.core.Tokens.signatureMergedKey).toSet.size > 1
    }
    assert(visibly * 2 > mixed.size, s"$visibly of ${mixed.size} mixed columns show >1 signature")
  }

  test("some dirty columns carry special values inside domain columns") {
    val special = Domains.SpecialValues.toSet
    val dirty = eCols.filter(c => c.domain.nonEmpty && !Set("const", "nullmark").contains(c.domain))
      .count(c => c.values.exists(special.contains))
    assert(dirty > 20, s"expected a visible dirty-column population, got $dirty")
  }

  test("columns are grouped into tables of the configured width") {
    val widths = eCols.groupBy(_.tableId).values.map(_.size)
    assert(widths.forall(w => w >= 1 && w <= LakeGen.Enterprise.colsPerTableMax))
  }

  test("corpus stats (Table 1 inputs) are sane and oracle-checked") {
    import spark.implicits._
    val ds = spark.createDataset(eCols.take(300))
    val st = LakeGen.stats(ds)
    assert(st.cols == 300)
    assert(st.avgValues > 0 && st.sdValues >= 0)
    // oracle: per-column counts aggregated in DuckDB
    val per = eCols.take(300).map(c => (c.values.size.toLong, c.values.distinct.size.toLong))
      .toDF("n", "nd")
    val sparkAgg = per.selectExpr(
      "avg(n) AS avg_n", "stddev_pop(n) AS sd_n",
      "avg(nd) AS avg_nd", "stddev_pop(nd) AS sd_nd")
    Oracle.assertEquivalent(sparkAgg,
      """SELECT avg(CAST(n AS DOUBLE)) AS avg_n, stddev_pop(CAST(n AS DOUBLE)) AS sd_n,
        |       avg(CAST(nd AS DOUBLE)) AS avg_nd, stddev_pop(CAST(nd AS DOUBLE)) AS sd_nd
        |FROM per""".stripMargin,
      "per" -> per)
    assert(math.abs(st.avgValues - sparkAgg.collect()(0).getDouble(0)) > -1) // stats path exercised
  }

  test("corpus Dataset round-trips through Spark") {
    val ds = LakeGen.corpus(spark, LakeGen.Government)
    assert(ds.count() == gCols.size)
    // every generated column exactly once, in generation order
    assert(ds.collect().toVector == gCols)
  }
}
