package repro.index

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec, TestFixtures}
import repro.core.{Enumerate, Fmdv, FmdvH, FmdvV, FmdvVSpec, Msa}

/** `null` and `""` are missing values (`Values.isMissing`): inserted
  * anywhere in a column, they change nothing that the learners and the
  * indexer read. FMDV-H counts `""` toward n, so only `null` leaves it
  * unchanged.
  */
class MissingValuesSpec extends SparkSpec with PropHelpers {

  lazy val index: PatternIndex = TestFixtures.indexE

  /** `vs` with each of `missing` inserted at a random position. */
  private def inserted(vs: Vector[String], missing: Seq[String]): Gen[Vector[String]] =
    missing.foldLeft(Gen.const(vs))((g, m) => g.flatMap(xs => Gen.choose(0, xs.size).map(i => xs.patch(i, Seq(m), 0))))

  /** A generated column, the column with nulls and `""` inserted, and the
    * column with nulls inserted.
    */
  private val genColumns: Gen[(Vector[String], Vector[String], Vector[String])] = for {
    vs <- FmdvVSpec.genColumn
    k <- Gen.choose(1, 4)
    missing <- Gen.listOfN(k, Gen.oneOf[String](null, ""))
    withMissing <- inserted(vs, missing)
    withNull <- inserted(vs, Seq.fill(k)(null))
  } yield (vs, withMissing, withNull)

  test("property: null and \"\" change no learner's or the indexer's input; null changes no FMDV-H result") {
    forSamples(genColumns) { case (vs, withMissing, withNull) =>
      val clue = s"$vs as $withMissing / $withNull"
      assert(Enumerate.hypothesis(withMissing) == Enumerate.hypothesis(vs), clue)
      assert(Fmdv.solve(withMissing, index) == Fmdv.solve(vs, index), clue)
      assert(FmdvV.solve(withMissing, index) == FmdvV.solve(vs, index), clue)
      assert(Msa.alignValues(withMissing) == Msa.alignValues(vs), clue)
      val cfg = OfflineIndexer.IndexConfig()
      assert(OfflineIndexer.localEvidence(withMissing, cfg) == OfflineIndexer.localEvidence(vs, cfg), clue)
      assert(FmdvH.solve(withNull, index) == FmdvH.solve(vs, index), clue)
      assert(FmdvH.solveVH(withNull, index) == FmdvH.solveVH(vs, index), clue)
    }
  }
}
