package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.core.Pattern.{ConstT, Pat}

/** The Eq. 11 DP of FMDV-V against exhaustive segmentation on small tables,
  * and against the bottom-up DP over the whole table ([[Eq11Oracle]]).
  */
class Eq11Spec extends AnyFunSuite with PropHelpers {

  type Table = Vector[Vector[Option[Solution]]]

  /** A distinct solution per cell, so a result names the cell it came from. */
  private def sol(s: Int, e: Int, fpr: Double): Solution =
    Solution(Pat(Vector(ConstT(s"$s..$e"))), fpr, 1L)

  /** Tables of ≤ 8 positions; few fpr values, so equal sums are common. */
  private val genTable: Gen[Table] = for {
    n <- Gen.choose(1, 8)
    cells <- Gen.listOfN(n * n, Gen.frequency(3 -> Gen.const(None),
      7 -> Gen.oneOf(0.0, 0.01, 0.02, 0.05).map(Some(_))))
  } yield Vector.tabulate(n, n)((s, e) => if (e < s) None else cells(s * n + e).map(sol(s, e, _)))

  /** `FmdvV.eq11` over the table, and the cells it asked for, in order. */
  private def pruned(seg: Table): (Option[Vector[Solution]], Vector[(Int, Int)]) = {
    val asked = Vector.newBuilder[(Int, Int)]
    val got = FmdvV.eq11(seg.length, (s, e) => { asked += ((s, e)); seg(s)(e) })
    (got, asked.result())
  }

  private def eq11(seg: Table): Option[Vector[Solution]] = pruned(seg)._1

  /** Σ fpr of every segmentation of 0 … n−1 into defined cells. */
  private def allSegmentations(seg: Table): Seq[Double] = {
    val n = seg.length
    (0 until 1 << (n - 1)).flatMap { cuts =>
      val ends = (0 until n - 1).filter(i => (cuts >> i & 1) == 1) :+ (n - 1)
      val spans = (-1 +: ends.init).map(_ + 1).zip(ends)
      val sols = spans.map { case (s, e) => seg(s)(e) }
      if (sols.forall(_.isDefined)) Some(sols.flatten.map(_.fpr).sum) else None
    }
  }

  /** True when `segments` tile 0 … n−1, each one its own table cell. */
  private def tiles(seg: Table, segments: Vector[Solution]): Boolean =
    segments.foldLeft(Option(0)) { (at, x) =>
      at.flatMap(s => (s until seg.length).find(e => seg(s)(e).contains(x)).map(_ + 1))
    }.contains(seg.length)

  test("Eq. 11 DP equals exhaustive segmentation on generated tables") {
    var solved, unsolved = 0
    forSamples(genTable, 400) { seg =>
      val sums = allSegmentations(seg)
      eq11(seg) match {
        case None =>
          assert(sums.isEmpty, s"no segmentation found, but one exists: $seg")
          unsolved += 1
        case Some(segments) =>
          assert(sums.nonEmpty)
          assert(tiles(seg, segments), s"$segments do not tile $seg")
          assert(math.abs(segments.map(_.fpr).sum - sums.min) < 1e-12)
          solved += 1
      }
    }
    assert(solved >= 100 && unsolved >= 10, s"$solved solved, $unsolved unsolved")
  }

  test("an empty table has no segmentation") {
    assert(eq11(Vector.empty).isEmpty)
  }

  test("a whole span beats a split of equal cost") {
    val seg = Vector(
      Vector(Some(sol(0, 0, 0.25)), Some(sol(0, 1, 0.5))),
      Vector(None, Some(sol(1, 1, 0.25))))
    assert(eq11(seg).contains(Vector(sol(0, 1, 0.5))))
  }

  test("of two splits of equal cost, the leftmost wins") {
    val seg = Vector(
      Vector(Some(sol(0, 0, 0.25)), Some(sol(0, 1, 0.25)), None),
      Vector(None, None, Some(sol(1, 2, 0.25))),
      Vector(None, None, Some(sol(2, 2, 0.25))))
    assert(eq11(seg).contains(Vector(sol(0, 0, 0.25), sol(1, 2, 0.25))))
  }

  test("the pruned DP returns the bottom-up DP's segments and asks for each cell at most once") {
    var skipped = 0
    forSamples(genTable, 400) { seg =>
      val n = seg.length
      val (got, asked) = pruned(seg)
      assert(got == Eq11Oracle.eq11(seg), s"segments differ on $seg")
      assert(asked.distinct == asked && asked.forall { case (s, e) => 0 <= s && s <= e && e < n }, s"$asked")
      assert(asked.size <= n * (n + 1) / 2)
      skipped += n * (n + 1) / 2 - asked.size
    }
    assert(skipped > 0, "no cell was pruned")
  }
}
