package repro.index

import repro.{SparkSpec, TestFixtures}
import repro.core.{Enumerate, Fmdv, FmdvConfig}
import repro.lake.Domains
import scala.util.Random

/** The no-index reference solver must agree with indexed FMDV. */
class NoIndexFmdvSpec extends SparkSpec {

  test("agrees with indexed FMDV on a date column") {
    val train = Domains.dateSlashD.make(new Random(50), 25)
    val indexed = Fmdv.solve(train, TestFixtures.indexE)
    val scanned = NoIndexFmdv.solve(train, TestFixtures.corpusE)
    assert(indexed.map(_.pat.key) == scanned.map(_.pat.key))
  }

  test("agrees with indexed FMDV on an enum column") {
    val train = Domains.statusD.make(new Random(51), 25)
    val indexed = Fmdv.solve(train, TestFixtures.indexE)
    val scanned = NoIndexFmdv.solve(train, TestFixtures.corpusE)
    assert(indexed.map(_.pat.key) == scanned.map(_.pat.key))
  }

  test("selects on the rescanned index as Fmdv.best over H(C) does") {
    val train = TestFixtures.benchE.iterator.filterNot(_.isNL).map(_.train()).find(Enumerate.hypothesis(_).nonEmpty).get
    val idx = NoIndexFmdv.scan(train, TestFixtures.corpusE).get
    val want = Fmdv.best(Enumerate.hypothesis(train), idx, FmdvConfig())
    assert(want.isDefined)
    assert(Fmdv.solve(train, idx) == want)
  }

  test("no hypothesis → no scan, no solution") {
    assert(NoIndexFmdv.solve(Seq("a", "1/2/2020"), TestFixtures.corpusE).isEmpty)
  }
}
