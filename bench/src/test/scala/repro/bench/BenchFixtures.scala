package repro.bench

import repro.TestFixtures
import repro.eval.Runners

/** Artifacts shared by all bench suites (indexes cached per corpus/τ). */
object BenchFixtures {
  def art: Runners.Artifacts = TestFixtures.art
}
