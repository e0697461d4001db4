package repro.core

/** The one missing-value test (DESIGN §8): learners read only the values
  * that are not missing (FMDV-H alone counts `""`, see `FmdvH`), and both
  * rule types flag a missing one.
  */
object Values {
  def isMissing(v: String): Boolean = v == null || v.isEmpty
}
