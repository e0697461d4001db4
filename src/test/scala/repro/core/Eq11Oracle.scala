package repro.core

/** Eq. 11 bottom-up over a whole segment table, the DP that `FmdvV.eq11`
  * prunes: every span is solved, by length, from its whole-span cell and
  * then the splits t = s … e−1 left to right, a split replacing the current
  * best only when its Σ FPR is strictly lower.
  */
object Eq11Oracle {

  /** `seg(s)(e)` for e ≥ s; cells with e < s are not read. */
  def eq11(seg: IndexedSeq[IndexedSeq[Option[Solution]]]): Option[Vector[Solution]] = {
    val n = seg.length
    // best(s)(e): the least Σ FPR over [s, e] and its segments
    val best = Array.fill(n, n)(Option.empty[(Double, Vector[Solution])])
    for (len <- 1 to n; s <- 0 to n - len) {
      val e = s + len - 1
      var b = seg(s)(e).map(sol => (sol.fpr, Vector(sol)))
      for (t <- s until e; (f1, p1) <- best(s)(t); (f2, p2) <- best(t + 1)(e))
        if (b.forall(_._1 > f1 + f2)) b = Some((f1 + f2, p1 ++ p2))
      best(s)(e) = b
    }
    best.headOption.flatMap(_.last).map(_._2)
  }
}
