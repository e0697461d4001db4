package repro.core

import repro.core.Tokens.{Cls, Tok}

/** Greedy multi-sequence alignment of coarse token sequences (§3).
  *
  * MSA with sum-of-pair scores is NP-hard; following the paper we greedily
  * align one additional sequence at a time against a running profile using
  * Needleman-Wunsch. For homogeneous machine-generated data all sequences are
  * usually identical and alignment is the identity.
  *
  * Tokens align when their classes match; symbol tokens additionally require
  * identical text (delimiters anchor the alignment).
  */
object Msa {

  /** One aligned position of the profile: class + literal text for symbols. */
  final case class Pos(cls: Cls, symText: Option[String])

  /** Alignment result: `matrix(i)(j)` is the text of value i at profile
    * position j ("" when the value has a gap there).
    */
  final case class Aligned(profile: Vector[Pos], matrix: Vector[Vector[String]]) {
    def length: Int = profile.length
    /** Sub-values spanned by profile positions [s, e] (inclusive). */
    def segmentValues(s: Int, e: Int): Vector[String] =
      matrix.map(row => row.slice(s, e + 1).mkString)
  }

  private val MatchScore = 2
  private val MismatchScore = -2
  private val GapScore = -1

  private def score(p: Pos, t: Tok): Int = (p.cls, t.cls) match {
    case (Cls.Symbol, Cls.Symbol) =>
      if (p.symText.contains(t.text)) MatchScore else MismatchScore
    case (a, b) if a == b => MatchScore
    case _                => MismatchScore
  }

  private[core] def posOf(t: Tok): Pos =
    Pos(t.cls, if (t.cls == Cls.Symbol) Some(t.text) else None)

  /** Needleman-Wunsch of one token sequence against the current profile.
    * Returns the operation trace: for each step, (profileIdx, tokIdx) with -1
    * marking a gap on that side.
    */
  private[core] def align(profile: Vector[Pos], toks: Vector[Tok]): List[(Int, Int)] = {
    val n = profile.length; val m = toks.length
    val dp = Array.ofDim[Int](n + 1, m + 1)
    for (i <- 1 to n) dp(i)(0) = i * GapScore
    for (j <- 1 to m) dp(0)(j) = j * GapScore
    for (i <- 1 to n; j <- 1 to m) {
      val diag = dp(i - 1)(j - 1) + score(profile(i - 1), toks(j - 1))
      val up = dp(i - 1)(j) + GapScore
      val left = dp(i)(j - 1) + GapScore
      dp(i)(j) = math.max(diag, math.max(up, left))
    }
    // trace back from the end, prepending, so the list is in forward order
    var trace = List.empty[(Int, Int)]
    var i = n; var j = m
    while (i > 0 || j > 0) {
      if (i > 0 && j > 0 && dp(i)(j) == dp(i - 1)(j - 1) + score(profile(i - 1), toks(j - 1))) {
        trace ::= ((i - 1, j - 1)); i -= 1; j -= 1
      } else if (i > 0 && dp(i)(j) == dp(i - 1)(j) + GapScore) {
        trace ::= ((i - 1, -1)); i -= 1
      } else {
        trace ::= ((-1, j - 1)); j -= 1
      }
    }
    trace
  }

  /** Align all values greedily (longest-first seeds the profile). */
  def alignValues(values: Seq[String]): Aligned = {
    val vs = values.filterNot(Values.isMissing).toVector
    if (vs.isEmpty) return Aligned(Vector.empty, Vector.empty)
    val tokSeqs = vs.map(Tokens.tokenize)
    val seedIdx = tokSeqs.indices.maxBy(i => tokSeqs(i).length)
    // rows(k) is the aligned row of value order(k)
    val order = seedIdx +: tokSeqs.indices.filter(_ != seedIdx)
    var profile = tokSeqs(seedIdx).map(posOf)
    var rows = Vector(tokSeqs(seedIdx).map(_.text))
    for (idx <- order.tail) {
      val toks = tokSeqs(idx)
      // a row that matches the profile at every position aligns on the
      // diagonal, the unique optimum, so it needs no DP
      if (toks.length == profile.length && profile.indices.forall(j => score(profile(j), toks(j)) == MatchScore))
        rows :+= toks.map(_.text)
      else {
        val trace = align(profile, toks)
        // an insertion into the profile gives every earlier row a gap there
        if (trace.exists(_._1 < 0))
          rows = rows.map(row => trace.map { case (pi, _) => if (pi >= 0) row(pi) else "" }.toVector)
        profile = trace.map { case (pi, tj) => if (pi >= 0) profile(pi) else posOf(toks(tj)) }.toVector
        rows :+= trace.map { case (_, tj) => if (tj >= 0) toks(tj).text else "" }.toVector
      }
    }
    val byInput = new Array[Vector[String]](vs.length)
    for ((i, k) <- order.zipWithIndex) byInput(i) = rows(k)
    Aligned(profile, byInput.toVector)
  }
}
