package repro.core

import repro.core.Pattern.{Code, GClass}

/** The generalization hierarchy of Fig. 4, expressed as: for each lexed token,
  * the set of pattern tokens it can generalize into, as token [[Code]]s.
  *
  *  - digit run "2019"  → `2019`, `<digit>{4}`, `<digit>+`
  *  - letter run "Mar"  → `Mar`, `<letter>{3}`, `<letter>+`
  *    (plus `<upper>…`/`<lower>…` when the run is single-cased)
  *  - symbol run "/"    → literal only (delimiters in machine-generated
  *    formats are constants, as in every pattern shown in the paper)
  *  - merged alnum run  → `<alnum>{n}`, `<alnum>+`
  *
  * The trivial root `<all>`/".*" is excluded (paper: H(C) excludes ".*").
  */
object Hierarchy {

  /** The options of a fine token of shape `shape` (`Tokens.shapeCode`) at
    * pruning level 0–3 (a higher level is level 3), most specific first;
    * `lit` is the token's literal code, read at level 0 and for a symbol
    * only. Level 0 has every option. Digit and letter runs also generalize
    * to `<alnum>` (Fig. 4: alphanum sits above both), so a hex-ish column
    * mixing "1234" with "a3f0" still has a non-empty hypothesis space.
    *
    * The higher levels are the graduated reduction used when the full
    * cross-product would exceed the per-value cap. Each keeps the patterns
    * that matter most for validation:
    *
    *  - level 1 drops literals (constants over-fit anyway and explode the
    *    product on wide values);
    *  - level 2 additionally drops `<alnum>` options on fine digit/letter
    *    runs (short values keep them at level 0 — that is where mixed
    *    hex-like columns need them);
    *  - level 3 keeps a single variable-length token of the narrowest class.
    */
  def options(shape: Long, level: Int, lit: => Int): Array[Int] =
    if (Tokens.isSymbolShape(shape)) Array(lit)
    else {
      val (cls, n) = (Tokens.classOfShape(shape), Tokens.lengthOfShape(shape))
      // the classes above it: a single-cased run also has `<letter>`
      val wider = if (cls == GClass.Upper || cls == GClass.Lower) Vector(GClass.Letter, GClass.Alnum) else Vector(GClass.Alnum)
      level match {
        case 0 => lit +: options(shape, 1, lit)
        case 1 => (cls +: wider).flatMap(c => Vector(Code.fixed(c, n), Code.variable(c))).toArray
        case 2 => Array(Code.fixed(cls, n), Code.variable(cls)) ++ wider.init.map(Code.variable)
        case _ => Array(Code.variable(cls))
      }
    }

  /** The options of a merged alnum run of n characters, at every level. */
  def alnum(n: Int): Array[Int] = Array(Code.fixed(GClass.Alnum, n), Code.variable(GClass.Alnum))
}
