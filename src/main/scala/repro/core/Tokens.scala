package repro.core

/** Coarse lexer of §2.1/§3: a value is scanned left-to-right, growing a token
  * until a character of a different class is encountered.
  *
  * Classes are Digit runs, Letter runs and Symbol runs. Following Potter's
  * Wheel style lexing, a symbol run only groups *identical* consecutive
  * symbol characters ("--" is one token, "-." is two), because delimiters in
  * machine-generated formats are literal.
  *
  * Digits and letters are ASCII only, the alphabet the pattern classes
  * compile to (`[0-9]`, `[A-Za-z]`); every other character, non-ASCII
  * letters included, is a symbol and stays literal, so each pattern of a
  * value matches it. Values are lexed by code point, so a surrogate pair
  * is never split.
  *
  * A second, *merged* granularity collapses maximal alphanumeric stretches
  * (adjacent digit/letter runs) into a single Alnum token — this is how
  * hex-like ids ("0a1b2c…") stay under the token budget τ and generalize to
  * `<alnum>` as in the paper's hierarchy (Fig. 4).
  */
object Tokens {

  /** Character class of a token (the coarse level of the hierarchy). */
  sealed trait Cls
  object Cls {
    /** A maximal run of ASCII digits. */
    case object Digit extends Cls
    /** A maximal run of ASCII letters (any case). */
    case object Letter extends Cls
    /** A run of one repeated other code point (incl. space). */
    case object Symbol extends Cls
    /** A merged run of digits and letters (merged granularity only). */
    case object Alnum extends Cls
  }

  /** One lexed token: its class and the exact matched text. */
  final case class Tok(cls: Cls, text: String) {
    def len: Int = text.length
    def isUpper: Boolean = cls == Cls.Letter && text.forall(_.isUpper)
    def isLower: Boolean = cls == Cls.Letter && text.forall(_.isLower)
  }

  private def clsOf(c: Int): Cls =
    if (c >= '0' && c <= '9') Cls.Digit
    else if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) Cls.Letter
    else Cls.Symbol

  /** The end of the fine token that starts at offset i of non-empty s. */
  private def tokenEnd(s: String, i: Int): Int = {
    val n = s.length
    val c = s.codePointAt(i)
    val cl = clsOf(c)
    cl match {
      case Cls.Symbol =>
        // grow only over the identical symbol code point
        val w = Character.charCount(c)
        var j = i + w
        while (j < n && s.codePointAt(j) == c) j += w
        j
      case _ =>
        // digits and letters are ASCII, one char each
        var j = i + 1
        while (j < n && clsOf(s.charAt(j)) == cl) j += 1
        j
    }
  }

  /** Fine-grained tokenization into digit / letter / symbol runs. */
  def tokenize(s: String): Vector[Tok] = {
    if (s == null || s.isEmpty) return Vector.empty
    val out = Vector.newBuilder[Tok]
    var i = 0
    while (i < s.length) {
      val j = tokenEnd(s, i)
      out += Tok(clsOf(s.codePointAt(i)), s.substring(i, j))
      i = j
    }
    out.result()
  }

  /** Fine tokenization without a `Tok` per token: the offsets of the
    * tokens of non-empty s, with s.length appended, so token k is
    * s[from(k), from(k + 1)).
    */
  private[core] def offsets(s: String): Array[Int] = {
    val from = Array.newBuilder[Int]
    var i = 0
    while (i < s.length) { from += i; i = tokenEnd(s, i) }
    from += s.length
    from.result()
  }

  /** The shape of fine token s[i, j): its class and length, its letter case
    * for a letter run and its text for a symbol run, packed in a `Long`
    * ≥ 0 (length in bits 0–30, a symbol's code point in bits 31–51, a tag
    * in bits 52–54: digit 0, upper 1, lower 2, mixed case 3, symbol 4).
    * Two tokens have equal shapes exactly when their option lists at every
    * pruning level differ at most in a digit or letter literal.
    */
  private[core] def shapeCode(s: String, i: Int, j: Int): Long = {
    val c = s.codePointAt(i)
    clsOf(c) match {
      case Cls.Digit => (j - i).toLong
      case Cls.Symbol => (SymbolTag << 52) | (c.toLong << 31) | (j - i)
      case _ =>
        var (upper, lower) = (true, true)
        var k = i
        while (k < j) { if (s.charAt(k) < 'a') lower = false else upper = false; k += 1 }
        val tag = if (upper) 1L else if (lower) 2L else 3L
        (tag << 52) | (j - i)
    }
  }

  private val SymbolTag = 4L

  private[core] def isSymbolShape(code: Long): Boolean = (code >>> 52) == SymbolTag

  /** The class of a token of shape code `code`. */
  private[core] def clsOfShape(code: Long): Cls = (code >>> 52) match {
    case 0L => Cls.Digit
    case SymbolTag => Cls.Symbol
    case _ => Cls.Letter
  }

  /** Merged tokenization: adjacent Digit/Letter runs become one Alnum token.
    * Runs that do not touch another alphanumeric run keep their fine class,
    * so for values without mixed runs this equals [[tokenize]].
    */
  def tokenizeMerged(s: String): Vector[Tok] = {
    val fine = tokenize(s)
    if (fine.isEmpty) return fine
    val out = Vector.newBuilder[Tok]
    var i = 0
    while (i < fine.length) {
      val t = fine(i)
      if (t.cls == Cls.Symbol) { out += t; i += 1 }
      else {
        var j = i + 1
        val sb = new StringBuilder(t.text)
        while (j < fine.length && fine(j).cls != Cls.Symbol) {
          sb.append(fine(j).text); j += 1
        }
        if (j - i > 1) out += Tok(Cls.Alnum, sb.toString) else out += t
        i = j
      }
    }
    out.result()
  }

  /** Coarse signature used for horizontal grouping and MSA: the sequence of
    * classes, with symbol tokens kept literal (delimiters identify formats).
    */
  def signatureKey(s: String): String = keyOf(tokenize(s))

  /** Coarse signature at the merged granularity (hex-like ids collapse to a
    * single "A"), used for horizontal grouping of values.
    */
  def signatureMergedKey(s: String): String = keyOf(tokenizeMerged(s))

  private def keyOf(toks: Vector[Tok]): String =
    toks.map {
      case Tok(Cls.Digit, _)  => "D"
      case Tok(Cls.Letter, _) => "L"
      case Tok(Cls.Alnum, _)  => "A"
      case Tok(Cls.Symbol, t) => s"'$t'"
    }.mkString("|")

  /** Effective token count: the smaller of the fine and merged counts — what
    * decides whether a value can be enumerated under a τ budget. Merging only
    * joins adjacent runs, so the merged count is never the larger one. One
    * scan by code point: each symbol run and each maximal digit/letter
    * stretch is one merged token.
    */
  def effectiveTokenCount(s: String): Int = {
    if (s == null) return 0
    var (n, i) = (0, 0)
    while (i < s.length) {
      if (clsOf(s.codePointAt(i)) == Cls.Symbol) i = tokenEnd(s, i)
      else while (i < s.length && clsOf(s.charAt(i)) != Cls.Symbol) i += 1
      n += 1
    }
    n
  }
}
