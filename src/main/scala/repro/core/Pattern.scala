package repro.core

import java.util.regex.{Pattern => JPattern}

/** The pattern language of §2.1: a pattern is a sequence of tokens drawn from
  * the generalization hierarchy (Fig. 4). Leaves are literals; intermediate
  * nodes are `<digit>`, `<upper>`, `<lower>`, `<letter>`, `<alnum>`, each
  * either fixed-length (`{n}`) or variable-length (`+`).
  *
  * A pattern matches a whole value through a bit-parallel Shift-And
  * automaton (`ShiftAnd`) with one bit per character position, built once
  * per pattern; a pattern of more than 64 positions falls back to its
  * anchored Java regex (`compiled`), which is also the matcher's reference.
  * Patterns serialize to a stable canonical `key` used as the offline-index
  * key. A human-readable `display` form matches the paper's notation.
  */
object Pattern {

  /** Generalized character class of a pattern token. */
  sealed abstract class GClass(val order: Int, val regex: String, val name: String, val alphabetBits: Double)
  object GClass {
    case object Digit  extends GClass(0, "[0-9]", "digit", 3.33)       // log2(10)
    case object Upper  extends GClass(1, "[A-Z]", "upper", 4.70)       // log2(26)
    case object Lower  extends GClass(2, "[a-z]", "lower", 4.70)
    case object Letter extends GClass(3, "[A-Za-z]", "letter", 5.70)   // log2(52)
    case object Alnum  extends GClass(4, "[A-Za-z0-9]", "alnum", 5.95) // log2(62)
    /** Every class, at its `order`. */
    val all: IndexedSeq[GClass] = Vector(Digit, Upper, Lower, Letter, Alnum)
    def byName(n: String): GClass = all.find(_.name == n).getOrElse(
      throw new IllegalArgumentException(s"unknown class $n"))
  }

  /** One token of a pattern. */
  sealed trait PTok {
    /** Regex fragment (unanchored). */
    def regex: String
    /** Human-readable form, paper style. */
    def display: String
    /** [[Code.specificity]] of the token's code. */
    def specificity: Int = Code.specificity(Code.encode(this, _ => 0))
  }

  /** A literal token (leaf of the hierarchy). */
  final case class ConstT(text: String) extends PTok {
    def regex: String = JPattern.quote(text)
    def display: String = text
  }

  /** `<cls>{n}` — exactly n characters of the class. */
  final case class FixLen(cls: GClass, n: Int) extends PTok {
    def regex: String = s"${cls.regex}{$n}"
    def display: String = s"<${cls.name}>{$n}"
  }

  /** `<cls>+` — one or more characters of the class. */
  final case class VarLen(cls: GClass) extends PTok {
    def regex: String = s"${cls.regex}+"
    def display: String = s"<${cls.name}>+"
  }

  /** A token as one `Int` code ≥ 0 (DESIGN §8). A class token needs no
    * table: bit 30 is set, bits 0–2 hold the class's `order` and bits 3–29
    * the length n of `<cls>{n}`, 0 for `<cls>+`. The class sits in the low
    * bits so that a polynomial hash of a code sequence tells apart patterns
    * that differ only in a class. A literal's code is its id (< 2^30) in a
    * [[Literals]] table.
    */
  object Code {
    private final val ClassBit = 1 << 30
    /** The longest `<cls>{n}` a code holds; a longer one has no code. */
    final val MaxLen = (1 << 27) - 1

    def isLiteral(c: Int): Boolean = c < ClassBit
    /** A class code's class order and length (0 for `+`). */
    def order(c: Int): Int = c & 7
    def length(c: Int): Int = (c >>> 3) & MaxLen

    /** `<cls>{n}`, for 1 ≤ n ≤ [[MaxLen]]. */
    def fixed(cls: GClass, n: Int): Int =
      if (n >= 1 && n <= MaxLen) ClassBit | n << 3 | cls.order
      else throw new IllegalArgumentException(s"<${cls.name}>{$n} has no code: lengths run from 1 to $MaxLen")

    def variable(cls: GClass): Int = ClassBit | cls.order

    /** Token t's code, a literal's from `literal` (its text's id). */
    def encode(t: PTok, literal: String => Int): Int = t match {
      case ConstT(s)    => literal(s)
      case FixLen(c, n) => fixed(c, n)
      case VarLen(c)    => variable(c)
    }

    /** The token of code c, a literal's text from `text`. */
    def decode(c: Int, text: Int => String): PTok =
      if (isLiteral(c)) ConstT(text(c))
      else if (length(c) == 0) VarLen(GClass.all(order(c)))
      else FixLen(GClass.all(order(c)), length(c))

    /** The specificity of code c, for tie-breaks and "most specific"
      * profilers: higher = narrower. Const > fixed-length > variable-length;
      * narrower classes beat wider ones.
      */
    def specificity(c: Int): Int =
      if (isLiteral(c)) 100 else (if (length(c) == 0) 10 else 50) + GClass.all.length - order(c)
  }

  /** Literal texts to codes 0, 1, 2, … in first-seen order. */
  private[repro] class Literals {
    private val ids = new java.util.HashMap[String, Integer]
    private val texts = collection.mutable.ArrayBuffer.empty[String]

    /** The code of `text`; unless `intern`, −1 for a text not seen here. */
    def code(text: String, intern: Boolean): Int = {
      val id = ids.get(text)
      if (id != null) id.intValue
      else if (!intern) -1
      else { ids.put(text, texts.size); texts += text; texts.size - 1 }
    }

    def text(c: Int): String = texts(c)
  }

  /** A pattern: a non-empty token sequence. */
  final case class Pat(toks: Vector[PTok]) {
    /** Canonical index key (parseable, stable across JVMs). */
    lazy val key: String = toks.map(serializeTok).mkString(SEP.toString)
    /** Paper-style rendering. */
    def display: String = toks.map(_.display).mkString
    def specificity: Int = toks.iterator.map(_.specificity).sum
    /** The anchored regex: the matcher of patterns over 64 positions, and
      * the reference the Shift-And matcher is tested against.
      */
    @transient lazy val compiled: JPattern =
      JPattern.compile("^" + toks.map(_.regex).mkString + "$")
    /** null when the pattern has more than 64 positions. */
    @transient private lazy val shiftAnd: ShiftAnd = ShiftAnd(toks)
    /** Anchored match of a whole value. */
    def matches(v: String): Boolean = v != null && {
      val sa = shiftAnd
      if (sa != null) sa.matches(v) else compiled.matcher(v).matches()
    }
    override def toString: String = display
  }

  /** Shift-And (Baeza-Yates & Gonnet 1992) over a pattern's character
    * positions: a literal of k code points gives k positions, `<cls>{n}`
    * gives n, `<cls>+` one position with a self-loop. Bit i of the state is
    * set when the value read so far can end at position i. The value is
    * stepped by code point, as the regex and `Tokens` read it, so a
    * surrogate pair never meets two literal positions.
    *
    * @param ascii     per ASCII char, the positions that accept it
    * @param wideCps   the non-ASCII code points of the literals, one per
    *                  position, with
    * @param wideMasks that position's bit
    * @param loops     the positions with a self-loop
    * @param m         the number of positions (≤ 64)
    */
  private final class ShiftAnd(ascii: Array[Long], wideCps: Array[Int], wideMasks: Array[Long],
                               loops: Long, m: Int) {
    private[this] val last = if (m == 0) 0L else 1L << (m - 1)

    private def mask(c: Int): Long =
      if (c < 128) ascii(c)
      else {
        var b = 0L
        var k = 0
        while (k < wideCps.length) { if (wideCps(k) == c) b |= wideMasks(k); k += 1 }
        b
      }

    def matches(v: String): Boolean = {
      val n = v.length
      if (n == 0) return m == 0
      // the start state enters only at the first code point: the match is anchored
      var c = v.codePointAt(0)
      var d = mask(c) & 1L
      var i = Character.charCount(c)
      while (d != 0 && i < n) {
        c = v.charAt(i)
        if (c < 128) i += 1
        else { c = v.codePointAt(i); i += Character.charCount(c) }
        d = ((d << 1) | (d & loops)) & mask(c)
      }
      (d & last) != 0
    }
  }

  private object ShiftAnd {
    /** Per class, by `order`, the ASCII code points its regex accepts. */
    private val members: Array[Array[Int]] = GClass.all.map { cls =>
      (0 until 128).filter(c => JPattern.matches(cls.regex, c.toChar.toString)).toArray
    }.toArray

    /** The matcher of `toks`, or null when they need more than 64 positions
      * (or hold a negative length, which the regex rejects).
      */
    def apply(toks: Vector[PTok]): ShiftAnd = {
      val ascii = new Array[Long](128)
      val classBits = new Array[Long](members.length)
      var wideCps = Array.emptyIntArray
      var wideMasks = Array.emptyLongArray
      var loops = 0L
      var m = 0
      val it = toks.iterator
      while (it.hasNext) it.next() match {
        case ConstT(text) =>
          var i = 0
          while (i < text.length) {
            if (m == 64) return null
            val cp = text.codePointAt(i)
            if (cp < 128) ascii(cp) |= 1L << m
            else { wideCps :+= cp; wideMasks :+= 1L << m }
            m += 1
            i += Character.charCount(cp)
          }
        case FixLen(cls, n) =>
          if (n < 0 || n > 64 - m) return null
          if (n > 0) classBits(cls.order) |= (-1L >>> (64 - n)) << m
          m += n
        case VarLen(cls) =>
          if (m == 64) return null
          classBits(cls.order) |= 1L << m
          loops |= 1L << m
          m += 1
      }
      for (k <- classBits.indices if classBits(k) != 0; c <- members(k)) ascii(c) |= classBits(k)
      new ShiftAnd(ascii, wideCps, wideMasks, loops, m)
    }
  }

  private val SEP = '\u0001'
  private val FLD = '\u0002'
  /** Escapes SEP, FLD and itself inside literal text (as ESC + '1' / '2' /
    * '3'), so a key parses back for any text; printable text is unchanged.
    */
  private val ESC = '\u0003'

  private def reserved(c: Char): Boolean = c == SEP || c == FLD || c == ESC

  private def escape(s: String): String =
    if (!s.exists(reserved)) s
    else {
      val sb = new StringBuilder(s.length + 4)
      for (c <- s) {
        if (reserved(c)) sb.append(ESC).append(('0' + c).toChar)
        else sb.append(c)
      }
      sb.toString
    }

  private def unescape(s: String): String =
    if (s.indexOf(ESC) < 0) s
    else {
      val sb = new StringBuilder(s.length)
      var i = 0
      while (i < s.length) {
        if (s.charAt(i) == ESC) { i += 1; sb.append((s.charAt(i) - '0').toChar) }
        else sb.append(s.charAt(i))
        i += 1
      }
      sb.toString
    }

  private def serializeTok(t: PTok): String = t match {
    case ConstT(s)     => s"C$FLD${escape(s)}"
    case FixLen(c, n)  => s"F$FLD${c.name}$FLD$n"
    case VarLen(c)     => s"V$FLD${c.name}"
  }

  private def parseTok(s: String): PTok = {
    val parts = s.split(FLD.toString, -1)
    parts(0) match {
      case "C" => ConstT(unescape(parts(1))) // text may be empty
      case "F" => FixLen(GClass.byName(parts(1)), parts(2).toInt)
      case "V" => VarLen(GClass.byName(parts(1)))
      case x   => throw new IllegalArgumentException(s"bad token tag $x in '$s'")
    }
  }

  /** Parse a canonical `key` back into a pattern. */
  def parse(key: String): Pat = Pat(tokenKeysOf(key).toVector.map(parseTok))

  /** The token keys of a canonical `key`, in order, without parsing them. */
  def tokenKeysOf(key: String): Array[String] = key.split(SEP.toString, -1)

  /** Token count of a serialized key without parsing (index analytics). */
  def tokenLengthOfKey(key: String): Int = key.count(_ == SEP) + 1

  /** Concatenate segment patterns (vertical-cut composition). */
  def concat(ps: Seq[Pat]): Pat = Pat(ps.flatMap(_.toks).toVector)
}
