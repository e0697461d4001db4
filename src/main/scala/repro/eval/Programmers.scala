package repro.eval

import java.util.regex.{Pattern => JPattern}
import scala.util.Try
import repro.core.{Method, Rule, Tokens, Values}
import repro.core.Tokens.{Cls, Tok}

/** Simulated-programmer policies for the user-study reproduction (Table 3).
  *
  * Human wall-clock time and behavior cannot be re-run offline (DESIGN.md
  * §3.5); instead, each of the study's three successful participants is
  * modeled as a deterministic regex-writing policy matching the observed
  * quality band: they write plausible regexes from the observed examples but
  * over-fit in characteristic ways (literal constants, exact lengths, first
  * example only). Their regexes are used exactly like the study used human
  * regexes: as strict validation rules.
  */
object Programmers {

  /** Strict regex rule (what a human-authored regex amounts to). */
  final case class RegexRule(name: String, regex: String) extends Rule {
    private val p = Try(JPattern.compile("^(?:" + regex + ")$")).toOption
    def valid: Boolean = p.isDefined
    def flags(test: Seq[String]): Boolean =
      p.exists(pp => test.exists(v => v == null || !pp.matcher(v).matches()))
    def describe: String = regex
  }

  private def classRe(t: Tok): String = t.cls match {
    case Cls.Digit  => "\\d"
    case Cls.Letter => "[A-Za-z]"
    case Cls.Alnum  => "[A-Za-z0-9]"
    case Cls.Symbol => JPattern.quote(t.text)
  }

  /** Programmer #1 (careful, avg-precision ≈ 0.65 in the paper): aligns all
    * training values, uses observed length *ranges* per token, but keeps any
    * token that never varied as a literal (e.g. a constant month "Mar").
    */
  final class Careful(override val name: String = "Programmer#1") extends Method {
    def learn(train: Seq[String]): Option[Rule] = {
      val vs = train.filterNot(Values.isMissing)
      if (vs.isEmpty) return None
      val toks = vs.map(Tokens.tokenize)
      val sig = Tokens.signatureKey(vs.head)
      val sameSig = vs.zip(toks).filter { case (v, _) => Tokens.signatureKey(v) == sig }
      if (sameSig.size < vs.size * 0.8) return None // gives up on messy columns
      val cols = sameSig.map(_._2).transpose
      val re = cols.map { col =>
        val texts = col.map(_.text).distinct
        if (texts.size == 1) JPattern.quote(texts.head) // the over-fit: constants stay literal
        else {
          val lens = col.map(_.len)
          s"${classRe(col.head)}{${lens.min},${lens.max}}"
        }
      }.mkString
      Some(RegexRule(name, re)).filter(_.asInstanceOf[RegexRule].valid)
    }
  }

  /** Programmer #2 (quick, ≈ 0.45): looks at the first few values only;
    * generalizes digit runs to `\d+` but keeps letter runs literal and all
    * lengths from the first value elsewhere.
    */
  final class Quick(override val name: String = "Programmer#2") extends Method {
    def learn(train: Seq[String]): Option[Rule] = {
      val vs = train.filterNot(Values.isMissing)
      if (vs.isEmpty) return None
      val toks = Tokens.tokenize(vs.head)
      val re = toks.map { t =>
        t.cls match {
          case Cls.Digit  => "\\d+"
          case Cls.Letter => JPattern.quote(t.text)
          case _          => classRe(t)
        }
      }.mkString
      Some(RegexRule(name, re))
    }
  }

  /** Programmer #3 (sloppy, ≈ 0.30): transcribes the first value with exact
    * lengths everywhere — `\d{1}/\d{2}/\d{4}` style.
    */
  final class Sloppy(override val name: String = "Programmer#3") extends Method {
    def learn(train: Seq[String]): Option[Rule] = {
      val vs = train.filterNot(Values.isMissing)
      if (vs.isEmpty) return None
      val toks = Tokens.tokenize(vs.head)
      val re = toks.map {
        case t if t.cls == Cls.Symbol => JPattern.quote(t.text)
        case t                        => s"${classRe(t)}{${t.len}}"
      }.mkString
      Some(RegexRule(name, re))
    }
  }

  val all: Vector[Method] = Vector(new Careful, new Quick, new Sloppy)

  /** The paper's human timing per programmer (seconds), for the report. */
  val PaperSeconds: Map[String, Int] =
    Map("Programmer#1" -> 145, "Programmer#2" -> 123, "Programmer#3" -> 84)
}
