package repro.baselines

import java.util.regex.{Pattern => JPattern}
import repro.core.{Method, Rule}

/** Grok-patterns baseline (§5.2): a curated library of regexes for common
  * data types (the spirit of elastic/grok, used by AWS Glue classifiers).
  * Training finds library patterns matching nearly all observed values; the
  * rule requires future values to match one of them. High precision on
  * common types, but no coverage for proprietary formats — low recall.
  */
object Grok {

  /** Curated (name, regex) pairs — common types only, by design. */
  val Library: Vector[(String, String)] = Vector(
    "INT" -> """[+-]?\d+""",
    "NUMBER" -> """[+-]?\d+\.\d+""",
    "PERCENT" -> """\d+(\.\d+)?%""",
    "DATE_US" -> """\d{1,2}/\d{1,2}/\d{4}""",
    "DATE_ISO" -> """\d{4}-\d{2}-\d{2}""",
    "TIME" -> """\d{1,2}:\d{2}(:\d{2})?""",
    "TIME_AMPM" -> """\d{1,2}:\d{2}(:\d{2})? (AM|PM)""",
    "DATETIME_US" -> """\d{1,2}/\d{1,2}/\d{4} \d{1,2}:\d{2}(:\d{2})?( (AM|PM))?""",
    "TIMESTAMP_ISO" -> """\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}Z?""",
    "MONTH_DAY_YEAR" -> """(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{2} \d{4}""",
    "UUID" -> """[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}""",
    "IP" -> """(\d{1,3}\.){3}\d{1,3}""",
    "MAC" -> """([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}""",
    "EMAIL" -> """[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}""",
    "URI" -> """https?://[^\s]+""",
    "PATH" -> """(/[\w.-]+)+""",
    "HEX" -> """(0x)?[0-9a-fA-F]{4,}""",
    "ZIP" -> """\d{5}(-\d{4})?""",
    "PHONE_US" -> """\(\d{3}\) \d{3}-\d{4}""",
    "VERSION" -> """v?\d+(\.\d+){1,3}""",
    "BOOL" -> """(true|false|TRUE|FALSE|yes|no|Y|N|T|F)""",
    "WORD" -> """[A-Za-z]+""",
    "LOCALE" -> """[a-z]{2}[-_][A-Z]{2}""")

  private val Compiled: Vector[(String, JPattern)] =
    Library.map { case (n, rx) => n -> JPattern.compile("^(?:" + rx + ")$") }

  final case class GrokRule(name: String, grokNames: Vector[String]) extends Rule {
    private val pats = Compiled.filter { case (n, _) => grokNames.contains(n) }.map(_._2)
    def flags(test: Seq[String]): Boolean =
      test.exists(v => v == null || !pats.exists(_.matcher(v).matches()))
    def describe: String = grokNames.mkString(" | ")
  }

  /** Learn: keep grok types matching ≥ `MinCoverage` of training values. */
  final class AsMethod extends Method {
    val name = "Grok"
    private val MinCoverage = 0.95
    def learn(train: Seq[String]): Option[Rule] = {
      val vs = train.filter(_ != null)
      if (vs.isEmpty) return None
      val matched = Compiled.filter { case (_, p) =>
        vs.count(v => p.matcher(v).matches()) >= MinCoverage * vs.size
      }.map(_._1)
      if (matched.isEmpty) None else Some(GrokRule(name, matched))
    }
  }
}
