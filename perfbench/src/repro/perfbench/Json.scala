package repro.perfbench

/** Minimal JSON writer for the harness report (maps, sequences, strings,
  * numbers, booleans and options). Non-finite numbers become null.
  */
object Json {
  def apply(v: Any): String = v match {
    case null | None     => "null"
    case Some(x)         => apply(x)
    case s: String       => quote(s)
    case b: Boolean      => b.toString
    case d: Double       => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int          => n.toString
    case n: Long         => n.toString
    case m: collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Array[_]    => apply(xs.toSeq)
    case xs: Iterable[_] => xs.iterator.map(apply).mkString("[", ",", "]")
    case other           => throw new IllegalArgumentException(s"not JSON-encodable: $other")
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < 0x20 || c > 0x7e => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
