package repro.perfbench

/** Minimal JSON writer for the benchmark's records and traces: maps, sequences,
  * strings, booleans and numbers. Non-finite numbers become null so a broken
  * metric shows up as a failed check rather than as invalid JSON.
  */
object Json {

  def write(v: Any): String = {
    val sb = new StringBuilder
    emit(v, sb)
    sb.toString
  }

  private def emit(v: Any, sb: StringBuilder): Unit = v match {
    case null                       => sb ++= "null"
    case s: String                  => str(s, sb)
    case b: Boolean                 => sb ++= b.toString
    case d: Double                  => sb ++= (if (d.isNaN || d.isInfinite) "null" else d.toString)
    case i: Int                     => sb ++= i.toString
    case l: Long                    => sb ++= l.toString
    case m: scala.collection.Map[_, _] =>
      sb += '{'
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb += ','
        first = false
        str(k.toString, sb); sb += ':'; emit(x, sb)
      }
      sb += '}'
    case it: Iterable[_]            =>
      sb += '['
      var first = true
      it.foreach { x => if (!first) sb += ','; first = false; emit(x, sb) }
      sb += ']'
    case a: Array[_]                => emit(a.toSeq, sb)
    case other                      => str(other.toString, sb)
  }

  private def str(s: String, sb: StringBuilder): Unit = {
    sb += '"'
    s.foreach {
      case '"'            => sb ++= "\\\""
      case '\\'           => sb ++= "\\\\"
      case '\n'           => sb ++= "\\n"
      case '\r'           => sb ++= "\\r"
      case '\t'           => sb ++= "\\t"
      case c if c < 0x20  => sb ++= f"\\u${c.toInt}%04x"
      case c              => sb += c
    }
    sb += '"'
  }
}
