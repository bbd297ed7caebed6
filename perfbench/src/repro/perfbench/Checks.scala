package repro.perfbench

import repro.geo.RoadNetwork
import repro.traj.{MatchedRoute, Recovered, Traj}
import scala.collection.mutable

/** Failure accounting for one benchmark run. Every checked unit of work (a
  * trajectory through a method, a Spark result set, a training epoch, a
  * cross-check) counts as attempted; a unit that throws or fails a check
  * counts as failed. The first few failure messages are kept for the record.
  */
final class Checks {
  private var nAttempted = 0L
  private var nFailed = 0L
  private val messages = mutable.ArrayBuffer.empty[String]

  def attempted: Long = nAttempted
  def failed: Long = nFailed
  def failures: Seq[String] = messages.toSeq

  /** Count one unit; `problems` empty means it passed. */
  def record(what: String, problems: Seq[String]): Unit = {
    nAttempted += 1
    if (problems.nonEmpty) {
      nFailed += 1
      if (messages.length < 20) messages += s"$what: ${problems.take(3).mkString("; ")}"
    }
  }

  def require(what: String, ok: Boolean, detail: => String = ""): Unit =
    record(what, if (ok) Nil else Seq(if (detail.isEmpty) "check failed" else detail))

  /** Run `body` as one unit of work; an exception counts it as failed. */
  def guard[A](what: String)(body: => A): Option[A] =
    try Some(body)
    catch {
      case e: Exception =>
        record(what, Seq(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}"))
        None
    }
}

/** Output invariants of the public entry points. Each returns the list of
  * violated invariants (empty when the output is valid).
  */
object OutputChecks {

  /** Non-contiguous adjacent pairs of a route under `net.nextSegments`
    * (a planner "jump" is one such pair).
    */
  def jumps(net: RoadNetwork, route: Array[Int]): Int = {
    var n = 0
    var i = 1
    while (i < route.length) {
      if (!net.nextSegments(route(i - 1)).contains(route(i))) n += 1
      i += 1
    }
    n
  }

  private def inRange(net: RoadNetwork, s: Int) = s >= 0 && s < net.numSegments

  def route(net: RoadNetwork, t: Traj, mr: MatchedRoute): Seq[String] = {
    val p = mutable.ArrayBuffer.empty[String]
    if (mr.id != t.id) p += s"id ${mr.id} != ${t.id}"
    if (mr.perPoint.length != t.sparse.length)
      p += s"perPoint.length ${mr.perPoint.length} != sparse.length ${t.sparse.length}"
    if (!mr.perPoint.forall(inRange(net, _))) p += "per-point segment id out of range"
    if (mr.route.isEmpty) p += "empty route"
    else if (!mr.route.forall(inRange(net, _))) p += "route segment id out of range"
    else {
      val j = jumps(net, mr.route)
      if (j > 0) p += s"route not contiguous ($j jumps)"
      val onRoute = mr.route.toSet
      if (!mr.perPoint.forall(onRoute)) p += "route misses a matched segment"
    }
    p.toSeq
  }

  def recovered(net: RoadNetwork, t: Traj, rec: Recovered): Seq[String] = {
    val p = mutable.ArrayBuffer.empty[String]
    if (rec.id != t.id) p += s"id ${rec.id} != ${t.id}"
    if (rec.points.length != t.dense.length)
      p += s"points.length ${rec.points.length} != dense.length ${t.dense.length}"
    else if (!rec.points.indices.forall(i => math.abs(rec.points(i).t - t.dense(i).t) < 1e-6))
      p += "timestamps not index-aligned with the dense timeline"
    if (!rec.points.forall(mp => inRange(net, mp.seg))) p += "segment id out of range"
    if (!rec.points.forall(mp => mp.r >= 0.0 && mp.r <= 1.0)) p += "ratio outside [0, 1]"
    p.toSeq
  }

  def sameRoute(a: MatchedRoute, b: MatchedRoute): Boolean =
    a.id == b.id && a.perPoint.sameElements(b.perPoint) && a.route.sameElements(b.route)

  def sameRecovered(a: Recovered, b: Recovered): Boolean =
    a.id == b.id && a.points.sameElements(b.points)
}
