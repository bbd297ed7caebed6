package repro.perfbench

import java.util.PriorityQueue
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import repro.mm.MapMatcher
import repro.recovery.Recoverer
import repro.traj.{MatchedRoute, Recovered, Traj}
import scala.collection.mutable

/** How fast the host runs right now, measured with a fixed piece of work that
  * uses none of the program's code (`HostSpeed.work`: dense float arithmetic,
  * a heap-based shortest-path search and hash-map traffic, the same mix the
  * program runs).
  *
  * The benchmark runs on a few cores of a shared host, and other load on the
  * host moves a thread's speed by up to ±40 %, for seconds or for minutes.
  * Every timing the benchmark reports is therefore scaled to the reference
  * host speed: multiplied by `ReferenceMs / k`, with `k` the kernel's time
  * measured on the same thread around the timed work (direct calls) or during
  * it (Spark passes, see [[ProbedMatcher]]). A change to the program moves the
  * timings and not `k`; a change in host load moves both.
  */
final class HostSpeed {
  private val t0 = System.nanoTime()

  /** Every measurement as (ms since construction, kernel ms). */
  val points = mutable.ArrayBuffer.empty[(Double, Double)]

  private def note(ms: Double): Double = {
    points += (((System.nanoTime() - t0) / 1e6, ms))
    ms
  }

  /** Kernel time on this thread now. */
  def kernelMs(): Double = note(HostSpeed.medianMs())

  /** Factor that scales a time measured at kernel time `kMs` to the
    * reference host speed.
    */
  def scale(kMs: Double): Double = HostSpeed.ReferenceMs / kMs

  /** Run the kernel until the JIT has compiled it. */
  def warm(): Unit = (1 to 8).foreach(_ => HostSpeed.medianMs())
}

object HostSpeed {

  /** The kernel's time on a 2.0 GHz Xeon (Sapphire Rapids) vCPU with JDK 17
    * when the host was quiet: the speed every reported timing is scaled to.
    */
  val ReferenceMs = 2.5

  @volatile private var sink = 0L

  private def onceMs(): Double = {
    val s = System.nanoTime()
    sink += work()
    (System.nanoTime() - s) / 1e6
  }

  /** Kernel time: the median of five runs, in ms. */
  def medianMs(): Double = Seq.fill(5)(onceMs()).sorted(Ordering.Double.TotalOrdering)(2)

  /** A probed Spark pass runs the kernel once every ProbeEvery trajectories. */
  val ProbeEvery = 4
  private val probeCalls = new AtomicLong
  private val probes = new ConcurrentLinkedQueue[java.lang.Double]

  /** Counts one trajectory of a probed pass, and on every ProbeEvery-th runs
    * the kernel on the calling thread.
    */
  def probe(): Unit = if (probeCalls.getAndIncrement() % ProbeEvery == 0) probes.add(onceMs())

  /** The kernel times (ms) of the probes since the last call. */
  def takeProbes(): Seq[Double] = {
    val out = mutable.ArrayBuffer.empty[Double]
    var p = probes.poll()
    while (p != null) { out += p.doubleValue; p = probes.poll() }
    probeCalls.set(0)
    out.toSeq
  }

  private val N = 48
  private val matA = Array.tabulate(N * N)(i => ((i * 7919) % 1009) / 1009.0 - 0.5)
  private val matB = Array.tabulate(N * N)(i => ((i * 104729) % 1013) / 1013.0 - 0.5)

  // A fixed 40 x 40 grid graph with pseudo-random edge weights.
  private val G = 40
  private val weights = Array.tabulate(G * G * 4)(i => 1.0 + ((i * 2654435761L) % 1000003L) / 1000003.0)

  /** The fixed work; returns a checksum so none of it can be skipped. */
  def work(): Long = {
    var acc = 0L
    // Dense arithmetic: six 48 x 48 matrix products through tanh.
    val c = new Array[Double](N * N)
    var rep = 0
    while (rep < 6) {
      var i = 0
      while (i < N) {
        var k = 0
        while (k < N) {
          val a = matA(i * N + k)
          var j = 0
          while (j < N) { c(i * N + j) += a * matB(k * N + j); j += 1 }
          k += 1
        }
        i += 1
      }
      var j = 0
      while (j < c.length) { c(j) = math.tanh(c(j)); j += 1 }
      rep += 1
    }
    acc += java.lang.Double.doubleToLongBits(c(7))
    // Shortest paths: Dijkstra from eight sources with boxed heap entries.
    var src = 0
    while (src < 8) {
      val dist = Array.fill(G * G)(Double.PositiveInfinity)
      val s = src * 613 % (G * G)
      dist(s) = 0.0
      val pq = new PriorityQueue[(Double, Int)](11, (a: (Double, Int), b: (Double, Int)) => java.lang.Double.compare(a._1, b._1))
      pq.add((0.0, s))
      while (!pq.isEmpty) {
        val (d, u) = pq.poll()
        if (d <= dist(u)) {
          val x = u % G
          val y = u / G
          var e = 0
          while (e < 4) {
            val v = e match {
              case 0 => if (x + 1 < G) u + 1 else -1
              case 1 => if (x > 0) u - 1 else -1
              case 2 => if (y + 1 < G) u + G else -1
              case _ => if (y > 0) u - G else -1
            }
            if (v >= 0) {
              val nd = d + weights(u * 4 + e)
              if (nd < dist(v)) { dist(v) = nd; pq.add((nd, v)) }
            }
            e += 1
          }
        }
      }
      acc += dist(G * G - 1 - s).toLong
      src += 1
    }
    // Hash-map traffic.
    val m = mutable.HashMap.empty[Int, Double]
    var i = 0
    while (i < 12000) { m(i * 31 % 15013) = i.toDouble; i += 1 }
    i = 0
    while (i < 12000) { acc += m.getOrElse(i, 0.0).toLong; i += 1 }
    acc
  }
}

/** `inner` as a timed Spark pass runs it: probed, so the pass is scaled by the
  * speed of the thread that ran its tasks.
  */
final class ProbedMatcher(inner: MapMatcher) extends MapMatcher {
  val name: String = inner.name
  def matchTraj(t: Traj): MatchedRoute = { HostSpeed.probe(); inner.matchTraj(t) }
}

/** `inner` as a timed Spark pass runs it (see [[ProbedMatcher]]). */
final class ProbedRecoverer(inner: Recoverer) extends Recoverer {
  val name: String = inner.name
  def recover(t: Traj): Recovered = { HostSpeed.probe(); inner.recover(t) }
}
