package repro.perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd, SparkListenerTaskStart}
import repro.core.{Mma, Trmma, TrmmaModel}
import repro.geo.XY
import repro.mm.MapMatcher
import repro.nn.{Adam, NoTape, Ops, Tape, Trainer}
import repro.recovery.Recoverer
import repro.traj.{MatchedRoute, Traj}
import scala.collection.mutable

/** In-memory span recorder for one traced pass. Spans nest through a stack
  * (single caller thread); a child inherits its parent's trajectory id. Self
  * time is a span's duration minus the time its direct children cover.
  */
final class Tracer(val pass: String) {
  private val names = mutable.ArrayBuffer.empty[String]
  private val parents = mutable.ArrayBuffer.empty[Int]
  private val trajs = mutable.ArrayBuffer.empty[Long]
  private val starts = mutable.ArrayBuffer.empty[Long]
  private val ends = mutable.ArrayBuffer.empty[Long]
  private var stack: List[Int] = Nil

  def span[A](name: String, traj: Long = -1L)(body: => A): A = {
    val id = names.length
    val parent = stack.headOption.getOrElse(-1)
    names += name
    parents += parent
    trajs += (if (traj >= 0 || parent < 0) traj else trajs(parent))
    starts += System.nanoTime()
    ends += 0L
    stack = id :: stack
    try body
    finally { ends(id) = System.nanoTime(); stack = stack.tail }
  }

  private def durations: Array[Long] = Array.tabulate(names.length)(i => ends(i) - starts(i))

  private def selfTimes: Array[Long] = {
    val self = durations
    names.indices.foreach(i => if (parents(i) >= 0) self(parents(i)) -= ends(i) - starts(i))
    self
  }

  /** Summed duration (seconds) of the spans called `name`. */
  def totalS(name: String): Double = {
    val d = durations
    names.indices.filter(names(_) == name).map(d(_)).sum / 1e9
  }

  /** Summed self time (seconds) of the spans called `name`. */
  def selfS(name: String): Double = {
    val s = selfTimes
    names.indices.filter(names(_) == name).map(s(_)).sum / 1e9
  }

  def durationsMs(name: String): Seq[Double] = {
    val d = durations
    names.indices.filter(names(_) == name).map(d(_) / 1e6)
  }

  def spans: Seq[Map[String, Any]] = {
    val t0 = if (starts.isEmpty) 0L else starts.min
    val self = selfTimes
    names.indices.map { i =>
      Map("id" -> i, "name" -> names(i), "parent" -> parents(i), "traj" -> trajs(i),
        "start_us" -> (starts(i) - t0) / 1000, "dur_us" -> (ends(i) - starts(i)) / 1000,
        "self_us" -> self(i) / 1000)
    }
  }
}

/** Layer counts of the MMA calls of one traced pass. */
final case class MmaCounts(points: Long, truthInTopK: Long, exitNodes: Long, planCalls: Long,
                           routePairs: Long, routeJumps: Long)

/** MMA end to end (what `Mma.matchTraj` does), composed from the public
  * layer calls so each layer gets its own span:
  * `nearestSegments` -> `prepare` -> forward (encode, candidate embedding,
  * logits, argmax) -> `stitch`. The R-tree query is timed on its own; `prepare`
  * repeats it internally, and that repeat is part of the tracing overhead.
  * Each call only keeps its candidates and output; the layer counts are
  * computed afterwards by [[counts]], outside every span.
  */
final class TracedMma(mma: Mma, tracer: Tracer) extends MapMatcher {
  val name: String = mma.name
  private val model = mma.model
  private val net = model.net
  private val calls = mutable.ArrayBuffer.empty[(Traj, Array[Array[Int]], MatchedRoute)]

  def matchTraj(t: Traj): MatchedRoute = {
    val (cands, mr) = tracer.span("core.mma.match", t.id) {
      val cands = tracer.span("geo.rtree.nearest") {
        t.sparse.map(p => net.nearestSegments(XY(p.x, p.y), model.cfg.kc))
      }
      val s = tracer.span("core.mma.prepare")(model.prepare(t, withLabels = false))
      val per = tracer.span("core.mma.forward") {
        implicit val tp: Tape = NoTape
        val z2 = model.encodePoints(s)
        Array.tabulate(s.cands.length) { i =>
          val logits = model.logitsFor(Ops.sliceRows(z2, i, i + 1), model.candEmbed(s, i))
          var best = 0
          var bv = Double.NegativeInfinity
          var j = 0
          while (j < logits.rows) { if (logits(j, 0) > bv) { bv = logits(j, 0); best = j }; j += 1 }
          s.cands(i)(best)
        }
      }
      val route = tracer.span("geo.planner.stitch")(mma.planner.stitch(per.toIndexedSeq).toArray)
      (cands, MatchedRoute(t.id, per, route))
    }
    calls += ((t, cands, mr))
    mr
  }

  def counts: MmaCounts = {
    def sum(f: ((Traj, Array[Array[Int]], MatchedRoute)) => Long) = calls.iterator.map(f).sum
    MmaCounts(
      points = sum(_._2.length.toLong),
      truthInTopK = sum { case (t, cands, _) => cands.indices.count(i => cands(i).contains(t.sparseTruthSeg(i))).toLong },
      exitNodes = sum(_._2.map(_.map(net.segments(_).to).distinct.length.toLong).sum),
      planCalls = sum { case (_, _, mr) => mr.perPoint.indices.drop(1).count(i => mr.perPoint(i) != mr.perPoint(i - 1)).toLong },
      routePairs = sum(c => math.max(0, c._3.route.length - 1).toLong),
      routeJumps = sum(c => OutputChecks.jumps(net, c._3.route).toLong),
    )
  }
}

/** Keeps the last route the wrapped matcher produced, so the route inside a
  * `Trmma.recover` call can be checked.
  */
final class RouteTap(inner: MapMatcher) extends MapMatcher {
  val name: String = inner.name
  @transient var last: MatchedRoute = _
  def matchTraj(t: Traj): MatchedRoute = { last = inner.matchTraj(t); last }
}

/** Training loops of `MmaModel.train` / `TrmmaModel.train`, driven one
  * `Trainer.step` at a time so sample preparation and each step get spans.
  * Batch size, learning rate, clipping and shuffle seed are the defaults of
  * those `train` methods; the traced run checks that both give equal losses.
  */
object TracedTraining {

  def loop[S](tracer: Tracer, samples: IndexedSeq[S], params: Seq[repro.nn.Tensor], opt: Adam,
              epochs: Int, batchSize: Int, seed: Long, lossOf: (S, Tape) => repro.nn.Tensor): Seq[Double] = {
    val rnd = new scala.util.Random(seed)
    (1 to epochs).map { _ =>
      val losses = rnd.shuffle(samples).grouped(batchSize).map { batch =>
        tracer.span("nn.train.step")(Trainer.step[S](batch.toIndexedSeq, params, opt, lossOf))
      }.toSeq
      losses.sum / losses.size
    }
  }

  def mma(tracer: Tracer, model: repro.core.MmaModel, trajs: IndexedSeq[Traj], epochs: Int): Seq[Double] = {
    val samples = trajs.map(t => tracer.span("nn.train.prepare", t.id)(model.prepare(t, withLabels = true)))
    loop(tracer, samples, model.params, new Adam(model.params, lr = 1e-3), epochs, 32, 17L,
      (s: repro.core.MmaSample, tp: Tape) => model.loss(s)(tp))
  }

  def trmma(tracer: Tracer, model: TrmmaModel, trajs: IndexedSeq[Traj], epochs: Int): Seq[Double] = {
    val samples = trajs.map(t => tracer.span("nn.train.prepare", t.id)(model.prepareTrain(t)))
    loop(tracer, samples, model.params, new Adam(model.params, lr = 2e-3, clipNorm = 50.0), epochs, 16, 23L,
      (s: repro.core.TrmmaSample, tp: Tape) => model.loss(s)(tp))
  }
}

/** Decode-window statistics of one `Trmma.recover` call: rebuilds the dense
  * timeline exactly as `Trmma.recover` does and returns (missing slots,
  * summed decode-window widths) from `TrmmaModel.prepare`.
  */
object DecodeWindows {
  def apply(trmma: Trmma, t: Traj, mr: MatchedRoute): (Int, Long) = {
    val model = trmma.model
    val segs = mr.perPoint
    val route = if (mr.route.nonEmpty) mr.route else segs.distinct
    val slotSeg = mutable.ArrayBuffer.empty[Int]
    val slotR = mutable.ArrayBuffer.empty[Double]
    val observed = mutable.ArrayBuffer.empty[Boolean]
    t.sparse.indices.foreach { i =>
      val p = t.sparse(i)
      slotSeg += segs(i); slotR += model.projRatio(XY(p.x, p.y), segs(i)); observed += true
      if (i + 1 < t.sparse.length) {
        val gaps = Recoverer.gapCount(p.t, t.sparse(i + 1).t, trmma.epsilon)
        (1 to gaps).foreach { _ => slotSeg += segs(i); slotR += 0.0; observed += false }
      }
    }
    val s = model.prepare(t, segs, route, slotSeg.toArray, slotR.toArray, observed.toArray)
    val missing = observed.indices.filterNot(observed(_))
    (missing.length, missing.map(j => math.max(s.slotLo(j), s.slotHi(j)) - s.slotLo(j) + 1L).sum)
  }
}

/** Task durations of the Spark jobs run while it is registered. */
final class TaskTimes extends SparkListener {
  private val started = new java.util.concurrent.atomic.AtomicInteger()
  private val ended = new java.util.concurrent.atomic.AtomicInteger()
  private val durations = new java.util.concurrent.ConcurrentLinkedQueue[java.lang.Long]()

  override def onTaskStart(e: SparkListenerTaskStart): Unit = started.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    durations.add(e.taskInfo.duration)
    ended.incrementAndGet()
  }

  /** Task durations in seconds, once every started task has reported. */
  def taskSeconds(): Seq[Double] = {
    val deadline = System.nanoTime() + 10000000000L
    while ((ended.get() < started.get() || started.get() == 0) && System.nanoTime() < deadline)
      Thread.sleep(5)
    import scala.jdk.CollectionConverters._
    durations.asScala.toSeq.map(_.toDouble / 1000.0)
  }
}
