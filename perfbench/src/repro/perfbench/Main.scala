package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.lit
import repro.core._
import repro.eval.{Metrics, SparkInfer}
import repro.geo.{RoutePlanner, ShortestPath, XY}
import repro.mm.HmmMatcher
import repro.nn.{Node2Vec, Tensor}
import repro.recovery.Recoverer
import repro.traj.{Datasets, MatchedRoute, Recovered, Traj, TrajGen}
import scala.collection.mutable

/** One benchmark workload: a city and the method whose single-caller latency
  * and Spark throughput it times (`primary`). Both workloads run the same
  * pipeline (train MMA and TRMMA, match with MMA and FMM, recover with TRMMA)
  * at the sizes in [[Workload]]; the city and the primary method decide which
  * layer dominates. `nFmm` timed trajectories go through each FMM pass.
  */
final case class Workload(name: String, city: String, primary: String, nFmm: Int)

object Workload {
  val all: Seq[Workload] = Seq(
    // BJ: largest network, epsilon = 60 s, ~5 sparse points with long gaps:
    // graph search inside MMA dominates.
    Workload("match-bj", "BJ", "mma", nFmm = 100),
    // XA: small dense network, epsilon = 12 s, ~67 dense slots: TRMMA's own
    // encode/decode dominates recovery.
    // FMM matches an XA trajectory about three times faster than a BJ one;
    // the larger pass keeps Spark's fixed cost per pass a small share.
    Workload("recover-xa", "XA", "trmma", nFmm = 200),
  )

  /** Seed of the fixed training/validation corpus. `--seed` must be
    * non-negative, so the timed trajectories never repeat these.
    */
  val TrainSeed: Long = -1L

  // Training and quality use the fixed corpus: NTrain training and NValid
  // validation trajectories (the first NWarmDirect of which also warm the
  // direct calls). NTimed trajectories are made from the run's seed. Latency
  // is timed on the first NLatency of them, each called once per measurement
  // round; Spark throughput on the first NSpark (primary method) and
  // `nFmm` (FMM). NTraced bounds the traced pass of the primary method; on BJ a
  // traced TRMMA pass over NTracedSecondary gives TRMMA's spans.
  val NTrain = 240
  val MmaEpochs = 3
  val NTrmmaTrain = 64
  val TrmmaEpochs = 2
  val NValid = 150
  val NWarmDirect = 32
  // Measurement takes at least MinRounds rounds: every latency sample is the
  // median of at least MinRounds calls and every throughput the median of at
  // least MinRounds passes.
  val MinRounds = 4
  val NTimed = 300
  val NLatency = 200
  val NSpark = 60
  val NTraced = 300
  // The host-speed kernel is measured between every LatencyChunk direct calls.
  val LatencyChunk = 25
  val NTracedSecondary = 100
}

/** Products of one set-up: the fixed corpus, embeddings,
  * planner and trained models.
  */
final case class Setup(
    fixed: IndexedSeq[Traj],
    n2v: Tensor,
    planner: RoutePlanner,
    mma: MmaModel,
    mmaLosses: Seq[Double],
    trmma: TrmmaModel,
    trmmaLosses: Seq[Double],
    seconds: Map[String, Double],
)

/** The benchmark run: `untraced()` measures the end-to-end metrics with
  * tracing off; `traced()` records spans around each layer's public calls and
  * reports the per-layer metrics. Both check every output they produce.
  */
final class Run(spark: SparkSession, w: Workload, seed: Long, budgetS: Double, speed: HostSpeed) {
  import Workload._
  val checks = new Checks
  private val cd = Datasets(w.city)
  private val net = cd.net
  private val eps = cd.gen.epsilon

  private def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** A probed Spark pass (see [[ProbedMatcher]]): (result, wall s less the
    * probes' kernel runs, that time scaled to the reference host speed by the
    * median probe).
    */
  private def timeProbed[A](body: => A): (A, Double, Double) = {
    HostSpeed.takeProbes()
    val (r, s) = time(body)
    val probes = HostSpeed.takeProbes()
    val raw = s - probes.sum / 1000
    (r, raw, if (probes.isEmpty) Double.NaN else raw * speed.scale(median(probes)))
  }

  private def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Nearest-rank quantile. */
  private def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.length).toInt - 1))
  }

  private def checksum(ts: Seq[Tensor]): Double = ts.map(_.data.sum).sum

  // ---- set-up ----

  private def corpus(seed: Long, n: Int): IndexedSeq[Traj] = {
    val all = TrajGen.generate(spark, net, cd.gen, n.toLong, seed).collect().toIndexedSeq.sortBy(_.id)
    checks.require(s"corpus of seed $seed", all.map(_.id) == (0L until n.toLong), s"ids of ${all.length} trajectories")
    all
  }

  /** Builds the fixed corpus, embeddings, planner and models. The host-speed
    * kernel is measured after each phase, to scale `setup_s`.
    */
  def setup(): Setup = {
    def phase[A](body: => A): (A, Double) = { val r = time(body); speed.kernelMs(); r }
    val (fixed, genFixedS) = phase(corpus(Workload.TrainSeed, NTrain + NValid))
    val train = fixed.take(NTrain)
    val (n2v, n2vS) = phase(Node2Vec.train(net, dim = 32, epochs = 1, walksPerSeg = 4))
    val (planner, plannerS) = phase(RoutePlanner.fit(net, train.map(_.route.toSeq)))
    val mma = MmaModel.init(net, MmaConfig(), n2v)
    val (mmaLosses, mmaS) = phase(MmaModel.train(mma, train, epochs = MmaEpochs))
    val trmma = TrmmaModel.init(net, TrmmaConfig(), n2v)
    val (trmmaLosses, trmmaS) = phase(TrmmaModel.train(trmma, train.take(NTrmmaTrain), epochs = TrmmaEpochs))
    (mmaLosses ++ trmmaLosses).zipWithIndex.foreach { case (l, i) =>
      checks.require(s"training epoch $i", l.isFinite && l > 0, s"loss $l")
    }
    Setup(fixed, n2v, planner, mma, mmaLosses, trmma, trmmaLosses,
      Map("gen" -> genFixedS, "node2vec" -> n2vS, "planner" -> plannerS, "mma_train" -> mmaS,
        "trmma_train" -> trmmaS))
  }

  private def train(s: Setup) = s.fixed.take(NTrain)
  private def valid(s: Setup) = s.fixed.drop(NTrain)

  // ---- the system's public entry points ----

  private final class Methods(s: Setup) {
    val mma = new Mma(s.mma, s.planner)
    val fmm = new HmmMatcher(net, s.planner)
    val trmma = new Trmma(s.trmma, mma, eps)
    val tap = new RouteTap(mma)
    val trmmaTapped = new Trmma(s.trmma, tap, eps)

    def matchChecked(t: Traj, m: repro.mm.MapMatcher, what: String): Unit =
      checks.guard(what)(m.matchTraj(t)).foreach(mr => checks.record(s"$what traj ${t.id}", OutputChecks.route(net, t, mr)))

    def recoverChecked(t: Traj, what: String): Unit =
      checks.guard(what)(trmmaTapped.recover(t)).foreach { rec =>
        checks.record(s"$what traj ${t.id}", OutputChecks.recovered(net, t, rec) ++ OutputChecks.route(net, t, tap.last))
      }

    /** One Spark pass of the MMA or FMM matcher, or of TRMMA, plus the
      * aggregation job; returns (per-trajectory rows, aggregate). A timed
      * pass runs the method `probed`.
      */
    def sparkPass(method: String, trajs: Seq[Traj], probed: Boolean = false): Option[(DataFrame, Map[String, Double])] =
      checks.guard(s"spark $method") {
        def matcher(mm: repro.mm.MapMatcher) = if (probed) new ProbedMatcher(mm) else mm
        val (df, _) = method match {
          case "trmma" => SparkInfer.recovery(spark, net, if (probed) new ProbedRecoverer(trmma) else trmma, trajs)
          case "fmm"   => SparkInfer.mapMatch(spark, net, matcher(fmm), trajs)
          case _       => SparkInfer.mapMatch(spark, net, matcher(mma), trajs)
        }
        (df, Metrics.aggregate(df))
      }
  }

  /** Warm every timed method on the validation trajectories (outside the
    * timed set): direct calls, then one Spark pass each. The Spark passes'
    * aggregates are the run's quality metrics, keyed by method.
    */
  private def warmUp(s: Setup, m: Methods): Map[String, Map[String, Double]] = {
    val v = valid(s)
    v.take(NWarmDirect).foreach { t =>
      m.matchChecked(t, m.mma, "warm-up MMA")
      m.matchChecked(t, m.fmm, "warm-up FMM")
      m.recoverChecked(t, "warm-up TRMMA")
    }
    val quality = Seq("mma", "fmm", "trmma").flatMap { k =>
      m.sparkPass(k, v).map { case (df, agg) => checkRows(df, agg, v, k, oracle = true); k -> agg }
    }.toMap
    awaitJit()
    quality
  }

  /** Let the JIT finish the compilations the warm-up queued: wait until the
    * total compilation time stops growing (at most 5 s).
    */
  private def awaitJit(): Unit = {
    val jit = ManagementFactory.getCompilationMXBean
    val deadline = System.nanoTime() + 5000000000L
    var last = -1L
    var now = jit.getTotalCompilationTime
    while (now - last > 2 && System.nanoTime() < deadline) {
      Thread.sleep(250)
      last = now
      now = jit.getTotalCompilationTime
    }
  }

  // ---- result checks ----

  private val fractionCols = Set("precision", "recall", "f1", "jaccard", "accuracy")

  /** Spark result rows: one per input trajectory, values in range, and (with
    * `oracle`) the aggregate equal to DuckDB's over the same rows.
    */
  private def checkRows(df: DataFrame, agg: Map[String, Double], trajs: Seq[Traj], method: String,
                        oracle: Boolean = false): Unit = {
    val rows = df.collect()
    val cols = df.columns.filterNot(_ == "id")
    checks.require(s"spark $method ids", rows.map(_.getAs[Long]("id")).sorted.toSeq == trajs.map(_.id).sorted,
      s"${rows.length} rows for ${trajs.length} trajectories")
    val bad = rows.count(r => cols.exists { c =>
      val v = r.getAs[Double](c)
      !v.isFinite || v < 0 || (fractionCols(c) && v > 1)
    })
    checks.require(s"spark $method values", bad == 0, s"$bad rows out of range")
    if (oracle) checks.guard(s"oracle $method") {
      val aggDf = spark.range(1).select(cols.map(c => lit(agg(c)).as(c)).toIndexedSeq: _*)
      val sql = cols.map(c => s"avg(CAST($c AS DOUBLE)) AS $c").mkString("SELECT ", ", ", " FROM rows")
      repro.Oracle.assertEquivalent(aggDf, sql, "rows" -> df)
      checks.record(s"oracle $method", Nil)
    }
  }

  private def rowsById(df: DataFrame): Map[Long, Row] = df.collect().map(r => r.getAs[Long]("id") -> r).toMap

  // ---- shared pieces of both modes ----

  private def fingerprint(timed: Seq[Traj]): mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap(
    "trajectories" -> timed.length.toLong,
    "sparse_points" -> timed.map(_.sparse.length.toLong).sum,
    "dense_slots" -> timed.map(_.dense.length.toLong).sum,
    "candidate_exit_nodes" -> timed.map(t => t.sparse.map { p =>
      net.nearestSegments(XY(p.x, p.y), MmaConfig().kc).map(net.segments(_).to).distinct.length.toLong
    }.sum).sum,
    "decoded_slots" -> timed.map(t => t.sparse.indices.drop(1).map(i =>
      Recoverer.gapCount(t.sparse(i - 1).t, t.sparse(i).t, eps).toLong).sum).sum,
  )

  private def heapMb(): Double = {
    val rt = Runtime.getRuntime
    (1 to 3).foreach(_ => System.gc())
    (rt.totalMemory() - rt.freeMemory()) / (1024.0 * 1024.0)
  }

  // ---- untraced: end-to-end metrics ----

  /** What is kept of one set-up repetition: its wall time, phase times and
    * what the trained models must repeat (losses and parameter checksums).
    */
  private final case class Rep(wallS: Double, seconds: Map[String, Double], models: Seq[Any])

  /** One single-caller direct call of the primary method's public entry point
    * on `t`; returns its output, or null if it threw (counted as failed).
    */
  private def directCall(m: Methods, t: Traj): AnyRef =
    checks.guard(s"${w.primary} call") {
      if (w.primary == "mma") m.mma.matchTraj(t) else m.trmmaTapped.recover(t)
    }.orNull

  /** Checks a direct call's output `out` for `t`: the first output in full,
    * a repeat against the first output `first`.
    */
  private def checkDirect(m: Methods, t: Traj, out: AnyRef, first: AnyRef): Unit =
    if (out != null) {
      if (first == null) {
        val mr = out match { case r: MatchedRoute => r; case _ => m.tap.last }
        checks.record(s"${w.primary} traj ${t.id}", OutputChecks.route(net, t, mr) ++ (out match {
          case rec: Recovered => OutputChecks.recovered(net, t, rec)
          case _              => Nil
        }))
      } else {
        val same = (out, first) match {
          case (a: MatchedRoute, b: MatchedRoute) => OutputChecks.sameRoute(a, b)
          case (a: Recovered, b: Recovered)       => OutputChecks.sameRecovered(a, b)
          case _                                  => false
        }
        checks.require(s"${w.primary} traj ${t.id} repeat", same, "output differs between calls")
      }
    }

  /** `jvmStartMs`: the JVM's start time (epoch ms). */
  def untraced(jvmStartMs: Long): Map[String, Any] = {
    val beforeSetupS = (System.currentTimeMillis() - jvmStartMs) / 1000.0
    speed.warm()
    speed.kernelMs()
    val (timed, timedGenS) = time(corpus(seed, NTimed))
    speed.kernelMs()
    // The timed corpus is the run's input and is made once. Set up three
    // times; only the latest Setup is kept alive, so the heap after set-up
    // holds one copy of each per-run structure.
    var s: Setup = null
    val reps = (1 to 3).map { _ =>
      s = null
      val (r, wallS) = time(setup())
      s = r
      Rep(wallS, r.seconds, Seq(r.mmaLosses, r.trmmaLosses, checksum(r.mma.params), checksum(r.trmma.params)))
    }
    reps.foreach(r => checks.require("set-up is deterministic", r.models == reps.last.models,
      "repeated set-up gave other models"))
    val m = new Methods(s)
    val (quality, warmS) = time(warmUp(s, m))
    val setupKernels = speed.points.map(_._2).toSeq :+ speed.kernelMs()
    val (heap, heapS) = time(heapMb())
    // Wall time from JVM start to the first timed call (JVM, Spark session,
    // city, set-up, warm-up), counting one set-up repetition (the median) and
    // not the heap measurement; scaled by the median kernel time during it.
    val repWalls = reps.map(_.wallS)
    val setupRawS = (System.currentTimeMillis() - jvmStartMs) / 1000.0 - heapS - repWalls.sum + median(repWalls)
    val setupS = setupRawS * speed.scale(median(setupKernels))
    val latSet = timed.take(NLatency)
    val sparkSet = timed.take(NSpark)
    val fmmSet = timed.take(w.nFmm)

    // Measurement rounds: each round makes one direct call per latency
    // trajectory, measuring the host-speed kernel between every LatencyChunk
    // calls, then one probed Spark pass of the primary method and one of FMM.
    // Every time is scaled to the reference host speed by the kernel times
    // measured on the same thread around it or during it (see HostSpeed). A
    // trajectory's latency is the median of its scaled calls, a throughput the
    // median of the scaled passes. Rounds continue past MinRounds while the
    // next one still fits in `--seconds`.
    val calls = Array.fill(latSet.length)(mutable.ArrayBuffer.empty[Double])
    val rawCalls = Array.fill(latSet.length)(mutable.ArrayBuffer.empty[Double])
    val firstOut = new Array[AnyRef](latSet.length)
    val planCalls = new Array[Long](latSet.length)
    val primaryPasses, fmmPasses, rawPrimary, rawFmm = mutable.ArrayBuffer.empty[Double]
    var primaryFirst: Option[DataFrame] = None
    val m0 = System.nanoTime()
    var round = 0
    var lastRoundS = 0.0
    while (round < MinRounds || (System.nanoTime() - m0) / 1e9 + lastRoundS <= budgetS) {
      val r0 = System.nanoTime()
      var kBefore = speed.kernelMs()
      latSet.indices.grouped(LatencyChunk).foreach { chunk =>
        val ms = chunk.map { i =>
          val (out, dt) = time(directCall(m, latSet(i)))
          checkDirect(m, latSet(i), out, firstOut(i))
          if (firstOut(i) == null && out != null) {
            firstOut(i) = out
            val mr = out match { case r: MatchedRoute => r; case _ => m.tap.last }
            planCalls(i) = mr.perPoint.indices.drop(1).count(k => mr.perPoint(k) != mr.perPoint(k - 1)).toLong
          }
          dt * 1000
        }
        val kAfter = speed.kernelMs()
        val f = speed.scale((kBefore + kAfter) / 2)
        chunk.indices.foreach { j => calls(chunk(j)) += ms(j) * f; rawCalls(chunk(j)) += ms(j) }
        kBefore = kAfter
      }
      timeProbed(m.sparkPass(w.primary, sparkSet, probed = true)) match {
        case (Some((df, agg)), raw, scaled) =>
          primaryPasses += scaled; rawPrimary += raw
          if (primaryFirst.isEmpty) { primaryFirst = Some(df); checkRows(df, agg, sparkSet, w.primary, oracle = true) }
        case _ =>
      }
      timeProbed(m.sparkPass("fmm", fmmSet, probed = true)) match {
        case (Some((df, agg)), raw, scaled) =>
          if (fmmPasses.isEmpty) checkRows(df, agg, fmmSet, "fmm")
          fmmPasses += scaled; rawFmm += raw
        case _ =>
      }
      lastRoundS = (System.nanoTime() - r0) / 1e9
      round += 1
    }
    val measureS = (System.nanoTime() - m0) / 1e9
    val lat = calls.toSeq.filter(_.nonEmpty).map(c => median(c.toSeq))

    // The Spark rows must equal the metrics of the direct calls' outputs.
    primaryFirst.foreach { df =>
      val byId = rowsById(df)
      val cache = new ShortestPath.DistCache(net)
      sparkSet.indices.foreach { i =>
        val t = timed(i)
        val same = (firstOut(i), byId.get(t.id)) match {
          case (mr: MatchedRoute, Some(r)) =>
            val d = Metrics.mapMatch(t, mr.route)
            d.f1 == r.getAs[Double]("f1") && d.precision == r.getAs[Double]("precision") &&
              d.recall == r.getAs[Double]("recall") && d.jaccard == r.getAs[Double]("jaccard")
          case (rec: Recovered, Some(r)) =>
            val d = Metrics.recovery(net, t, rec.points, cache)
            d.accuracy == r.getAs[Double]("accuracy") && d.f1 == r.getAs[Double]("f1") &&
              math.abs(d.mae - r.getAs[Double]("mae")) <= 1e-9 * math.max(1.0, d.mae)
          case _ => false
        }
        checks.require(s"spark row vs direct call, traj ${t.id}", same, "Spark and direct outputs disagree")
      }
    }

    def q(method: String, k: String) = quality.get(method).map(_(k)).getOrElse(Double.NaN)
    def perS(n: Int, passes: Seq[Double]) = if (passes.isEmpty) Double.NaN else n / median(passes)
    val metrics = mutable.LinkedHashMap[String, Double](
      "setup_s" -> setupS,
      "traj_per_s" -> perS(sparkSet.length, primaryPasses.toSeq),
      "latency_ms_p50" -> (if (lat.isEmpty) Double.NaN else quantile(lat, 0.50)),
      "latency_ms_p95" -> (if (lat.isEmpty) Double.NaN else quantile(lat, 0.95)),
      "fmm_traj_per_s" -> perS(fmmSet.length, fmmPasses.toSeq),
      "route_f1" -> q("mma", "f1"),
      "accuracy" -> q("trmma", "accuracy"),
      "mae_m" -> q("trmma", "mae"),
      "mma_final_loss" -> s.mmaLosses.last,
      "trmma_final_loss" -> s.trmmaLosses.last,
      "heap_mb" -> heap,
    )
    val fp = fingerprint(timed)
    fp("plan_calls") = planCalls.sum
    Map(
      "metrics" -> metrics,
      "fingerprint" -> fp,
      "quality" -> quality,
      "samples" -> Map("latency_calls" -> calls.map(_.length).sum, "latency_trajs" -> lat.length,
        "rounds" -> round, "spark_trajs" -> sparkSet.length, "fmm_trajs" -> fmmSet.length,
        "spark_passes" -> primaryPasses.length,
        "fmm_passes" -> fmmPasses.length, "setup_reps" -> reps.length, "validation_trajs" -> valid(s).length),
      "phases_s" -> Map("before_setup" -> beforeSetupS, "timed_corpus" -> timedGenS, "setup_rep_walls" -> repWalls,
        "warm_up" -> warmS, "heap_measurement" -> heapS, "setup_reps" -> reps.map(_.seconds),
        "measurement" -> measureS, "after_measurement" -> ((System.nanoTime() - m0) / 1e9 - measureS)),
      // Unscaled times next to the scaled ones, and every kernel measurement.
      "host_speed" -> Map("reference_kernel_ms" -> HostSpeed.ReferenceMs, "setup_raw_s" -> setupRawS,
        "setup_kernel_ms" -> setupKernels, "primary_passes_s" -> primaryPasses, "primary_passes_raw_s" -> rawPrimary,
        "fmm_passes_s" -> fmmPasses, "fmm_passes_raw_s" -> rawFmm,
        "latency_calls_ms" -> calls.map(_.toSeq).toSeq, "latency_calls_raw_ms" -> rawCalls.map(_.toSeq).toSeq,
        "kernel_points_ms" -> speed.points.map(p => Seq(p._1, p._2))),
      "losses" -> Map("mma" -> s.mmaLosses, "trmma" -> s.trmmaLosses),
    )
  }

  // ---- traced: per-layer metrics ----

  def traced(tracePath: String): Map[String, Any] = {
    val (timed, timedGenS) = time(corpus(seed, NTimed))
    val s = setup()
    val tTrain = new Tracer("training")
    val mmaT = MmaModel.init(net, MmaConfig(), s.n2v)
    val mmaLossesT = TracedTraining.mma(tTrain, mmaT, train(s), MmaEpochs)
    val trmmaT = TrmmaModel.init(net, TrmmaConfig(), s.n2v)
    val trmmaLossesT = TracedTraining.trmma(tTrain, trmmaT, train(s).take(NTrmmaTrain), TrmmaEpochs)
    checks.require("traced MMA training equals MmaModel.train",
      mmaLossesT == s.mmaLosses && checksum(mmaT.params) == checksum(s.mma.params),
      s"losses $mmaLossesT vs ${s.mmaLosses}")
    checks.require("traced TRMMA training equals TrmmaModel.train",
      trmmaLossesT == s.trmmaLosses && checksum(trmmaT.params) == checksum(s.trmma.params),
      s"losses $trmmaLossesT vs ${s.trmmaLosses}")

    val m = new Methods(s)
    warmUp(s, m)
    val sub = timed.take(NTraced)
    val sparkSet = timed.take(NSpark)

    // Primary method: an untraced pass, then the traced composition over the
    // same trajectories; outputs must be equal.
    val tPrimary = new Tracer("primary")
    val tTrmma = if (w.primary == "trmma") tPrimary else new Tracer("secondary")
    var slots = 0L
    var windowSum = 0L
    var trmmaTrajs = 0

    def mmaPass(trajs: Seq[Traj], tm: TracedMma): (Double, Double, Seq[MatchedRoute]) = {
      val (plain, u) = time(trajs.map(m.mma.matchTraj))
      val (traced, t) = time(trajs.map(tm.matchTraj))
      trajs.indices.foreach { i =>
        checks.record(s"traced MMA traj ${trajs(i).id}",
          OutputChecks.route(net, trajs(i), traced(i)) ++
            (if (OutputChecks.sameRoute(plain(i), traced(i))) Nil else Seq("traced output differs")))
      }
      (u, t, traced)
    }

    def trmmaPass(trajs: Seq[Traj], tracer: Tracer): (Double, Double, Seq[Recovered], TracedMma) = {
      val tm = new TracedMma(m.mma, tracer)
      val tap = new RouteTap(tm)
      val trmmaTraced = new Trmma(s.trmma, tap, eps)
      val (plain, u) = time(trajs.map(m.trmma.recover))
      var tSum = 0L
      val traced = trajs.indices.map { i =>
        val t = trajs(i)
        val t0 = System.nanoTime()
        val rec = tracer.span("core.trmma.recover", t.id)(trmmaTraced.recover(t))
        tSum += System.nanoTime() - t0
        val (n, win) = DecodeWindows(m.trmma, t, tap.last)
        slots += n; windowSum += win; trmmaTrajs += 1
        checks.record(s"traced TRMMA traj ${t.id}",
          OutputChecks.recovered(net, t, rec) ++ OutputChecks.route(net, t, tap.last) ++
            (if (OutputChecks.sameRecovered(plain(i), rec)) Nil else Seq("traced output differs")))
        rec
      }
      (u, tSum / 1e9, traced, tm)
    }

    // `tracedMma` is the traced matcher of the primary pass (on XA it runs
    // inside TRMMA); its counts give the geo layer's count metrics.
    val tMetrics = new Tracer("metrics")
    val (untracedS, tracedS, rootName, tracedMma) = if (w.primary == "mma") {
      val tm = new TracedMma(m.mma, tPrimary)
      val (u, t, routes) = mmaPass(sub, tm)
      sub.indices.foreach(i => tMetrics.span("eval.metrics", sub(i).id)(Metrics.mapMatch(sub(i), routes(i).route)))
      trmmaPass(timed.take(NTracedSecondary), tTrmma)
      (u, t, "core.mma.match", tm)
    } else {
      val (u, t, recs, tm) = trmmaPass(sub, tPrimary)
      val cache = new ShortestPath.DistCache(net)
      sub.indices.foreach(i => tMetrics.span("eval.metrics", sub(i).id)(Metrics.recovery(net, sub(i), recs(i).points, cache)))
      (u, t, "core.trmma.recover", tm)
    }

    val tFmm = new Tracer("fmm")
    sub.foreach { t =>
      val mr = checks.guard("traced FMM")(tFmm.span("mm.fmm.match", t.id)(m.fmm.matchTraj(t)))
      mr.foreach(r => checks.record(s"traced FMM traj ${t.id}", OutputChecks.route(net, t, r)))
    }

    // Spark path of the primary method with a task listener.
    val listener = new TaskTimes
    spark.sparkContext.addSparkListener(listener)
    val (dfOpt, sparkWallS) = time(checks.guard("spark listener pass") {
      if (w.primary == "mma") SparkInfer.mapMatch(spark, net, m.mma, sparkSet)._1
      else SparkInfer.recovery(spark, net, m.trmma, sparkSet)._1
    })
    val tasks = listener.taskSeconds()
    spark.sparkContext.removeSparkListener(listener)
    val (aggOpt, aggregateS) = time(dfOpt.map(Metrics.aggregate))
    dfOpt.zip(aggOpt).foreach { case (df, agg) => checkRows(df, agg, sparkSet, w.primary) }

    val mmaCounts = tracedMma.counts
    val rootTotal = tPrimary.totalS(rootName)
    val stepsMs = tTrain.durationsMs("nn.train.step")
    val perLayer = mutable.LinkedHashMap[String, Double](
      "geo.rtree.nearest_s" -> tPrimary.totalS("geo.rtree.nearest"),
      "geo.rtree.hit_rate" -> mmaCounts.truthInTopK.toDouble / mmaCounts.points,
      "geo.sp.exit_nodes_per_traj" -> mmaCounts.exitNodes.toDouble / sub.length,
      "geo.planner.stitch_s" -> tPrimary.totalS("geo.planner.stitch"),
      "geo.planner.plan_calls" -> mmaCounts.planCalls.toDouble,
      "geo.planner.jump_frac" -> mmaCounts.routeJumps.toDouble / math.max(1L, mmaCounts.routePairs),
      "core.mma.prepare_s" -> tPrimary.totalS("core.mma.prepare"),
      "core.mma.forward_s" -> tPrimary.totalS("core.mma.forward"),
      "core.trmma.self_s" -> tTrmma.selfS("core.trmma.recover"),
      "core.trmma.slots_per_traj" -> slots.toDouble / math.max(1, trmmaTrajs),
      "core.trmma.window_mean" -> windowSum.toDouble / math.max(1L, slots),
      "mm.fmm.match_s" -> tFmm.totalS("mm.fmm.match"),
      "nn.train.prepare_s" -> tTrain.totalS("nn.train.prepare"),
      "nn.train.step_s" -> tTrain.totalS("nn.train.step"),
      "nn.train.step_ms_p50" -> median(stepsMs),
      "nn.train.steps" -> stepsMs.length.toDouble,
      "nn.train.mma_samples_per_s" -> NTrain * MmaEpochs / s.seconds("mma_train"),
      "nn.train.trmma_samples_per_s" -> NTrmmaTrain * TrmmaEpochs / s.seconds("trmma_train"),
      "nn.node2vec_s" -> s.seconds("node2vec"),
      "eval.sparkinfer.wall_s" -> sparkWallS,
      "eval.sparkinfer.task_s" -> tasks.sum,
      "eval.sparkinfer.task_skew" -> (if (tasks.isEmpty) Double.NaN else tasks.max / (tasks.sum / tasks.length)),
      "eval.sparkinfer.overhead_s" -> (sparkWallS - tasks.sum / Main.SparkThreads),
      "eval.metrics_s" -> tMetrics.totalS("eval.metrics"),
      "eval.aggregate_s" -> aggregateS,
      "traj.gen_s" -> (s.seconds("gen") + timedGenS),
      "traj.sparse_per_traj" -> timed.map(_.sparse.length).sum.toDouble / timed.length,
      "traj.dense_per_traj" -> timed.map(_.dense.length).sum.toDouble / timed.length,
      "trace.overhead_frac" -> (tracedS - untracedS) / untracedS,
      "trace.remainder_frac" -> tPrimary.selfS("core.mma.match") / rootTotal,
      "trace.traced_trajs" -> sub.length.toDouble,
    )

    // Which layer each workload stresses, from the traced self times.
    val mmaTotal = tPrimary.totalS("core.mma.match")
    val selfByLayer = Seq("core.trmma.recover", "core.mma.match", "geo.rtree.nearest", "core.mma.prepare",
      "core.mma.forward", "geo.planner.stitch").map(n => n -> tPrimary.selfS(n)).toMap
    val stress = if (w.primary == "mma") Map(
      "graph_search_share_of_mma" -> (perLayer("core.mma.prepare_s") + perLayer("geo.planner.stitch_s")) / mmaTotal,
      "forward_share_of_mma" -> perLayer("core.mma.forward_s") / mmaTotal,
      "graph_search_is_majority" -> ((perLayer("core.mma.prepare_s") + perLayer("geo.planner.stitch_s")) / mmaTotal > 0.5),
      "forward_is_minority" -> (perLayer("core.mma.forward_s") / mmaTotal < 0.5),
    ) else Map(
      "self_s_by_span" -> selfByLayer,
      "trmma_self_is_largest" -> (selfByLayer.maxBy(_._2)._1 == "core.trmma.recover"),
    )

    val trace = Map("workload" -> w.name, "seed" -> seed,
      "passes" -> Seq(tTrain, tPrimary, tTrmma, tMetrics, tFmm).distinct.map(t => t.pass -> t.spans).toMap)
    Files.createDirectories(Paths.get(tracePath).toAbsolutePath.getParent)
    Files.write(Paths.get(tracePath), Json.write(trace).getBytes(StandardCharsets.UTF_8))

    val fp = fingerprint(timed)
    Map(
      "metrics" -> perLayer,
      "fingerprint" -> fp,
      "stress" -> stress,
      "untraced_vs_traced_s" -> Map("untraced" -> untracedS, "traced" -> tracedS, "root" -> rootName),
      "samples" -> Map("traced_trajs" -> sub.length, "traced_secondary_trajs" ->
        (if (w.primary == "mma") NTracedSecondary else 0), "spark_tasks" -> tasks.length),
      "trace_file" -> tracePath,
    )
  }
}

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
  * plus `--trace-out <file>` and machine-record fields from the launcher.
  * Prints one line `PERFBENCH_RECORD <json>` with the metrics, the input
  * fingerprint, the machine record and the check counts.
  */
object Main {

  /** Task threads of the benchmark's Spark session. */
  val SparkThreads = 1

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workload.all.find(_.name == opts.getOrElse("workload", ""))
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${opts.get("workload")}"))
    val seed = opts("seed").toLong
    require(seed >= 0, "--seed must be non-negative")
    val seconds = opts("seconds").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"
    val cores = Runtime.getRuntime.availableProcessors()

    // Spark runs its tasks on one thread, one task per core's worth of
    // partitions: on a shared host, timings of several threads at once
    // varied too much from run to run to be scaled by the one-thread kernel.
    val spark = SparkSession.builder
      .master(s"local[$SparkThreads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.default.parallelism", cores.toString)
      .getOrCreate()
    val speed = new HostSpeed
    try {
      val run = new Run(spark, w, seed, seconds, speed)
      val body = if (trace) run.traced(opts("trace-out")) else run.untraced(ManagementFactory.getRuntimeMXBean.getStartTime)
      val rt = Runtime.getRuntime
      val machine = Map(
        "nproc" -> cores,
        "spark_threads" -> SparkThreads,
        "spark_partitions" -> spark.sparkContext.defaultParallelism,
        "trainer_threads" -> math.max(2, cores - 1),
        "max_heap_mb" -> rt.maxMemory() / (1024 * 1024),
        "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "spark" -> spark.version,
        "commit" -> opts.getOrElse("commit", "unknown"),
        "source_digest" -> opts.getOrElse("source-digest", "unknown"),
      )
      val record = body ++ Map(
        "workload" -> w.name, "seed" -> seed, "trace" -> trace, "seconds" -> seconds,
        "machine" -> machine,
        "checks" -> Map("attempted" -> run.checks.attempted, "failed" -> run.checks.failed,
          "failures" -> run.checks.failures),
      )
      println("PERFBENCH_RECORD " + Json.write(record))
    } finally spark.stop()
  }
}
