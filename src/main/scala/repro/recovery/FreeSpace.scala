package repro.recovery

import repro.geo.{Geo, RoadNetwork, XY}
import repro.nn._
import repro.traj.{MatchedPoint, Recovered, Traj}
import scala.collection.mutable
import scala.util.Random

/** Shared machinery of the free-space recovery baselines (DHTR [20] and
  * TERI [21], adapted to road networks per the paper's setup): the model
  * predicts missing COORDINATES in free space; each prediction is then
  * snapped onto the nearest road segment. Free-space prediction ignores
  * road constraints, which is exactly the weakness the paper's road-network
  * metrics expose.
  */
abstract class FreeSpaceModel(
    val net: RoadNetwork,
    val epsilon: Double,
) extends Module {

  /** Slot times of the dense timeline, from observable timestamps. */
  def slotTimes(t: Traj): Array[Double] = {
    val times = mutable.ArrayBuffer.empty[Double]
    var i = 0
    while (i < t.sparse.length) {
      times += t.sparse(i).t
      if (i + 1 < t.sparse.length) {
        val gaps = Recoverer.gapCount(t.sparse(i).t, t.sparse(i + 1).t, epsilon)
        (1 to gaps).foreach(g => times += t.sparse(i).t + g * epsilon)
      }
      i += 1
    }
    times.toArray
  }

  /** Predict normalised (x, y) for every slot. */
  def predictXY(t: Traj, times: Array[Double])(implicit tp: Tape): Tensor

  /** Kalman-style calibration (DHTR): blend the network prediction with the
    * free-space linear interpolation (its "measurement").
    */
  protected def blend: Double = 0.5

  def recover(t: Traj): Recovered = {
    implicit val tp: Tape = NoTape
    val times = slotTimes(t)
    val xy = predictXY(t, times)
    val observedAt = mutable.HashMap.empty[Long, Int]
    t.sparse.indices.foreach(i => observedAt(math.round(t.sparse(i).t * 1000)) = i)
    val out = Array.tabulate(times.length) { j =>
      val key = math.round(times(j) * 1000)
      val p = observedAt.get(key) match {
        case Some(i) => XY(t.sparse(i).x, t.sparse(i).y) // observed: snap the GPS point
        case None =>
          val raw = XY(net.bbox.denormX(xy(j, 0)), net.bbox.denormY(xy(j, 1)))
          val lin = interp(t, times(j))
          XY(raw.x * blend + lin.x * (1 - blend), raw.y * blend + lin.y * (1 - blend))
      }
      val seg = net.nearestSegments(p, 1).head
      val s = net.segments(seg)
      MatchedPoint(seg, Geo.projectRatio(p, s.a, s.b), times(j))
    }
    Recovered(t.id, out)
  }

  protected def interp(t: Traj, tt: Double): XY = {
    var i = 0
    while (i + 1 < t.sparse.length && t.sparse(i + 1).t < tt) i += 1
    val a = t.sparse(i); val b = t.sparse(math.min(i + 1, t.sparse.length - 1))
    val f = if (b.t - a.t < 1e-9) 0.0 else (tt - a.t) / (b.t - a.t)
    XY(a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f)
  }

  /** MSE training against the true dense coordinates. */
  def loss(t: Traj)(implicit tp: Tape): Tensor = {
    val times = slotTimes(t)
    val xy = predictXY(t, times)
    val target = new Array[Double](2 * t.dense.length)
    t.dense.indices.foreach { j =>
      val p = net.pointAt(t.dense(j).seg, t.dense(j).r)
      target(2 * j) = net.bbox.normX(p.x); target(2 * j + 1) = net.bbox.normY(p.y)
    }
    Ops.scale(Ops.mseSum(xy, target), 1.0 / t.dense.length)
  }
}

object FreeSpaceModel {
  def train(model: FreeSpaceModel, trajs: IndexedSeq[Traj], epochs: Int = 10,
            batchSize: Int = 16, lr: Double = 2e-3, seed: Long = 37L,
            log: String => Unit = _ => ()): Seq[Double] = {
    val opt = new Adam(model.params, lr = lr)
    val rnd = new Random(seed)
    (1 to epochs).map { ep =>
      val shuffled = rnd.shuffle(trajs)
      val losses = shuffled.grouped(batchSize).map { b =>
        Trainer.step[Traj](b.toIndexedSeq, model.params, opt, (t, tp) => model.loss(t)(tp))
      }.toSeq
      val mean = losses.sum / losses.size
      log(f"freespace epoch $ep loss $mean%.5f")
      mean
    }
  }
}

/** DHTR [20]: BiGRU (stand-in for BiLSTM) over the observed points; each
  * missing slot queries the encoder states through attention keyed on the
  * slot time; the prediction is calibrated against linear interpolation
  * (the Kalman-filter component).
  */
final class DhtrModel(
    net: RoadNetwork,
    epsilon: Double,
    val encFc: Linear,
    val encoder: BiGru,
    val queryFc: Linear,
    val head: Mlp,
) extends FreeSpaceModel(net, epsilon) {

  def params: Seq[Tensor] = encFc.params ++ encoder.params ++ queryFc.params ++ head.params

  def predictXY(t: Traj, times: Array[Double])(implicit tp: Tape): Tensor = {
    val tMax = math.max(1e-9, t.sparse.last.t - t.sparse.head.t)
    val feats = t.sparse.map(p =>
      Array(net.bbox.normX(p.x), net.bbox.normY(p.y), (p.t - t.sparse.head.t) / tMax))
    val enc = encoder(encFc(Tensor.fromRows(feats.toIndexedSeq)))
    val rows = times.map { tt =>
      val lin = interp(t, tt)
      val q = queryFc(new Tensor(1, 3,
        Array(net.bbox.normX(lin.x), net.bbox.normY(lin.y), (tt - t.sparse.head.t) / tMax)))
      val scores = Ops.matmul(q, Ops.transpose(enc))
      val ctx = Ops.matmul(Ops.softmaxRows(scores), enc)
      Ops.sigmoid(head(Ops.concatCols(q, ctx)))
    }
    Ops.concatRows(rows.toIndexedSeq)
  }
}

object DhtrModel {
  def init(net: RoadNetwork, epsilon: Double, dh: Int = 32, seed: Long = 41L): DhtrModel = {
    val rnd = new Random(seed)
    new DhtrModel(net, epsilon,
      Linear(3, dh, rnd), BiGru(dh, dh, rnd), Linear(3, dh, rnd),
      Mlp(2 * dh, dh, 2, rnd))
  }
}

/** TERI [21]: transformer encoder over observed points (irregular intervals
  * encoded as explicit time features), coordinate infill by cross attention
  * from a learned time-query, no calibration stage.
  */
final class TeriModel(
    net: RoadNetwork,
    epsilon: Double,
    val encFc: Linear,
    val encoder: TransformerEncoder,
    val queryFc: Linear,
    val cross: MultiHeadAttention,
    val head: Mlp,
) extends FreeSpaceModel(net, epsilon) {

  override protected def blend: Double = 1.0 // no Kalman calibration in TERI

  def params: Seq[Tensor] =
    encFc.params ++ encoder.params ++ queryFc.params ++ cross.params ++ head.params

  def predictXY(t: Traj, times: Array[Double])(implicit tp: Tape): Tensor = {
    val tMax = math.max(1e-9, t.sparse.last.t - t.sparse.head.t)
    val feats = t.sparse.map(p =>
      Array(net.bbox.normX(p.x), net.bbox.normY(p.y), (p.t - t.sparse.head.t) / tMax))
    val enc = encoder(encFc(Tensor.fromRows(feats.toIndexedSeq)))
    val queries = times.map { tt =>
      val lin = interp(t, tt)
      Array(net.bbox.normX(lin.x), net.bbox.normY(lin.y), (tt - t.sparse.head.t) / tMax)
    }
    val q = queryFc(Tensor.fromRows(queries.toIndexedSeq))
    val ctx = cross(q, enc)
    Ops.sigmoid(head(Ops.concatCols(q, ctx)))
  }
}

object TeriModel {
  def init(net: RoadNetwork, epsilon: Double, dh: Int = 32, seed: Long = 43L): TeriModel = {
    val rnd = new Random(seed)
    new TeriModel(net, epsilon,
      Linear(3, dh, rnd), TransformerEncoder(dh, 2, 128, 2, rnd), Linear(3, dh, rnd),
      MultiHeadAttention(dh, 2, rnd), Mlp(2 * dh, dh, 2, rnd))
  }
}

/** Recoverer wrapper for the free-space models. */
final class FreeSpaceRec(val model: FreeSpaceModel, override val name: String) extends Recoverer {
  def recover(t: Traj): Recovered = model.recover(t)
}
