package repro.mm

import repro.geo.{RoadNetwork, RoutePlanner, XY}
import repro.traj.{MatchedRoute, Traj}

/** FMM-style HMM map matching (paper ref [28], after Newson & Krumm).
  *
  * States per GPS point are its top-`k` nearest candidate segments.
  * Emission: Gaussian in the perpendicular distance (sigma = GPS noise).
  * Transition: exponential in the absolute difference between the road-
  * network distance of the projected points and their straight-line
  * distance (the Newson-Krumm "route plausibility" term). Decoded with
  * [[Viterbi]]; the resulting per-point segments are stitched by the shared
  * planner.
  *
  * Also reused to label `TRMMA-HMM` in the Table IV ablation.
  */
final class HmmMatcher(
    net: RoadNetwork,
    planner: RoutePlanner,
    k: Int = 8,
    sigmaM: Double = 5.0,
    betaM: Double = 120.0,
) extends MapMatcher {
  val name = "FMM"

  def matchPoints(t: Traj): Array[Int] = {
    val pts = t.sparse.map(p => XY(p.x, p.y))
    val cands = pts.map(p => net.nearestSegments(p, k))
    val emit = Array.tabulate(pts.length) { i =>
      cands(i).map { sid =>
        val d = net.rtree.distTo(pts(i), sid)
        -d * d / (2 * sigmaM * sigmaM)
      }
    }
    Viterbi.decode(net, pts, cands, emit, betaM)
  }

  def matchTraj(t: Traj): MatchedRoute = {
    val per = matchPoints(t)
    MatchedRoute(t.id, per, planner.stitch(per.toIndexedSeq).toArray)
  }
}
