package repro.mm

import repro.geo.{Geo, RoadNetwork, ShortestPath, XY}

/** The Viterbi decoder shared by the HMM matchers (FMM and LHMM).
  *
  * States per GPS point are its candidate segments. Transition log-score is
  * the Newson-Krumm route-plausibility term `-|d_route - d_line| / betaM`,
  * where `d_route` is the directed network distance between the points'
  * projections onto the candidates and `d_line` the straight-line distance
  * between the points. Emissions are the caller's.
  */
object Viterbi {

  /** The most likely candidate segment of every point of `pts`, given
    * `cands(i)` and their log-emissions `emit(i)`.
    */
  def decode(net: RoadNetwork, pts: Array[XY], cands: Array[Array[Int]],
             emit: Array[Array[Double]], betaM: Double): Array[Int] = {
    val cache = new ShortestPath.DistCache(net)
    val score = Array.tabulate(pts.length)(i => new Array[Double](cands(i).length))
    val back = Array.tabulate(pts.length)(i => new Array[Int](cands(i).length))
    score(0) = emit(0).clone()
    var i = 1
    while (i < pts.length) {
      val gc = pts(i - 1).dist(pts(i))
      var j = 0
      while (j < cands(i).length) {
        val sj = cands(i)(j)
        val rj = Geo.projectRatio(pts(i), net.segments(sj).a, net.segments(sj).b)
        var best = Double.NegativeInfinity
        var bestK = 0
        var kk = 0
        while (kk < cands(i - 1).length) {
          val sk = cands(i - 1)(kk)
          val rk = Geo.projectRatio(pts(i - 1), net.segments(sk).a, net.segments(sk).b)
          val s = score(i - 1)(kk) - math.abs(cache.directedDist(sk, rk, sj, rj) - gc) / betaM
          if (s > best) { best = s; bestK = kk }
          kk += 1
        }
        score(i)(j) = best + emit(i)(j)
        back(i)(j) = bestK
        j += 1
      }
      i += 1
    }
    val out = new Array[Int](pts.length)
    var cur = score(pts.length - 1).indices.maxBy(score(pts.length - 1))
    i = pts.length - 1
    while (i >= 0) {
      out(i) = cands(i)(cur)
      if (i > 0) cur = back(i)(cur)
      i -= 1
    }
    out
  }
}
