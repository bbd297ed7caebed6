package repro.geo

import scala.collection.mutable

/** Shortest-path primitives over a [[RoadNetwork]], all served by one
  * best-first search (`search`) on one of two graphs:
  *   - the node graph (vertices are intersections, arcs are `outSegments`,
  *     an arc costs its length): bounded Dijkstra, point-to-point A* and the
  *     road-network distance between map-matched points used by the MAE/RMSE
  *     recovery metrics and the HMM transitions;
  *   - the segment graph (vertices are segments, arcs are `nextSegments`,
  *     an arc costs `max(1e-9, cost(cur, next))`): the route planner.
  */
object ShortestPath {

  private final val Inf = Double.PositiveInfinity

  /** Binary min-heap of (key, vertex) over primitive arrays. Its sift-up and
    * sift-down are those of `java.util.PriorityQueue`, so entries with equal
    * keys pop in exactly the order that queue would pop them.
    */
  private[geo] final class MinHeap {
    private var keys = new Array[Double](16)
    private var vals = new Array[Int](16)
    private var n = 0

    def isEmpty: Boolean = n == 0

    def push(key: Double, v: Int): Unit = {
      if (n == keys.length) {
        keys = java.util.Arrays.copyOf(keys, 2 * n)
        vals = java.util.Arrays.copyOf(vals, 2 * n)
      }
      var k = n
      n += 1
      var done = false
      while (k > 0 && !done) {
        val parent = (k - 1) >>> 1
        if (java.lang.Double.compare(key, keys(parent)) >= 0) done = true
        else { keys(k) = keys(parent); vals(k) = vals(parent); k = parent }
      }
      keys(k) = key; vals(k) = v
    }

    /** Removes the entry with the least key and returns its vertex. */
    def pop(): Int = {
      val top = vals(0)
      n -= 1
      val key = keys(n); val v = vals(n)
      var k = 0
      val half = n >>> 1
      var done = false
      while (k < half && !done) {
        var child = 2 * k + 1
        val right = child + 1
        if (right < n && java.lang.Double.compare(keys(child), keys(right)) > 0) child = right
        if (java.lang.Double.compare(key, keys(child)) <= 0) done = true
        else { keys(k) = keys(child); vals(k) = vals(child); k = child }
      }
      if (n > 0) { keys(k) = key; vals(k) = v }
      top
    }
  }

  /** Final state of a search: `dist(v)` is the best cost found to `v`
    * (+inf if never reached); `parent(v)` is the segment `v` was reached
    * by: the entering segment on the node graph, the previous segment on
    * the segment graph.
    */
  private final class Search(size: Int) {
    val dist: Array[Double] = Array.fill(size)(Inf)
    val parent: Array[Int] = Array.fill(size)(-1)
    var reachedGoal = false
  }

  /** The one best-first search. Vertices pop in order of `dist + h`; the
    * search stops when `goal` pops; otherwise a vertex is expanded once,
    * and only while its distance is `<= maxDist`. Relaxation is strict `<`
    * and may lower a closed vertex without reopening it. With `h` zero this
    * is Dijkstra; with an admissible `h` it is A*.
    */
  private def search(
      net: RoadNetwork,
      onSegments: Boolean,
      src: Int,
      goal: Int = -1,
      maxDist: Double = Inf,
      cost: (Int, Int) => Double = null,
      h: Int => Double = _ => 0.0,
  ): Search = {
    val size = if (onSegments) net.numSegments else net.numNodes
    val st = new Search(size)
    val dist = st.dist
    val closed = new Array[Boolean](size)
    val heap = new MinHeap
    dist(src) = 0.0
    heap.push(h(src), src)
    while (!heap.isEmpty && !st.reachedGoal) {
      val u = heap.pop()
      if (u == goal) st.reachedGoal = true
      else if (!closed(u) && dist(u) <= maxDist) {
        closed(u) = true
        val d = dist(u)
        val arcs = if (onSegments) net.nextSegments(u) else net.outSegments(u)
        var i = 0
        while (i < arcs.length) {
          val a = arcs(i)
          val v = if (onSegments) a else net.segments(a).to
          val nd = d + (if (onSegments) math.max(1e-9, cost(u, a)) else net.segments(a).lengthM)
          if (nd < dist(v)) {
            dist(v) = nd
            st.parent(v) = if (onSegments) u else a
            heap.push(nd + h(v), v)
          }
          i += 1
        }
      }
    }
    st
  }

  /** Node-level Dijkstra from `src`. Nodes are expanded while their
    * distance is `<= maxDist`; a node more than `maxDist` away keeps +inf
    * unless it is one segment beyond an expanded node.
    */
  def dijkstra(net: RoadNetwork, src: Int, maxDist: Double = Inf): Array[Double] =
    search(net, onSegments = false, src, maxDist = maxDist).dist

  /** Node-level A* from `src` towards `dst` with the planar straight-line
    * heuristic (admissible: every segment's length is its chord).
    */
  private def nodeAStar(net: RoadNetwork, src: Int, dst: Int): Search = {
    val goal = net.nodes(dst)
    search(net, onSegments = false, src, goal = dst, h = v => net.nodes(v).dist(goal))
  }

  /** A* shortest path length from node `src` to node `dst`. Returns +inf if
    * unreachable.
    */
  def aStar(net: RoadNetwork, src: Int, dst: Int): Double = nodeAStar(net, src, dst).dist(dst)

  /** Shortest node path from `src` to `dst` as the list of traversed
    * segment ids. None when unreachable.
    */
  def nodePathSegments(net: RoadNetwork, src: Int, dst: Int): Option[List[Int]] = {
    val st = nodeAStar(net, src, dst)
    if (!st.reachedGoal) return None
    var path = List.empty[Int]
    var cur = dst
    while (cur != src) {
      val sid = st.parent(cur)
      path = sid :: path
      cur = net.segments(sid).from
    }
    Some(path)
  }

  /** Least-cost route in the segment graph from segment `from` to segment
    * `to` with per-transition cost `cost(curSeg, nextSeg)`: the segments
    * AFTER `from` up to and including `to` (empty if `from == to`). None
    * when `to` is unreachable.
    */
  def segmentSearch(net: RoadNetwork, from: Int, to: Int, cost: (Int, Int) => Double): Option[List[Int]] = {
    val st = search(net, onSegments = true, from, goal = to, cost = cost)
    if (!st.reachedGoal) return None
    var path = List.empty[Int]
    var cur = to
    while (cur != from) { path = cur :: path; cur = st.parent(cur) }
    Some(path)
  }

  /** Memoising node-to-node distance helper for metric computation. One
    * instance per evaluation task; NOT thread-safe.
    */
  final class DistCache(net: RoadNetwork) {
    private val cache = mutable.HashMap.empty[Long, Double]
    def nodeDist(a: Int, b: Int): Double =
      cache.getOrElseUpdate((a.toLong << 32) | (b.toLong & 0xffffffffL), aStar(net, a, b))

    /** Directed travel distance from point (segA, rA) to point (segB, rB)
      * along the network — the HMM transition distance (a wrong-direction
      * candidate forces a costly loop, which is exactly the signal that
      * disambiguates direction).
      */
    def directedDist(segA: Int, rA: Double, segB: Int, rB: Double): Double = {
      val sa = net.segments(segA); val sb = net.segments(segB)
      if (segA == segB) {
        if (rB >= rA) return (rB - rA) * sa.lengthM
        return (1 - rA) * sa.lengthM + nodeDist(sa.to, sb.from) + rB * sb.lengthM
      }
      (1 - rA) * sa.lengthM + nodeDist(sa.to, sb.from) + rB * sb.lengthM
    }

    /** Road-network distance between map-matched points (segA, rA) and
      * (segB, rB): the shorter directed travel distance of A->B and B->A.
      * Falls back to the planar straight-line distance if neither direction
      * is reachable (disconnected components cannot occur with the generator
      * but defensive anyway).
      */
    def matchedDist(segA: Int, rA: Double, segB: Int, rB: Double): Double = {
      if (segA == segB) {
        return math.abs(rA - rB) * net.segments(segA).lengthM
      }
      val sa = net.segments(segA); val sb = net.segments(segB)
      val ab = (1 - rA) * sa.lengthM + nodeDist(sa.to, sb.from) + rB * sb.lengthM
      val ba = (1 - rB) * sb.lengthM + nodeDist(sb.to, sa.from) + rA * sa.lengthM
      val d = math.min(ab, ba)
      if (d.isInfinite) net.pointAt(segA, rA).dist(net.pointAt(segB, rB)) else d
    }
  }
}
