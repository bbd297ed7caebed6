package repro.geo

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ShortestPathSpec extends AnyFunSuite {

  private val net = RoadNetwork.generate(
    RoadNetwork.CityConfig("test", LatLng(41.15, -8.6), gridW = 7, gridH = 6, spacingM = 150, seed = 3))

  private def floydWarshall(n: RoadNetwork): Array[Array[Double]] = {
    val m = n.numNodes
    val d = Array.fill(m, m)(Double.PositiveInfinity)
    (0 until m).foreach(i => d(i)(i) = 0.0)
    n.segments.foreach(s => d(s.from)(s.to) = math.min(d(s.from)(s.to), s.lengthM))
    for (k <- 0 until m; i <- 0 until m; j <- 0 until m)
      if (d(i)(k) + d(k)(j) < d(i)(j)) d(i)(j) = d(i)(k) + d(k)(j)
    d
  }

  private lazy val fw = floydWarshall(net)

  test("network is strongly connected (generator invariant)") {
    val d = ShortestPath.dijkstra(net, 0)
    assert(d.forall(_.isFinite))
  }

  test("dijkstra matches Floyd-Warshall from several sources") {
    Seq(0, 5, net.numNodes / 2, net.numNodes - 1).foreach { src =>
      val d = ShortestPath.dijkstra(net, src)
      (0 until net.numNodes).foreach { v =>
        assert(math.abs(d(v) - fw(src)(v)) < 1e-6, s"src=$src v=$v")
      }
    }
  }

  test("aStar matches Floyd-Warshall on random pairs") {
    val rnd = new Random(11)
    (1 to 60).foreach { _ =>
      val a = rnd.nextInt(net.numNodes); val b = rnd.nextInt(net.numNodes)
      assert(math.abs(ShortestPath.aStar(net, a, b) - fw(a)(b)) < 1e-6, s"$a->$b")
    }
  }

  test("aStar to self is 0") {
    assert(ShortestPath.aStar(net, 4, 4) == 0.0)
  }

  test("DistCache matchedDist same segment") {
    val cache = new ShortestPath.DistCache(net)
    val s = net.segments(0)
    val d = cache.matchedDist(0, 0.2, 0, 0.7)
    assert(math.abs(d - 0.5 * s.lengthM) < 1e-9)
  }

  test("DistCache matchedDist is symmetric and near-planar for nearby points") {
    val cache = new ShortestPath.DistCache(net)
    val rnd = new Random(5)
    (1 to 40).foreach { _ =>
      val sa = rnd.nextInt(net.numSegments); val sb = rnd.nextInt(net.numSegments)
      val ra = rnd.nextDouble(); val rb = rnd.nextDouble()
      val d1 = cache.matchedDist(sa, ra, sb, rb)
      val d2 = cache.matchedDist(sb, rb, sa, ra)
      assert(math.abs(d1 - d2) < 1e-6)
      // Network distance can never beat the straight line (modulo the lane
      // offset: path lengths are centreline, point geometry is lane-shifted).
      val planar = net.pointAt(sa, ra).dist(net.pointAt(sb, rb))
      assert(d1 >= planar - 2 * RoadNetwork.LaneOffsetM - 1e-6)
    }
  }

  test("nodePathSegments is a contiguous chain of Floyd-Warshall length") {
    val rnd = new Random(23)
    (1 to 60).foreach { _ =>
      val a = rnd.nextInt(net.numNodes); val b = rnd.nextInt(net.numNodes)
      val path = ShortestPath.nodePathSegments(net, a, b)
      assert(path.isDefined, s"$a->$b")
      var at = a
      path.get.foreach { sid =>
        assert(net.segments(sid).from == at, s"$a->$b: segment $sid does not leave node $at")
        at = net.segments(sid).to
      }
      assert(at == b)
      assert(math.abs(path.get.map(net.segments(_).lengthM).sum - fw(a)(b)) < 1e-6, s"$a->$b")
    }
  }

  test("nodePathSegments from a node to itself is empty") {
    assert(ShortestPath.nodePathSegments(net, 4, 4).contains(Nil))
  }

  // Segment-graph distances by Bellman-Ford: cost of a step is the length of
  // the segment stepped onto, the cost `shortestPathOnly` plans with.
  private def bellmanFord(src: Int): Array[Double] = {
    val d = Array.fill(net.numSegments)(Double.PositiveInfinity)
    d(src) = 0.0
    (1 until net.numSegments).foreach { _ =>
      (0 until net.numSegments).foreach { u =>
        if (d(u).isFinite) net.nextSegments(u).foreach { v =>
          d(v) = math.min(d(v), d(u) + net.segments(v).lengthM)
        }
      }
    }
    d
  }

  private lazy val shortest = RoutePlanner.shortestPathOnly(net)

  test("shortestPathOnly plan costs what Bellman-Ford finds on the segment graph") {
    val rnd = new Random(29)
    (1 to 12).foreach { _ =>
      val a = rnd.nextInt(net.numSegments)
      val bf = bellmanFord(a)
      (1 to 5).foreach { _ =>
        val b = rnd.nextInt(net.numSegments)
        val cost = shortest.plan(a, b).map(net.segments(_).lengthM).sum
        assert(math.abs(cost - bf(b)) < 1e-6, s"$a->$b")
      }
    }
  }

  test("shortestPathOnly plan connects adjacent segments directly") {
    val next = net.nextSegments(0)
    assume(next.nonEmpty)
    assert(shortest.plan(0, next.head) == List(next.head))
  }

  test("shortestPathOnly plan from a segment to itself is empty") {
    assert(shortest.plan(3, 3) == Nil)
    assert(ShortestPath.segmentSearch(net, 3, 3, (_, _) => 1.0).contains(Nil))
  }

  test("shortestPathOnly plan forms a connected chain") {
    val rnd = new Random(13)
    (1 to 30).foreach { _ =>
      val a = rnd.nextInt(net.numSegments); val b = rnd.nextInt(net.numSegments)
      val full = a :: shortest.plan(a, b)
      full.sliding(2).foreach {
        case List(x, y) => assert(net.nextSegments(x).contains(y), s"$x !-> $y")
        case _          => ()
      }
      assert(full.last == b)
    }
  }

  test("the search heap pops equal keys in java.util.PriorityQueue order") {
    val rnd = new Random(31)
    val heap = new ShortestPath.MinHeap
    val ref = new java.util.PriorityQueue[(Double, Int)](11,
      (x: (Double, Int), y: (Double, Int)) => java.lang.Double.compare(x._1, y._1))
    var next = 0
    (1 to 2000).foreach { _ =>
      if (ref.isEmpty || rnd.nextDouble() < 0.6) {
        val key = rnd.nextInt(8).toDouble // few distinct keys: many ties
        heap.push(key, next); ref.add((key, next)); next += 1
      } else assert(heap.pop() == ref.poll()._2)
    }
    while (!ref.isEmpty) assert(heap.pop() == ref.poll()._2)
    assert(heap.isEmpty)
  }
}
