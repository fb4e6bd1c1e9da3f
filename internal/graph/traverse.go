package graph

import (
	"container/heap"
	"math/bits"
)

// Direction selects which adjacency a traversal follows.
type Direction int

const (
	// Forward follows edges from source to destination.
	Forward Direction = iota
	// Backward follows edges from destination to source.
	Backward
	// Undirected follows edges in both directions (weak connectivity).
	Undirected
)

func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	case Undirected:
		return "undirected"
	default:
		return "unknown"
	}
}

func (g *Graph) step(id NodeID, d Direction) []NodeID {
	switch d {
	case Forward:
		return g.out[id]
	case Backward:
		return g.in[id]
	default:
		return append(append([]NodeID(nil), g.out[id]...), g.in[id]...)
	}
}

// Reachable returns the set of nodes reachable from start in the given
// direction, excluding start itself. BFS order; the result set is keyed by
// node id.
func (g *Graph) Reachable(start NodeID, d Direction) map[NodeID]bool {
	if !g.HasNode(start) {
		return nil
	}
	seen := map[NodeID]bool{start: true}
	queue := []NodeID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.step(cur, d) {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	delete(seen, start)
	return seen
}

// ConnectedCount returns |Reachable(start, d)|: the number of nodes other
// than start that are connected to start in the given direction.
func (g *Graph) ConnectedCount(start NodeID, d Direction) int {
	return len(g.Reachable(start, d))
}

// ConnectedPairs returns |ancestors ∪ descendants| of id: the number of
// nodes connected to id by a directed path to or from it. This is the
// connectivity notion behind the Path Utility Measure's %P and the
// "connected pairs" density of §6.1.2. Both directions count, and only
// directed paths do: undirected (weak) connectivity would give every node
// of a connected n-node graph n-1, which rules out §6.1.2's 30–100 range
// on connected 200-node graphs, and one direction alone would score every
// source (or every sink) 0.
func (g *Graph) ConnectedPairs(id NodeID) int {
	if !g.HasNode(id) {
		return 0
	}
	union := g.Reachable(id, Forward)
	for n := range g.Reachable(id, Backward) {
		union[n] = true
	}
	delete(union, id)
	return len(union)
}

// ConnectedCounts returns ConnectedPairs(id) for every node of the graph,
// computed in one pass.
//
// In an acyclic graph a node's ancestors and descendants are disjoint, so
// the count is |anc| + |desc|. Over one topological order, each block of
// 64 consecutive positions is swept twice with one uint64 per node:
// forward along the order, collecting the block members among the node's
// ancestors (itself included), then backward, collecting those among its
// descendants (itself included). Popcounts add up the counts. A block's
// members sit at positions base..base+63, so nothing before base has a
// block ancestor and nothing after base+63 a block descendant: the
// forward sweep starts at base and the backward sweep at base+63. Cost:
// O((n/64)·(n+m)) word operations and O(n+m) memory.
//
// A cyclic graph has no topological order; it falls back to one
// ConnectedPairs per node.
func (g *Graph) ConnectedCounts() map[NodeID]int {
	counts := make(map[NodeID]int, len(g.nodes))
	d := g.dense()
	order := d.kahn()
	n := len(d.ids)
	if len(order) < n {
		for _, id := range d.ids {
			counts[id] = g.ConnectedPairs(id)
		}
		return counts
	}
	total := make([]int, n)
	word := make([]uint64, n)
	for base := 0; base < n; base += 64 {
		end := min(base+64, n)
		// Forward: word[v] collects the block members among v's ancestors.
		clear(word)
		for p := base; p < end; p++ {
			word[order[p]] = 1 << uint(p-base)
		}
		for _, v := range order[base:] {
			w := word[v]
			if w == 0 {
				continue
			}
			total[v] += bits.OnesCount64(w)
			for _, s := range d.successors(v) {
				word[s] |= w
			}
		}
		// Backward: word[v] collects those among v's descendants.
		clear(word)
		for p := end - 1; p >= 0; p-- {
			v := order[p]
			var w uint64
			if p >= base {
				w = 1 << uint(p-base)
			}
			for _, s := range d.successors(v) {
				w |= word[s]
			}
			word[v] = w
			total[v] += bits.OnesCount64(w)
		}
	}
	for v, id := range d.ids {
		// Each node counted itself once in each direction.
		counts[id] = total[v] - 2
	}
	return counts
}

// denseGraph numbers the nodes 0..n-1 and stores successors in
// compressed sparse rows: the successors of node v are
// succ[row[v]:row[v+1]].
type denseGraph struct {
	ids  []NodeID
	row  []int32
	succ []int32
}

func (g *Graph) dense() denseGraph {
	d := denseGraph{
		ids:  make([]NodeID, 0, len(g.nodes)),
		row:  make([]int32, 1, len(g.nodes)+1),
		succ: make([]int32, 0, len(g.edges)),
	}
	index := make(map[NodeID]int32, len(g.nodes))
	for id := range g.nodes {
		index[id] = int32(len(d.ids))
		d.ids = append(d.ids, id)
	}
	for _, id := range d.ids {
		for _, s := range g.out[id] {
			d.succ = append(d.succ, index[s])
		}
		d.row = append(d.row, int32(len(d.succ)))
	}
	return d
}

func (d denseGraph) successors(v int32) []int32 { return d.succ[d.row[v]:d.row[v+1]] }

// kahn returns the nodes in a topological order by Kahn's algorithm; the
// result is shorter than n exactly when the graph has a cycle. The
// frontier is a min-heap on node id, so the smallest ready node always
// comes next and the order is deterministic.
func (d denseGraph) kahn() []int32 {
	n := len(d.ids)
	indeg := make([]int32, n)
	for _, s := range d.succ {
		indeg[s]++
	}
	frontier := &readyHeap{ids: d.ids}
	for v := range n {
		if indeg[v] == 0 {
			frontier.v = append(frontier.v, int32(v))
		}
	}
	heap.Init(frontier)
	order := make([]int32, 0, n)
	for frontier.Len() > 0 {
		v := heap.Pop(frontier).(int32)
		order = append(order, v)
		for _, s := range d.successors(v) {
			if indeg[s]--; indeg[s] == 0 {
				heap.Push(frontier, s)
			}
		}
	}
	return order
}

// readyHeap is Kahn's frontier of dense node indices, a container/heap
// ordered by node id.
type readyHeap struct {
	ids []NodeID
	v   []int32
}

func (h *readyHeap) Len() int           { return len(h.v) }
func (h *readyHeap) Less(i, j int) bool { return h.ids[h.v[i]] < h.ids[h.v[j]] }
func (h *readyHeap) Swap(i, j int)      { h.v[i], h.v[j] = h.v[j], h.v[i] }
func (h *readyHeap) Push(x any)         { h.v = append(h.v, x.(int32)) }

func (h *readyHeap) Pop() any {
	x := h.v[len(h.v)-1]
	h.v = h.v[:len(h.v)-1]
	return x
}

// WeakComponents partitions the nodes into weakly connected components.
// Components are returned sorted by their smallest member, and members are
// sorted within each component.
func (g *Graph) WeakComponents() [][]NodeID {
	seen := make(map[NodeID]bool, len(g.nodes))
	var comps [][]NodeID
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		comp := []NodeID{start}
		seen[start] = true
		queue := []NodeID{start}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range g.step(cur, Undirected) {
				if !seen[next] {
					seen[next] = true
					comp = append(comp, next)
					queue = append(queue, next)
				}
			}
		}
		sortNodeIDs(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsWeaklyConnected reports whether the graph has at most one weak
// component (the property the synthetic evaluation graphs must have,
// §6.1.2: "no disconnected subgraphs").
func (g *Graph) IsWeaklyConnected() bool {
	return len(g.WeakComponents()) <= 1
}

// ShortestPath returns one shortest directed path from src to dst as a node
// sequence including both endpoints, or nil if dst is unreachable. Among
// equal-length paths the lexicographically first (by node id at each hop)
// is returned, keeping results deterministic.
func (g *Graph) ShortestPath(src, dst NodeID) []NodeID {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return nil
	}
	if src == dst {
		return []NodeID{src}
	}
	prev := map[NodeID]NodeID{src: src}
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.Successors(cur) { // sorted: deterministic tie-break
			if _, ok := prev[next]; ok {
				continue
			}
			prev[next] = cur
			if next == dst {
				return rebuildPath(prev, src, dst)
			}
			queue = append(queue, next)
		}
	}
	return nil
}

func rebuildPath(prev map[NodeID]NodeID, src, dst NodeID) []NodeID {
	var rev []NodeID
	for cur := dst; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Distances returns the BFS hop count from start to every reachable node in
// the given direction (start maps to 0).
func (g *Graph) Distances(start NodeID, d Direction) map[NodeID]int {
	if !g.HasNode(start) {
		return nil
	}
	dist := map[NodeID]int{start: 0}
	queue := []NodeID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.step(cur, d) {
			if _, ok := dist[next]; !ok {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return dist
}

// TopoSort returns the nodes in a topological order and true, or nil and
// false if the graph contains a directed cycle. Among the nodes ready at
// each step the smallest id comes first, so the order is deterministic;
// it costs O((n+m) log n).
func (g *Graph) TopoSort() ([]NodeID, bool) {
	d := g.dense()
	order := d.kahn()
	if len(order) < len(d.ids) {
		return nil, false
	}
	ids := make([]NodeID, len(order))
	for i, v := range order {
		ids[i] = d.ids[v]
	}
	return ids, true
}

// IsDAG reports whether the graph is acyclic (provenance graphs are DAGs,
// footnote 1 of the paper).
func (g *Graph) IsDAG() bool {
	_, ok := g.TopoSort()
	return ok
}

// HasPath reports whether a directed path (of length >= 0) exists from src
// to dst.
func (g *Graph) HasPath(src, dst NodeID) bool {
	if src == dst {
		return g.HasNode(src)
	}
	return g.Reachable(src, Forward)[dst]
}
