// Package graph provides the undirected-graph substrate used for qubit
// coupling maps: graph construction, connectivity queries, and the
// connected-subgraph allocation the paper's qubit-partitioning step
// requires (§5.2). It stands in for networkx in the original Python
// implementation.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph over integer vertices 0..n-1.
type Graph struct {
	n   int
	adj [][]int
	// edgeSet deduplicates edges; key packs (min,max) vertex ids.
	edgeSet map[[2]int]bool
}

// New creates a graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{
		n:       n,
		adj:     make([][]int, n),
		edgeSet: make(map[[2]int]bool),
	}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of (undirected) edges.
func (g *Graph) NumEdges() int { return len(g.edgeSet) }

// AddEdge inserts the undirected edge {u,v}. Self-loops and duplicate
// edges are ignored. It panics if either endpoint is out of range.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		return
	}
	key := edgeKey(u, v)
	if g.edgeSet[key] {
		return
	}
	g.edgeSet[key] = true
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	return g.edgeSet[edgeKey(u, v)]
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Edges returns all edges as (u,v) pairs with u<v, sorted for
// determinism.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, len(g.edgeSet))
	for e := range g.edgeSet { //lint:allow detlint collect-then-sort: the sort.Slice below fixes the order before anyone observes it
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// Connected reports whether the whole graph is connected. The empty graph
// and single-vertex graph are considered connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.componentFrom(0, nil)) == g.n
}

// ConnectedSubset reports whether the induced subgraph over the given
// vertex set is connected. An empty subset is considered connected.
func (g *Graph) ConnectedSubset(vertices []int) bool {
	if len(vertices) <= 1 {
		return true
	}
	inSet := make(map[int]bool, len(vertices))
	for _, v := range vertices {
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("graph: vertex %d out of range", v))
		}
		inSet[v] = true
	}
	reached := g.componentFrom(vertices[0], inSet)
	return len(reached) == len(inSet)
}

// componentFrom returns all vertices reachable from start via BFS. If
// restrict is non-nil, traversal is confined to that vertex set.
func (g *Graph) componentFrom(start int, restrict map[int]bool) []int {
	visited := make(map[int]bool)
	queue := []int{start}
	visited[start] = true
	var out []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		for _, w := range g.adj[v] {
			if restrict != nil && !restrict[w] {
				continue
			}
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return out
}

// Components returns the connected components, each sorted, ordered by
// their smallest vertex.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if seen[v] {
			continue
		}
		comp := g.componentFrom(v, nil)
		sort.Ints(comp)
		for _, w := range comp {
			seen[w] = true
		}
		comps = append(comps, comp)
	}
	return comps
}

// ConnectedSubgraph greedily grows a connected vertex set of the given
// size starting from the vertex of highest degree among `available`
// (ties broken by lowest id). It returns nil if no connected subgraph of
// that size exists within the available set.
//
// This implements the tractable alternative to the combinatorial search
// the paper rules out in §5.2 (C(127,10) ≈ 2.09e14 subsets): a BFS-style
// greedy expansion that succeeds whenever the available region contains a
// connected component of at least `size` vertices.
func (g *Graph) ConnectedSubgraph(size int, available []int) []int {
	if size <= 0 {
		return []int{}
	}
	if size > len(available) {
		return nil
	}
	avail := make(map[int]bool, len(available))
	for _, v := range available {
		avail[v] = true
	}
	// Candidate seeds: prefer high degree (well-connected regions), then
	// low id for determinism.
	seeds := append([]int(nil), available...)
	sort.Slice(seeds, func(i, j int) bool {
		di, dj := g.Degree(seeds[i]), g.Degree(seeds[j])
		if di != dj {
			return di > dj
		}
		return seeds[i] < seeds[j]
	})
	for _, seed := range seeds {
		comp := g.componentFrom(seed, avail)
		if len(comp) < size {
			continue
		}
		// BFS order from componentFrom is already a valid connected
		// growth order: every prefix of a BFS traversal is connected.
		sub := append([]int(nil), comp[:size]...)
		sort.Ints(sub)
		return sub
	}
	return nil
}

// LargestAvailableComponent returns the size of the largest connected
// component within the available vertex set.
func (g *Graph) LargestAvailableComponent(available []int) int {
	avail := make(map[int]bool, len(available))
	for _, v := range available {
		avail[v] = true
	}
	seen := make(map[int]bool)
	best := 0
	for _, v := range available {
		if seen[v] {
			continue
		}
		comp := g.componentFrom(v, avail)
		for _, w := range comp {
			seen[w] = true
		}
		if len(comp) > best {
			best = len(comp)
		}
	}
	return best
}
