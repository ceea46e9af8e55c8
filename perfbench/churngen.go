package main

import (
	"math"
	"math/rand"

	"ftspanner/internal/graph"
)

// batchUpdate and batchBody are the /batch JSON body.
type batchUpdate struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w,omitempty"`
}

type batchBody struct {
	Insert []batchUpdate `json:"insert,omitempty"`
	Delete []batchUpdate `json:"delete,omitempty"`
}

// churnGen emits churn batches that are valid against the graph the server
// holds once every earlier batch has applied: deletes of distinct existing
// edges and inserts of distinct absent pairs near each other on the
// lattice, or anywhere on a graph with no grid (one row). It tracks the
// edge set itself and never looks at the server.
type churnGen struct {
	rng        *rand.Rand
	rows, cols int
	weighted   bool
	edges      [][2]int32
	index      map[[2]int32]int
}

func newChurnGen(rng *rand.Rand, g *graph.Graph, rows, cols int) *churnGen {
	c := &churnGen{rng: rng, rows: rows, cols: cols, weighted: g.Weighted(), index: make(map[[2]int32]int, g.M())}
	for _, e := range g.Edges() {
		c.addEdge(e.U, e.V)
	}
	return c
}

func pairKey(u, v int) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}
}

func (c *churnGen) addEdge(u, v int) {
	k := pairKey(u, v)
	c.index[k] = len(c.edges)
	c.edges = append(c.edges, k)
}

func (c *churnGen) removeEdge(k [2]int32) {
	i := c.index[k]
	last := c.edges[len(c.edges)-1]
	c.edges[i] = last
	c.index[last] = i
	c.edges = c.edges[:len(c.edges)-1]
	delete(c.index, k)
}

// next returns a batch of dels deletions and ins insertions and advances
// the tracked edge set as if it applied.
func (c *churnGen) next(dels, ins int) batchBody {
	var b batchBody
	touched := map[[2]int32]bool{}
	for len(b.Delete) < dels && len(touched) < len(c.edges) {
		k := c.edges[c.rng.Intn(len(c.edges))]
		if touched[k] {
			continue
		}
		touched[k] = true
		b.Delete = append(b.Delete, batchUpdate{U: int(k[0]), V: int(k[1])})
	}
	for len(b.Insert) < ins {
		u := c.rng.Intn(c.rows * c.cols)
		r, col := u/c.cols+c.rng.Intn(7)-3, u%c.cols+c.rng.Intn(7)-3
		if c.rows == 1 {
			// No grid: any vertex is as near as any other.
			r, col = 0, c.rng.Intn(c.cols)
		}
		if r < 0 || r >= c.rows || col < 0 || col >= c.cols {
			continue
		}
		v := r*c.cols + col
		k := pairKey(u, v)
		if u == v || touched[k] {
			continue
		}
		if _, exists := c.index[k]; exists {
			continue
		}
		touched[k] = true
		up := batchUpdate{U: u, V: v}
		if c.weighted {
			manhattan := math.Abs(float64(u/c.cols-r)) + math.Abs(float64(u%c.cols-col))
			up.W = (1 + c.rng.Float64()) * manhattan
		}
		b.Insert = append(b.Insert, up)
	}
	for _, d := range b.Delete {
		c.removeEdge(pairKey(d.U, d.V))
	}
	for _, in := range b.Insert {
		c.addEdge(in.U, in.V)
	}
	return b
}
