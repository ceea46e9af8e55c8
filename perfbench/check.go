package main

import (
	"container/heap"
	"fmt"
	"math"
)

// twin is the benchmark's own copy of the graph it generated, kept apart
// from the repository's graph and search packages so that served answers
// are checked by code that shares nothing with the code that served them.
type twin struct {
	weighted bool
	adj      []map[int32]float64
}

func newTwin(n int, weighted bool) *twin {
	return &twin{weighted: weighted, adj: make([]map[int32]float64, n)}
}

func (t *twin) n() int { return len(t.adj) }

func (t *twin) weight(u, v int) (float64, bool) {
	w, ok := t.adj[u][int32(v)]
	return w, ok
}

func (t *twin) add(u, v int, w float64) {
	if !t.weighted {
		w = 1
	}
	for _, e := range [2][2]int{{u, v}, {v, u}} {
		if t.adj[e[0]] == nil {
			t.adj[e[0]] = make(map[int32]float64, 4)
		}
		t.adj[e[0]][int32(e[1])] = w
	}
}

type distItem struct {
	v int32
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dist is plain Dijkstra on the graph minus the fault vertices: the u–v
// distance if it is at most limit, +Inf otherwise (limit +Inf for none).
func (t *twin) dist(u, v int, faults []int, limit float64) float64 {
	blocked := make(map[int32]bool, len(faults))
	for _, f := range faults {
		blocked[int32(f)] = true
	}
	if blocked[int32(u)] || blocked[int32(v)] {
		return math.Inf(1)
	}
	best := map[int32]float64{int32(u): 0}
	done := map[int32]bool{}
	h := &distHeap{{int32(u), 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if done[it.v] {
			continue
		}
		if it.d > limit {
			break
		}
		if int(it.v) == v {
			return it.d
		}
		done[it.v] = true
		for x, w := range t.adj[it.v] {
			if blocked[x] || done[x] {
				continue
			}
			nd := it.d + w
			if old, ok := best[x]; !ok || nd < old {
				best[x] = nd
				heap.Push(h, distItem{x, nd})
			}
		}
	}
	return math.Inf(1)
}

// answer is one served /query reply together with the request it answers.
type answer struct {
	U, V      int
	Faults    []int
	Cap       float64 // max_distance; 0 = none
	Reachable bool
	Dist      float64
	Path      []int
	Epoch     uint64
}

// floatTol is the relative slack for comparing float sums that were added
// up in different orders.
const floatTol = 1e-9

// checkAnswer re-derives one served answer on g, the graph the server held
// at the answer's epoch: every path edge exists in g, the path avoids the
// faults, its weight is the served distance, the distance is within the
// stretch of the true distance in g minus the faults, and an unreachable
// answer under a cap means the true distance exceeds cap/stretch.
func checkAnswer(g *twin, a answer, stretch int) error {
	if a.U < 0 || a.U >= g.n() || a.V < 0 || a.V >= g.n() {
		return fmt.Errorf("pair (%d,%d) out of range", a.U, a.V)
	}
	faulted := map[int]bool{}
	for _, f := range a.Faults {
		faulted[f] = true
	}
	s := float64(stretch)
	if !a.Reachable {
		limit := math.Inf(1)
		if a.Cap > 0 {
			limit = a.Cap / s
		}
		if d := g.dist(a.U, a.V, a.Faults, limit); !math.IsInf(d, 1) {
			return fmt.Errorf("(%d,%d) faults %v cap %g: served unreachable but d_{G-F} = %g", a.U, a.V, a.Faults, a.Cap, d)
		}
		return nil
	}
	if len(a.Path) == 0 || a.Path[0] != a.U || a.Path[len(a.Path)-1] != a.V {
		return fmt.Errorf("(%d,%d): path %v does not join the pair", a.U, a.V, a.Path)
	}
	sum := 0.0
	for i, x := range a.Path {
		if faulted[x] {
			return fmt.Errorf("(%d,%d): path visits faulted vertex %d", a.U, a.V, x)
		}
		if i == 0 {
			continue
		}
		w, ok := g.weight(a.Path[i-1], x)
		if !ok {
			return fmt.Errorf("(%d,%d): path edge {%d,%d} is not in G", a.U, a.V, a.Path[i-1], x)
		}
		sum += w
	}
	if math.Abs(sum-a.Dist) > floatTol*math.Max(1, a.Dist) {
		return fmt.Errorf("(%d,%d): path weight %g != served distance %g", a.U, a.V, sum, a.Dist)
	}
	if a.Cap > 0 && a.Dist > a.Cap*(1+floatTol) {
		return fmt.Errorf("(%d,%d): served distance %g beyond cap %g", a.U, a.V, a.Dist, a.Cap)
	}
	d := g.dist(a.U, a.V, a.Faults, math.Inf(1))
	if a.Dist > s*d*(1+floatTol) {
		return fmt.Errorf("(%d,%d) faults %v: served distance %g > %d·d_{G-F} = %d·%g", a.U, a.V, a.Faults, a.Dist, stretch, stretch, d)
	}
	return nil
}
