package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
)

// wire is the union of the response fields the checks read.
type wire struct {
	Hierarchy     []int     `json:"hierarchy"`
	NewRank       *int      `json:"new_rank"`
	Table         []int     `json:"table"`
	N             int       `json:"n"`
	MapCPU        []int     `json:"map_cpu"`
	RingCost      *int      `json:"ring_cost"`
	PairsPerLevel []float64 `json:"pairs_per_level"`
	SearchMode    string    `json:"search_mode"`
	Evaluated     int64     `json:"evaluated"`
	OrdersEval    int64     `json:"orders_evaluated"`
	Best          []struct {
		Order []int `json:"order"`
	} `json:"best"`
	Ranks     int   `json:"ranks"`
	Placement []int `json:"placement"`
}

// isBijection reports whether p maps [0, len(p)) onto itself.
func isBijection(p []int) bool {
	seen := make([]bool, len(p))
	for _, x := range p {
		if x < 0 || x >= len(p) || seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

func product(v []int) int {
	n := 1
	for _, x := range v {
		n *= x
	}
	return n
}

// checkAnswer validates one answer against what its request asked for.
// Advises are held to the golden winning order and search mode of their
// variant.
func checkAnswer(a answer, g *Golden) error {
	var w wire
	if err := json.Unmarshal(a.reply.Body, &w); err != nil {
		return fmt.Errorf("%s: undecodable answer: %w", a.v.name, err)
	}
	switch a.v.kind {
	case kindMapRank:
		if w.NewRank == nil || *w.NewRank < 0 || *w.NewRank >= a.v.ranks {
			return fmt.Errorf("%s: new_rank missing or outside [0, %d)", a.v.name, a.v.ranks)
		}
	case kindMapTable:
		if n := product(w.Hierarchy); n == 0 || len(w.Table) != n || !isBijection(w.Table) {
			return fmt.Errorf("%s: table of %d entries is not a bijection on the %d ranks of %v",
				a.v.name, len(w.Table), n, w.Hierarchy)
		}
	case kindSelect:
		if len(w.MapCPU) != w.N || w.N == 0 {
			return fmt.Errorf("%s: %d cores listed for n=%d", a.v.name, len(w.MapCPU), w.N)
		}
		seen := map[int]bool{}
		for _, c := range w.MapCPU {
			if c < 0 || c >= a.v.ranks || seen[c] {
				return fmt.Errorf("%s: core %d repeated or outside [0, %d)", a.v.name, c, a.v.ranks)
			}
			seen[c] = true
		}
	case kindMetrics:
		var sum float64
		for _, p := range w.PairsPerLevel {
			sum += p
		}
		if w.RingCost == nil || math.Abs(sum-100) > 1e-6 {
			return fmt.Errorf("%s: ring cost missing or pairs per level sum to %g", a.v.name, sum)
		}
	case kindAdvise:
		want, ok := g.Advise[a.v.name]
		if !ok {
			return fmt.Errorf("%s: no golden advise entry", a.v.name)
		}
		var got []int
		if len(w.Best) > 0 {
			got = w.Best[0].Order
		}
		if !reflect.DeepEqual(got, want.Order) || w.SearchMode != want.SearchMode {
			return fmt.Errorf("%s: best order %v by %q, golden %v by %q", a.v.name, got, w.SearchMode, want.Order, want.SearchMode)
		}
	case kindMatrix:
		if w.Ranks != a.v.ranks || len(w.Placement) != a.v.ranks || !isBijection(w.Placement) || w.SearchMode != "matrix" {
			return fmt.Errorf("%s: placement of %d ranks by %q is not a bijection on %d", a.v.name, len(w.Placement), w.SearchMode, a.v.ranks)
		}
	}
	return nil
}
