package main

import (
	"fmt"
	"math"

	"grminer/internal/gr"
	"grminer/internal/graph"
)

// rule is one ranked top-k entry in the form every check compares: the
// textual GR, its support and its exact score.
type rule struct {
	GR    string
	Supp  int
	Score float64
}

func rulesOf(top []gr.Scored, schema *graph.Schema) []rule {
	out := make([]rule, len(top))
	for i, s := range top {
		out[i] = rule{GR: s.GR.Format(schema), Supp: s.Supp, Score: s.Score}
	}
	return out
}

// diffRules describes the first difference between two ranked lists, or
// returns "" when they are identical.
func diffRules(got, want []rule) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rules, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("rank %d is %s supp=%d score=%v, want %s supp=%d score=%v",
				i+1, got[i].GR, got[i].Supp, got[i].Score, want[i].GR, want[i].Supp, want[i].Score)
		}
	}
	return ""
}

// digest folds a ranked list into one comparable word (FNV-1a).
func digest(rs []rule) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for _, r := range rs {
		for i := 0; i < len(r.GR); i++ {
			mix(r.GR[i])
		}
		for _, v := range []uint64{uint64(r.Supp), math.Float64bits(r.Score)} {
			for k := 0; k < 8; k++ {
				mix(byte(v >> (8 * k)))
			}
		}
		mix(0)
	}
	return h
}
