package graph

import (
	"math"
	"sort"
)

// DegreeStats summarizes a CSR's in-degree distribution: the knobs that
// drive GNN kernel behavior (SpMM row lengths, gather fan-in, load balance).
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// P50, P90, P99 are degree percentiles.
	P50, P90, P99 int
	// Gini is the degree Gini coefficient in [0,1]: 0 = perfectly regular,
	// near 1 = extremely skewed (scale-free graphs score high).
	Gini float64
}

// Degrees computes the in-degree distribution statistics of g.
func Degrees(g *CSR) DegreeStats {
	if g.Rows == 0 {
		return DegreeStats{}
	}
	ds := make([]int, g.Rows)
	sum := 0
	for i := 0; i < g.Rows; i++ {
		ds[i] = g.Degree(i)
		sum += ds[i]
	}
	sort.Ints(ds)
	pct := func(p float64) int { return ds[int(p*float64(len(ds)-1))] }
	st := DegreeStats{
		Min:  ds[0],
		Max:  ds[len(ds)-1],
		Mean: float64(sum) / float64(g.Rows),
		P50:  pct(0.50),
		P90:  pct(0.90),
		P99:  pct(0.99),
	}
	// Gini over the sorted degree sequence.
	if sum > 0 {
		var cum float64
		for i, d := range ds {
			cum += float64(d) * float64(2*(i+1)-len(ds)-1)
		}
		st.Gini = cum / (float64(len(ds)) * float64(sum))
		st.Gini = math.Abs(st.Gini)
	}
	return st
}
