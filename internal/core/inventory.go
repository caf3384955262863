package core

import (
	"fmt"
	"math/rand"

	"gnnmark/internal/datasets"
	"gnnmark/internal/graph"
	"gnnmark/internal/tensor"
)

// DatasetStat is one synthetic dataset as the inventory shows it: its
// display name and either its graph with the feature width and the feature
// zero fraction, or, for the two text datasets, the item count and what the
// items are.
type DatasetStat struct {
	Name     string
	Graph    *graph.CSR
	Feats    int
	Sparsity float64
	Items    int
	Of       string
}

// DatasetStats generates every synthetic dataset from seed and returns the
// properties the substitutions in DESIGN.md promise to preserve: size,
// degree shape (read off Graph), feature sparsity.
func DatasetStats(seed int64) []DatasetStat {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
	var out []DatasetStat
	row := func(name string, g *graph.CSR, feats int, features *tensor.Tensor) {
		out = append(out, DatasetStat{Name: name, Graph: g, Feats: feats, Sparsity: features.ZeroFraction()})
	}
	for _, b := range []*datasets.Bipartite{datasets.MovieLens(rng()), datasets.NowPlaying(rng())} {
		row(b.Name+"(items)", b.ItemUsers, b.ItemFeatures.Dim(1), b.ItemFeatures)
	}
	for _, name := range []string{"cora", "citeseer", "pubmed"} {
		c := datasets.NewCitation(rng(), name)
		row(name, c.Adj, c.Features.Dim(1), c.Features)
	}
	tr := datasets.METRLA(rng())
	row(tr.Name, tr.Adj, tr.Series.Dim(0), tr.Series)
	mol := datasets.MolHIV(rng())
	row("molhiv(all)", graph.NewBatch(mol.Graphs).Adj, mol.FeatDim, mol.Features[0])
	pro := datasets.Proteins(rng())
	row(pro.Name, graph.NewBatch(pro.Graphs).Adj, pro.FeatDim, pro.Features[0])
	ag, sst := datasets.AGENDA(rng()), datasets.SST(rng())
	return append(out,
		DatasetStat{Name: ag.Name, Items: len(ag.Examples), Of: fmt.Sprintf("examples, vocab %d, %d entity kinds", ag.Vocab, ag.EntityKinds)},
		DatasetStat{Name: sst.Name, Items: len(sst.Trees), Of: fmt.Sprintf("trees, vocab %d, %d classes", sst.Vocab, sst.Classes)})
}
