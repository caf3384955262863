package models

import (
	"fmt"
	"slices"

	"gnnmark/internal/autograd"
	"gnnmark/internal/datasets"
	"gnnmark/internal/graph"
	"gnnmark/internal/loader"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// KGNN is the hierarchical k-GNN (Morris et al.): a 1-GNN over the base
// graph whose node states are pooled into k-tuple features, followed by
// GNNs over the 2-tuple (and, for the high-order variant, 3-tuple) graphs.
// KGNNL is the 1-2-GNN, KGNNH the 1-2-3-GNN; the paper includes both to
// show how cost and behavior shift with GNN order.
type KGNN struct {
	trainer
	ds   *datasets.MoleculeSet
	kMax int // 2 for KGNNL, 3 for KGNNH

	embed  *nn.Linear
	conv1  []*nn.Linear // 1-GNN layers
	conv2  []*nn.Linear // 2-GNN layers
	conv3  []*nn.Linear // 3-GNN layers (KGNNH only)
	head   *nn.Linear
	hidden int

	globalBatch int
	batches     []kgnnBatch

	staging *loader.Loader // per-batch feature uploads, staged ahead
}

type kgnnBatch struct {
	adj1, adj1T *graph.CSR
	features    *tensor.Tensor
	graphID     []int32
	numGraphs   int
	labels      []int32

	// 2-tuple structures (merged across the batch).
	adj2, adj2T *graph.CSR
	t2a, t2b    []int32 // member vertices of each 2-tuple
	g2          []int32 // graph id per 2-tuple

	// 3-tuple structures (kMax == 3).
	adj3, adj3T   *graph.CSR
	t3a, t3b, t3c []int32
	g3            []int32
}

// KGNNConfig holds k-GNN hyperparameters.
type KGNNConfig struct {
	K         int // tuple order: 2 (KGNNL) or 3 (KGNNH) (default 2)
	Hidden    int // hidden width (default 32)
	BatchSize int // graphs per batch (default 32)
}

func (c *KGNNConfig) defaults() {
	if c.K == 0 {
		c.K = 2
	}
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
}

// NewKGNN builds the workload on a protein dataset.
func NewKGNN(env *Env, ds *datasets.MoleculeSet, cfg KGNNConfig) *KGNN {
	cfg.defaults()
	if cfg.K != 2 && cfg.K != 3 {
		panic(fmt.Sprintf("models: KGNN supports K=2 or 3, got %d", cfg.K))
	}
	m := &KGNN{
		trainer:     trainer{env: env},
		ds:          ds,
		kMax:        cfg.K,
		embed:       nn.NewLinear(env.RNG, "kgnn.embed", ds.FeatDim, cfg.Hidden, true),
		head:        nn.NewLinear(env.RNG, "kgnn.head", cfg.Hidden*cfg.K, 2, true),
		hidden:      cfg.Hidden,
		globalBatch: cfg.BatchSize,
	}
	for l := 0; l < 2; l++ { // two layers per level
		m.conv1 = append(m.conv1, nn.NewLinear(env.RNG, "kgnn.c1", cfg.Hidden, cfg.Hidden, false))
		m.conv2 = append(m.conv2, nn.NewLinear(env.RNG, "kgnn.c2", cfg.Hidden, cfg.Hidden, false))
		if cfg.K == 3 {
			m.conv3 = append(m.conv3, nn.NewLinear(env.RNG, "kgnn.c3", cfg.Hidden, cfg.Hidden, false))
		}
	}
	mods := []nn.Module{m.embed, m.head}
	for _, c := range slices.Concat(m.conv1, m.conv2, m.conv3) {
		mods = append(mods, c)
	}
	m.opt = nn.NewAdam(env.E, nn.CollectParams(mods...), 0.005)
	m.prepareBatches()

	// Batch gi re-uploads pre-materialized batch gi % len: a staged copy of
	// the node features plus the borrowed 2-tuple member index buffer.
	m.staging = env.NewLoader(func(gi int, b *loader.Batch) {
		src := &m.batches[gi%len(m.batches)]
		b.StageFrom("features", src.features)
		b.PutInts("tuples2", src.t2a)
	})
	return m
}

// prepareBatches precomputes batched base graphs and their k-tuple graphs.
// The tuple construction is part of dataset preprocessing in the reference
// implementation, so it is done once here, not per epoch.
func (m *KGNN) prepareBatches() {
	n := len(m.ds.Graphs)
	for gstart := 0; gstart < n; gstart += m.globalBatch {
		start, end := m.env.Shard(gstart, min(gstart+m.globalBatch, n))
		gs := m.ds.Graphs[start:end]
		bb := graph.NewBatch(gs)
		norm := bb.Adj.NormalizeGCN()

		kb := kgnnBatch{
			adj1:      norm,
			adj1T:     norm.Transpose(),
			graphID:   bb.GraphID,
			numGraphs: end - start,
		}
		feats := tensor.New(bb.NumNodes(), m.ds.FeatDim)
		row := 0
		for gi := start; gi < end; gi++ {
			f := m.ds.Features[gi]
			for r := 0; r < f.Dim(0); r++ {
				copy(feats.Row(row), f.Row(r))
				row++
			}
		}
		kb.features = feats
		for gi := start; gi < end; gi++ {
			kb.labels = append(kb.labels, m.ds.Labels[gi])
		}

		// Per-graph k-tuple graphs, merged with offsets.
		var adj2Graphs, adj3Graphs []*graph.CSR
		for gi := start; gi < end; gi++ {
			g := m.ds.Graphs[gi]
			nodeOff, _ := bb.GraphNodes(gi - start)
			k2 := graph.BuildKTuple(g, 2)
			adj2Graphs = append(adj2Graphs, k2.Adj)
			for _, tp := range k2.Tuples {
				kb.t2a = append(kb.t2a, tp[0]+nodeOff)
				kb.t2b = append(kb.t2b, tp[1]+nodeOff)
				kb.g2 = append(kb.g2, int32(gi-start))
			}
			if m.kMax == 3 {
				k3 := graph.BuildKTuple(g, 3)
				adj3Graphs = append(adj3Graphs, k3.Adj)
				for _, tp := range k3.Tuples {
					kb.t3a = append(kb.t3a, tp[0]+nodeOff)
					kb.t3b = append(kb.t3b, tp[1]+nodeOff)
					kb.t3c = append(kb.t3c, tp[2]+nodeOff)
					kb.g3 = append(kb.g3, int32(gi-start))
				}
			}
		}
		b2 := graph.NewBatch(adj2Graphs)
		a2 := b2.Adj.NormalizeGCN()
		kb.adj2, kb.adj2T = a2, a2.Transpose()
		if m.kMax == 3 {
			b3 := graph.NewBatch(adj3Graphs)
			a3 := b3.Adj.NormalizeGCN()
			kb.adj3, kb.adj3T = a3, a3.Transpose()
		}
		m.batches = append(m.batches, kb)
	}
}

// IterationsPerEpoch implements Workload.
func (m *KGNN) IterationsPerEpoch() int { return len(m.batches) }

// meanPool pools rows of h into per-graph means given graph ids.
func meanPool(t *autograd.Tape, h *autograd.Var, graphID []int32, numGraphs, width int) *autograd.Var {
	pooled := t.ScatterAddRows(numGraphs, h, graphID)
	counts := make([]float32, numGraphs)
	for _, g := range graphID {
		counts[g]++
	}
	inv := tensor.New(numGraphs, width)
	for g := 0; g < numGraphs; g++ {
		c := counts[g]
		if c == 0 {
			c = 1
		}
		for j := 0; j < width; j++ {
			inv.Set(1/c, g, j)
		}
	}
	return t.Mul(pooled, t.Const(inv))
}

// TrainEpoch implements Workload.
func (m *KGNN) TrainEpoch() float64 {
	var total float64
	for _, b := range m.batches {
		lb := m.env.NextBatch(m.staging)
		m.env.iter()
		e := m.env.E
		feats := lb.Tensor("features")
		e.CopyH2D("kgnn.features", feats)
		e.CopyH2DInt("kgnn.tuples2", lb.Ints("tuples2"))

		t := autograd.NewTape(e)
		h1 := t.ReLU(m.embed.Forward(t, t.Const(feats)))
		for _, c := range m.conv1 {
			h1 = t.ReLU(t.SpMM(b.adj1, b.adj1T, c.Forward(t, h1)))
		}
		read1 := meanPool(t, h1, b.graphID, b.numGraphs, m.hidden)

		// Lift node states into 2-tuple features: mean of the two members.
		h2 := t.Scale(t.Add(t.GatherRows(h1, b.t2a), t.GatherRows(h1, b.t2b)), 0.5)
		for _, c := range m.conv2 {
			h2 = t.ReLU(t.SpMM(b.adj2, b.adj2T, c.Forward(t, h2)))
		}
		read2 := meanPool(t, h2, b.g2, b.numGraphs, m.hidden)

		readout := t.Concat(read1, read2)
		if m.kMax == 3 {
			h3a := t.Add(t.GatherRows(h1, b.t3a), t.GatherRows(h1, b.t3b))
			h3 := t.Scale(t.Add(h3a, t.GatherRows(h1, b.t3c)), 1.0/3)
			for _, c := range m.conv3 {
				h3 = t.ReLU(t.SpMM(b.adj3, b.adj3T, c.Forward(t, h3)))
			}
			read3 := meanPool(t, h3, b.g3, b.numGraphs, m.hidden)
			readout = t.Concat(readout, read3)
		}

		logits := m.head.Forward(t, readout)
		loss := t.CrossEntropy(logits, b.labels)

		m.env.Step(t, loss, m.opt, 0)
		total += float64(loss.Value.At(0))
	}
	return total / float64(len(m.batches))
}
