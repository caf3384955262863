package models

import (
	"gnnmark/internal/autograd"
	"gnnmark/internal/datasets"
	"gnnmark/internal/graph"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// TLSTM is the child-sum Tree-LSTM (Tai et al.) for sentiment
// classification, following the DGL batched implementation: trees in a
// batch are merged and processed bottom-up, one level per wave. Every wave
// launches a handful of small kernels, making this the suite's
// launch-overhead-bound workload (low GFLOPS in Figure 4; no multi-GPU
// scaling in Figure 9).
type TLSTM struct {
	trainer
	ds *datasets.Sentiment

	embed *nn.Embedding
	cell  *nn.ChildSumTreeLSTMCell
	head  *nn.Linear

	hidden      int
	globalBatch int
}

// TLSTMConfig holds Tree-LSTM hyperparameters.
type TLSTMConfig struct {
	EmbedDim  int // token embedding width (default 24)
	Hidden    int // LSTM hidden width (default 24)
	BatchSize int // trees per batch (default 16)
}

func (c *TLSTMConfig) defaults() {
	if c.EmbedDim == 0 {
		c.EmbedDim = 24
	}
	if c.Hidden == 0 {
		c.Hidden = 24
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
}

// NewTLSTM builds the workload on a sentiment treebank.
func NewTLSTM(env *Env, ds *datasets.Sentiment, cfg TLSTMConfig) *TLSTM {
	cfg.defaults()
	m := &TLSTM{
		trainer:     trainer{env: env},
		ds:          ds,
		embed:       nn.NewEmbedding(env.RNG, "tlstm.embed", ds.Vocab, cfg.EmbedDim),
		cell:        nn.NewChildSumTreeLSTMCell(env.RNG, "tlstm.cell", cfg.EmbedDim, cfg.Hidden),
		head:        nn.NewLinear(env.RNG, "tlstm.head", cfg.Hidden, ds.Classes, true),
		hidden:      cfg.Hidden,
		globalBatch: cfg.BatchSize,
	}
	m.opt = nn.NewAdam(env.E, nn.CollectParams(m.embed, m.cell, m.head), 0.01)
	return m
}

// IterationsPerEpoch implements Workload.
func (m *TLSTM) IterationsPerEpoch() int {
	return (len(m.ds.Trees) + m.globalBatch - 1) / m.globalBatch
}

// batchedLevels merges a batch of trees into one node space (DGL graph
// batching) and returns the bottom-up level schedule over merged node ids.
type batchedTrees struct {
	trees      []*graph.Tree
	offset     []int32   // node-id offset per tree
	levels     [][]int32 // merged node ids per level, bottom-up
	totalNodes int
	rootIDs    []int32
	labels     []int32
	tokens     []int32 // merged token per node (-1 internal)
	parent     []int32 // merged parent ids
}

func mergeTrees(trees []*graph.Tree) *batchedTrees {
	b := &batchedTrees{trees: trees}
	off := int32(0)
	var depthLevels [][]int32
	for ti, tr := range trees {
		b.offset = append(b.offset, off)
		b.rootIDs = append(b.rootIDs, off)
		b.labels = append(b.labels, int32(tr.Label))
		for i := 0; i < tr.NumNodes(); i++ {
			b.tokens = append(b.tokens, tr.Tokens[i])
			p := tr.Parent[i]
			if p >= 0 {
				p += off
			}
			b.parent = append(b.parent, p)
		}
		for d, nodes := range tr.Levels() {
			for len(depthLevels) <= d {
				depthLevels = append(depthLevels, nil)
			}
			for _, v := range nodes {
				depthLevels[d] = append(depthLevels[d], v+off)
			}
		}
		off += int32(tr.NumNodes())
		_ = ti
	}
	b.totalNodes = int(off)
	b.levels = depthLevels
	return b
}

// forward runs the batched bottom-up Tree-LSTM over trees [start,end) and
// returns the tape, root logits, and labels.
func (m *TLSTM) forward(start, end int) (*autograd.Tape, *autograd.Var, []int32) {
	e := m.env.E
	b := mergeTrees(m.ds.Trees[start:end])

	// Transfer the batch structure: padded token matrix (zeros for
	// internal nodes — the padding is the sparsity the paper measures)
	// and the level schedule.
	tokenPad := tensor.New(b.totalNodes, 1)
	for i, tok := range b.tokens {
		if tok >= 0 {
			tokenPad.Set(float32(tok), i, 0)
		}
	}
	e.CopyH2D("tlstm.tokens", tokenPad)
	e.CopyH2DInt("tlstm.parents", b.parent)

	t := autograd.NewTape(e)

	// Node input features: embedded token for leaves, zeros inside.
	leafIDs := make([]int32, 0, b.totalNodes)
	leafTokens := make([]int32, 0, b.totalNodes)
	for i, tok := range b.tokens {
		if tok >= 0 {
			leafIDs = append(leafIDs, int32(i))
			leafTokens = append(leafTokens, tok)
		}
	}
	leafEmb := m.embed.Forward(t, leafTokens)
	x := t.ScatterAddRows(b.totalNodes, leafEmb, leafIDs)

	// Bottom-up wave processing: h and c grow level by level through
	// scatter-adds into the full node space.
	var hAll, cAll *autograd.Var
	for li, level := range b.levels {
		xLevel := t.GatherRows(x, level)
		var hSum, cTilde *autograd.Var
		if li == 0 {
			hSum = t.Const(tensor.New(len(level), m.hidden))
			cTilde = t.Const(tensor.New(len(level), m.hidden))
		} else {
			// Children of this level's nodes: gather child states and
			// scatter-sum them per parent position in the level.
			var childIDs []int32
			var parentPos []int32
			for pi, v := range level {
				for _, c := range m.childrenOf(b, v) {
					childIDs = append(childIDs, c)
					parentPos = append(parentPos, int32(pi))
				}
			}
			// Sort child ids to mimic DGL's edge bucketing (emits the
			// sort kernels the paper attributes to batching).
			perm := e.ArgsortInt32(childIDs)
			sortedChild := make([]int32, len(childIDs))
			sortedPos := make([]int32, len(parentPos))
			for i, p := range perm {
				sortedChild[i] = childIDs[p]
				sortedPos[i] = parentPos[p]
			}
			hChild := t.GatherRows(hAll, sortedChild)
			cChild := t.GatherRows(cAll, sortedChild)
			hSum = t.ScatterAddRows(len(level), hChild, sortedPos)
			xParent := t.GatherRows(x, gatherIdx(level, sortedPos))
			fc := m.cell.ChildForget(t, xParent, hChild, cChild)
			cTilde = t.ScatterAddRows(len(level), fc, sortedPos)
		}
		hL, cL := m.cell.NodeStep(t, xLevel, hSum, cTilde)
		hNew := t.ScatterAddRows(b.totalNodes, hL, level)
		cNew := t.ScatterAddRows(b.totalNodes, cL, level)
		if hAll == nil {
			hAll, cAll = hNew, cNew
		} else {
			hAll = t.Add(hAll, hNew)
			cAll = t.Add(cAll, cNew)
		}
	}

	roots := t.GatherRows(hAll, b.rootIDs)
	logits := m.head.Forward(t, roots)
	return t, logits, b.labels
}

// TrainEpoch implements Workload.
func (m *TLSTM) TrainEpoch() float64 {
	var total float64
	iters := m.IterationsPerEpoch()
	for it := 0; it < iters; it++ {
		m.env.iter()
		// DDP splits the global batch across replica ranks.
		start, end := m.env.Shard(it*m.globalBatch, min((it+1)*m.globalBatch, len(m.ds.Trees)))
		t, logits, labels := m.forward(start, end)
		loss := t.CrossEntropy(logits, labels)
		m.env.Step(t, loss, m.opt, 5)
		total += float64(loss.Value.At(0))
	}
	return total / float64(iters)
}

// childrenOf returns the merged-node-id children of merged node v.
func (m *TLSTM) childrenOf(b *batchedTrees, v int32) []int32 {
	// Locate the tree by offset.
	ti := 0
	for ti+1 < len(b.offset) && b.offset[ti+1] <= v {
		ti++
	}
	local := v - b.offset[ti]
	ch := b.trees[ti].Children[local]
	out := make([]int32, len(ch))
	for i, c := range ch {
		out[i] = c + b.offset[ti]
	}
	return out
}

// gatherIdx maps level positions back to merged node ids.
func gatherIdx(level []int32, pos []int32) []int32 {
	out := make([]int32, len(pos))
	for i, p := range pos {
		out[i] = level[p]
	}
	return out
}
