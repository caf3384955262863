package models

import (
	"gnnmark/internal/autograd"
	"gnnmark/internal/datasets"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// GW is GraphWriter (Koncel-Kedziorski et al.): a graph-transformer encoder
// over knowledge-graph entities plus an attention decoder generating target
// text. Attention and vocabulary-projection GEMMs dominate, making GW the
// suite's only fp-dominated workload (Figure 3) and its GFLOPS leader
// (Figure 4).
type GW struct {
	trainer
	ds *datasets.KGText

	entEmb *nn.Embedding // entity-type embeddings
	tokEmb *nn.Embedding // token embeddings
	enc    []*nn.TransformerBlock
	ctxAtt *nn.MultiHeadAttention // decoder cross-attention
	dec    *nn.LSTMCell
	proj   *nn.Linear // vocabulary projection

	dim          int
	globalBatch  int
	cfgMaxDecode int
}

// GWConfig holds GraphWriter hyperparameters.
type GWConfig struct {
	Dim       int // model width (default 192)
	Heads     int // attention heads (default 4)
	EncLayers int // encoder blocks (default 2)
	BatchSize int // examples per iteration (default 8)
	MaxDecode int // decoded tokens per example (default 24)
}

func (c *GWConfig) defaults() {
	if c.Dim == 0 {
		c.Dim = 192
	}
	if c.Heads == 0 {
		c.Heads = 4
	}
	if c.EncLayers == 0 {
		c.EncLayers = 2
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.MaxDecode == 0 {
		c.MaxDecode = 24
	}
}

// NewGW builds the workload on a knowledge-graph-to-text dataset.
func NewGW(env *Env, ds *datasets.KGText, cfg GWConfig) *GW {
	cfg.defaults()
	m := &GW{
		trainer:     trainer{env: env},
		ds:          ds,
		entEmb:      nn.NewEmbedding(env.RNG, "gw.ent", ds.EntityKinds, cfg.Dim),
		tokEmb:      nn.NewEmbedding(env.RNG, "gw.tok", ds.Vocab, cfg.Dim),
		ctxAtt:      nn.NewMultiHeadAttention(env.RNG, "gw.ctx", cfg.Dim, cfg.Heads),
		dec:         nn.NewLSTMCell(env.RNG, "gw.dec", 2*cfg.Dim, cfg.Dim),
		proj:        nn.NewLinear(env.RNG, "gw.proj", cfg.Dim, ds.Vocab, true),
		dim:         cfg.Dim,
		globalBatch: cfg.BatchSize,
	}
	mods := []nn.Module{m.entEmb, m.tokEmb, m.ctxAtt, m.dec, m.proj}
	for l := 0; l < cfg.EncLayers; l++ {
		m.enc = append(m.enc, nn.NewTransformerBlock(env.RNG, "gw.enc", cfg.Dim, cfg.Heads, 2*cfg.Dim))
		mods = append(mods, m.enc[l])
	}
	m.cfgMaxDecode = cfg.MaxDecode
	// GraphWriter trains with the transformer warmup schedule.
	m.opt = nn.NewScheduledAdam(nn.NewAdam(env.E, nn.CollectParams(mods...), 0.004),
		nn.Warmup{WarmupSteps: 16})
	return m
}

// IterationsPerEpoch implements Workload.
func (m *GW) IterationsPerEpoch() int {
	return (len(m.ds.Examples) + m.globalBatch - 1) / m.globalBatch
}

// TrainEpoch implements Workload: teacher-forced sequence training. The
// decoder is batched across the iteration's examples (per-step LSTM inputs
// are (B, 2*dim) matrices), as the reference implementation pads and packs
// target sequences; only the graph encoders run per example, since each
// example has its own entity graph.
func (m *GW) TrainEpoch() float64 {
	var total float64
	iters := m.IterationsPerEpoch()
	for it := 0; it < iters; it++ {
		m.env.iter()
		e := m.env.E
		// DDP splits the global batch across replica ranks.
		start, end := m.env.Shard(it*m.globalBatch, min((it+1)*m.globalBatch, len(m.ds.Examples)))
		bsz := end - start

		t := autograd.NewTape(e)

		// Batched encoding: every example's entities are packed into one
		// row space and processed by a single masked-attention pass per
		// block (the padded-batch transformer pattern), so encoder GEMMs
		// have batch-scale shapes.
		steps := m.cfgMaxDecode
		for exi := start; exi < end; exi++ {
			if s := len(m.ds.Examples[exi].Target) - 1; s < steps {
				steps = s
			}
		}
		var allEnts []int32
		entBlocks := make([][2]int, 0, bsz)
		entOff := 0
		for exi := start; exi < end; exi++ {
			ex := m.ds.Examples[exi]
			allEnts = append(allEnts, ex.EntityTypes...)
			entBlocks = append(entBlocks, [2]int{entOff, entOff + len(ex.EntityTypes)})
			entOff += len(ex.EntityTypes)

			// Transfer the example: padded token matrix + entity types.
			pad := tensor.New(steps+len(ex.Title), 1)
			for i, tok := range append(append([]int32{}, ex.Title...), ex.Target[:steps]...) {
				pad.Set(float32(tok), i, 0)
			}
			e.CopyH2D("gw.tokens", pad)
			e.CopyH2DInt("gw.entities", ex.EntityTypes)
		}
		selfMask := t.Const(nn.BlockDiagonalMask(entBlocks, entBlocks, entOff, entOff))
		h := m.entEmb.Forward(t, allEnts)
		for _, blk := range m.enc {
			h = blk.ForwardMasked(t, h, selfMask)
		}

		// Decoder inputs: all examples' target prefixes, example-major,
		// with cross-attention masked to each example's entity block.
		var allToks []int32
		tokBlocks := make([][2]int, 0, bsz)
		labels := make([]int32, 0, bsz*steps)
		for b := 0; b < bsz; b++ {
			ex := m.ds.Examples[start+b]
			allToks = append(allToks, ex.Target[:steps]...)
			tokBlocks = append(tokBlocks, [2]int{b * steps, (b + 1) * steps})
		}
		tokVecs := m.tokEmb.Forward(t, allToks) // (B*steps, dim)
		crossMask := t.Const(nn.BlockDiagonalMask(tokBlocks, entBlocks, bsz*steps, entOff))
		ctx := m.ctxAtt.ForwardMasked(t, tokVecs, h, crossMask)
		decIn := t.Concat(tokVecs, ctx) // (B*steps, 2dim), example-major

		// Batched LSTM over timesteps: step s gathers row s of every
		// example (an index-select, as packed-sequence batching does).
		hState := t.Const(tensor.New(bsz, m.dim))
		cState := t.Const(tensor.New(bsz, m.dim))
		var outs *autograd.Var // (steps*B, dim), step-major
		for st := 0; st < steps; st++ {
			idx := make([]int32, bsz)
			for b := 0; b < bsz; b++ {
				idx[b] = int32(b*steps + st)
			}
			xStep := t.IndexSelectRows(decIn, idx) // (B, 2dim)
			hState, cState = m.dec.Step(t, xStep, hState, cState)
			if outs == nil {
				outs = hState
			} else {
				outs = t.ConcatRows(outs, hState)
			}
			for b := 0; b < bsz; b++ {
				labels = append(labels, m.ds.Examples[start+b].Target[st+1])
			}
		}

		logits := m.proj.Forward(t, outs) // (steps*B, vocab)
		loss := t.CrossEntropy(logits, labels)

		m.env.Step(t, loss, m.opt, 5)
		total += float64(loss.Value.At(0))
	}
	return total / float64(iters)
}
