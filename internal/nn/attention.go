package nn

import (
	"math"
	"math/rand"

	"gnnmark/internal/autograd"
	"gnnmark/internal/tensor"
)

// MultiHeadAttention is scaled dot-product attention with h heads over
// (N,dim) query/key/value matrices: the GEMM-heavy core of GraphWriter's
// graph-transformer encoder and its text decoder.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Linear
	Heads          int
	Dim            int
}

// NewMultiHeadAttention builds attention over dim features (dim must be
// divisible by heads).
func NewMultiHeadAttention(rng *rand.Rand, name string, dim, heads int) *MultiHeadAttention {
	mustPositive("dim", dim)
	mustPositive("heads", heads)
	if dim%heads != 0 {
		panic("nn: attention dim must be divisible by heads")
	}
	return &MultiHeadAttention{
		Wq:    NewLinear(rng, name+".wq", dim, dim, false),
		Wk:    NewLinear(rng, name+".wk", dim, dim, false),
		Wv:    NewLinear(rng, name+".wv", dim, dim, false),
		Wo:    NewLinear(rng, name+".wo", dim, dim, true),
		Heads: heads,
		Dim:   dim,
	}
}

// Params implements Module.
func (a *MultiHeadAttention) Params() []*autograd.Param {
	return CollectParams(a.Wq, a.Wk, a.Wv, a.Wo)
}

// ForwardMasked attends with an optional additive attention mask (Nq,Nk):
// 0 where attention is allowed, a large negative value where it is not.
// Block-diagonal masks batch independent examples through one attention
// pass, the padded-batch trick transformer implementations use.
func (a *MultiHeadAttention) ForwardMasked(t *autograd.Tape, q, kv, mask *autograd.Var) *autograd.Var {
	qp := a.Wq.Forward(t, q)
	kp := a.Wk.Forward(t, kv)
	vp := a.Wv.Forward(t, kv)

	dh := a.Dim / a.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	var headsOut *autograd.Var
	for h := 0; h < a.Heads; h++ {
		qh := t.SliceCols(qp, h*dh, (h+1)*dh)
		kh := t.SliceCols(kp, h*dh, (h+1)*dh)
		vh := t.SliceCols(vp, h*dh, (h+1)*dh)
		scores := t.Scale(t.MatMulTB(qh, kh), scale) // (Nq,Nk)
		if mask != nil {
			scores = t.Add(scores, mask)
		}
		attn := t.Softmax(scores)
		out := t.MatMul(attn, vh) // (Nq,dh)
		if headsOut == nil {
			headsOut = out
		} else {
			headsOut = t.Concat(headsOut, out)
		}
	}
	return a.Wo.Forward(t, headsOut)
}

// BlockDiagonalMask builds an additive mask for batched attention: query
// block i may only attend to key block i. Blocks are given as (start, end)
// offset pairs into the query and key row spaces.
func BlockDiagonalMask(qBlocks, kBlocks [][2]int, nq, nk int) *tensor.Tensor {
	if len(qBlocks) != len(kBlocks) {
		panic("nn: BlockDiagonalMask needs matching block lists")
	}
	m := tensor.Full(-1e9, nq, nk)
	for b := range qBlocks {
		for i := qBlocks[b][0]; i < qBlocks[b][1]; i++ {
			row := m.Row(i)
			for j := kBlocks[b][0]; j < kBlocks[b][1]; j++ {
				row[j] = 0
			}
		}
	}
	return m
}

// FeedForward is the transformer position-wise MLP.
type FeedForward struct {
	In, Out *Linear
}

// NewFeedForward builds dim -> hidden -> dim with ReLU.
func NewFeedForward(rng *rand.Rand, name string, dim, hidden int) *FeedForward {
	return &FeedForward{
		In:  NewLinear(rng, name+".in", dim, hidden, true),
		Out: NewLinear(rng, name+".out", hidden, dim, true),
	}
}

// Params implements Module.
func (f *FeedForward) Params() []*autograd.Param { return CollectParams(f.In, f.Out) }

// Forward applies the MLP to x (N,dim).
func (f *FeedForward) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	return f.Out.Forward(t, t.ReLU(f.In.Forward(t, x)))
}

// TransformerBlock is pre-norm self-attention + feed-forward with residuals.
type TransformerBlock struct {
	Attn *MultiHeadAttention
	FF   *FeedForward
	N1   *LayerNorm
	N2   *LayerNorm
}

// NewTransformerBlock builds one encoder block.
func NewTransformerBlock(rng *rand.Rand, name string, dim, heads, ffHidden int) *TransformerBlock {
	return &TransformerBlock{
		Attn: NewMultiHeadAttention(rng, name+".attn", dim, heads),
		FF:   NewFeedForward(rng, name+".ff", dim, ffHidden),
		N1:   NewLayerNorm(name+".n1", dim),
		N2:   NewLayerNorm(name+".n2", dim),
	}
}

// Params implements Module.
func (b *TransformerBlock) Params() []*autograd.Param {
	return CollectParams(b.Attn, b.FF, b.N1, b.N2)
}

// ForwardMasked applies the block with an additive self-attention mask
// (batched independent examples).
func (b *TransformerBlock) ForwardMasked(t *autograd.Tape, x, mask *autograd.Var) *autograd.Var {
	n := b.N1.Forward(t, x)
	h := t.Add(x, b.Attn.ForwardMasked(t, n, n, mask))
	return t.Add(h, b.FF.Forward(t, b.N2.Forward(t, h)))
}
