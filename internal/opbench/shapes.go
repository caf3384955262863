// Package opbench is the per-operation microbenchmark harness of the
// GNNMark reproduction: the observability plane that measures the host
// numerics (internal/backend) kernel by kernel, shape by shape, and records
// the repo's performance trajectory as schema-versioned BENCH_opbench.json
// artifacts.
//
// Operation-Level Performance Benchmarking of GNNs (Hosseini et al.) shows
// that GNN training time decomposes into a small set of gather / scatter /
// GEMM / SpMM primitives whose cost is strongly shape-dependent, so the
// sweep is organized as op classes x shape classes: every shape is drawn
// from the actual layer dimensions of the suite's eight workloads or the
// CSR scales of their (synthetic) datasets, every input is seeded, and the
// case list is in fixed definition order — two runs of the same sweep
// differ only in the timing fields.
package opbench

import (
	"fmt"
	"math"
	"math/rand"

	"gnnmark/internal/backend"
)

// Op-class labels. They follow the gpu.OpClass taxonomy names so opbench
// results line up with the per-op-class host-time attribution
// (ops.class.<name>.host_nanos) and the Figure 2 breakdown.
const (
	OpGEMM        = "GEMM"
	OpConv        = "Conv"
	OpSpMM        = "SpMM"
	OpGather      = "Gather"
	OpScatter     = "Scatter"
	OpReduction   = "Reduction"
	OpElementWise = "ElementWise"
)

// Case is one (op class, shape class) microbenchmark over the raw backend
// kernel surface. Cases carry their work estimates so the harness can pick
// deterministic inner-iteration counts and reports can derive rates.
type Case struct {
	// Op is the op-class label (gpu.OpClass taxonomy name).
	Op string
	// Shape is the shape-class label, e.g. "arga.enc1:m2400.n32.k358";
	// the prefix names the workload layer or dataset the shape is drawn
	// from.
	Shape string
	// Bytes is the per-iteration working set (inputs read + outputs
	// written), Flops the floating-point work (0 for pure data movement).
	Bytes int64
	Flops int64
	// Smoke marks membership of the reduced CI sweep. At least one shape
	// per op class is a smoke shape, so the CI gate covers every class.
	Smoke bool

	setup func(rng *rand.Rand) func(be backend.Backend)
}

// Runner materializes the case's seeded inputs and returns the closure the
// harness times. The same seed always yields byte-identical inputs.
func (c Case) Runner(seed int64) func(backend.Backend) {
	return c.setup(rand.New(rand.NewSource(seed)))
}

// randSlice fills a fresh slice with uniform values in [-1, 1).
func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// skewedCSR builds a degree-skewed CSR at a named dataset's scale: nnz
// directed edges over rows nodes, with a squared-uniform row pick standing
// in for the preferential-attachment degree skew of the citation graphs.
func skewedCSR(rng *rand.Rand, rows, nnz int) (rowPtr, colIdx []int32) {
	counts := make([]int32, rows)
	for i := 0; i < nnz; i++ {
		x := rng.Float64()
		r := int(x * x * float64(rows))
		if r >= rows {
			r = rows - 1
		}
		counts[r]++
	}
	rowPtr = make([]int32, rows+1)
	for i, c := range counts {
		rowPtr[i+1] = rowPtr[i] + c
	}
	colIdx = make([]int32, nnz)
	for i := range colIdx {
		colIdx[i] = int32(rng.Intn(rows))
	}
	return rowPtr, colIdx
}

// gemmCase builds an (m,k) @ (k,n) product case. trans selects the kernel:
// "" is MatMul, "TA" MatMulTA (A stored (k,m): a layer's weight gradient),
// "TB" MatMulTB (B stored (n,k): its input gradient, ARGA's decoder). zeros
// is the share of A's entries set to zero — the dense kernels skip them, so
// the case measures what a bag-of-words or post-ReLU operand really costs;
// Flops stays the nominal 2mnk.
func gemmCase(label, trans string, m, n, k int, zeros float64, smoke bool) Case {
	return Case{
		Op:    OpGEMM,
		Shape: fmt.Sprintf("%s:m%d.n%d.k%d", label, m, n, k),
		Bytes: 4 * int64(m*k+k*n+m*n),
		Flops: 2 * int64(m) * int64(n) * int64(k),
		Smoke: smoke,
		setup: func(rng *rand.Rand) func(be backend.Backend) {
			a := randSlice(rng, m*k)
			for i := range a {
				if rng.Float64() < zeros {
					a[i] = 0
				}
			}
			b := randSlice(rng, k*n)
			out := make([]float32, m*n)
			switch trans {
			case "":
				return func(be backend.Backend) {
					clear(out) // MatMul accumulates
					be.MatMul(a, b, out, m, n, k)
				}
			case "TA":
				return func(be backend.Backend) {
					clear(out) // MatMulTA accumulates
					be.MatMulTA(a, b, out, m, n, k)
				}
			case "TB":
				return func(be backend.Backend) {
					be.MatMulTB(a, b, out, m, n, k)
				}
			default:
				panic("opbench: unknown GEMM variant " + trans)
			}
		},
	}
}

// convCase builds one convolution kernel case over geometry p: kind "fwd"
// is Conv2D, "dx" Conv2DGradInput, "dw" Conv2DGradWeight. The gradient dy
// carries 40 % zeros, as it does behind a ReLU or a GLU gate.
func convCase(label, kind string, p backend.ConvParams, smoke bool) Case {
	p.OH = (p.H+2*p.PadH-p.KH)/p.StrideH + 1
	p.OW = (p.W+2*p.PadW-p.KW)/p.StrideW + 1
	xN, wN, yN := p.N*p.Cin*p.H*p.W, p.Cout*p.Cin*p.KH*p.KW, p.N*p.Cout*p.OH*p.OW
	return Case{
		Op: OpConv,
		Shape: fmt.Sprintf("%s:%s.n%d.c%d.h%d.w%d.o%d.k%dx%d.s%d.p%d", label, kind,
			p.N, p.Cin, p.H, p.W, p.Cout, p.KH, p.KW, p.StrideH, p.PadH),
		Bytes: 4 * int64(xN+wN+yN),
		Flops: 2 * int64(yN) * int64(p.Cin*p.KH*p.KW),
		Smoke: smoke,
		setup: func(rng *rand.Rand) func(be backend.Backend) {
			x := randSlice(rng, xN)
			w := randSlice(rng, wN)
			dy := randSlice(rng, yN)
			for i := range dy {
				if rng.Float64() < 0.4 {
					dy[i] = 0
				}
			}
			switch kind {
			case "fwd":
				out := make([]float32, yN)
				return func(be backend.Backend) {
					be.Conv2D(x, w, out, p)
				}
			case "dx":
				dx := make([]float32, xN)
				return func(be backend.Backend) {
					clear(dx) // Conv2DGradInput accumulates
					be.Conv2DGradInput(dy, w, dx, p)
				}
			case "dw":
				dw := make([]float32, wN)
				return func(be backend.Backend) {
					clear(dw) // Conv2DGradWeight accumulates
					be.Conv2DGradWeight(x, dy, dw, p)
				}
			default:
				panic("opbench: unknown convolution kind " + kind)
			}
		},
	}
}

// spmmCase builds a CSR @ dense aggregation case at a dataset's scale.
func spmmCase(label string, rows, nnz, f int, smoke bool) Case {
	return Case{
		Op:    OpSpMM,
		Shape: fmt.Sprintf("%s:r%d.nnz%d.f%d", label, rows, nnz, f),
		Bytes: 4 * int64(rows+1+nnz+rows*f+rows*f),
		Flops: 2 * int64(nnz) * int64(f),
		Smoke: smoke,
		setup: func(rng *rand.Rand) func(be backend.Backend) {
			rowPtr, colIdx := skewedCSR(rng, rows, nnz)
			x := randSlice(rng, rows*f)
			out := make([]float32, rows*f)
			return func(be backend.Backend) {
				clear(out) // SpMM accumulates
				be.SpMM(rowPtr, colIdx, nil, x, out, rows, f)
			}
		},
	}
}

// gatherCase builds a row-gather case: idx rows of an (n,f) table.
func gatherCase(label string, idxLen, n, f int, smoke bool) Case {
	return Case{
		Op:    OpGather,
		Shape: fmt.Sprintf("%s:i%d.n%d.f%d", label, idxLen, n, f),
		Bytes: 4 * int64(idxLen+2*idxLen*f),
		Smoke: smoke,
		setup: func(rng *rand.Rand) func(be backend.Backend) {
			x := randSlice(rng, n*f)
			idx := make([]int32, idxLen)
			for i := range idx {
				idx[i] = int32(rng.Intn(n))
			}
			out := make([]float32, idxLen*f)
			return func(be backend.Backend) {
				be.GatherRows(x, out, idx, f)
			}
		},
	}
}

// scatterCase builds a row scatter-add case: src rows accumulated into
// dst rows named by idx. With segments=true the indices are sorted
// segment ids (the segment-sum shape of graph pooling and child-sum
// aggregation); otherwise they are random (unsorted neighborhood
// aggregation).
func scatterCase(label string, srcRows, dstRows, f int, segments, smoke bool) Case {
	return Case{
		Op:    OpScatter,
		Shape: fmt.Sprintf("%s:s%d.d%d.f%d", label, srcRows, dstRows, f),
		Bytes: 4 * int64(srcRows+srcRows*f+dstRows*f),
		Flops: int64(srcRows * f),
		Smoke: smoke,
		setup: func(rng *rand.Rand) func(be backend.Backend) {
			src := randSlice(rng, srcRows*f)
			idx := make([]int32, srcRows)
			if segments {
				// Sorted segment ids: row i belongs to segment
				// i*dstRows/srcRows, the layout of batched graph pooling.
				for i := range idx {
					idx[i] = int32(i * dstRows / srcRows)
				}
			} else {
				for i := range idx {
					idx[i] = int32(rng.Intn(dstRows))
				}
			}
			dst := make([]float32, dstRows*f)
			return func(be backend.Backend) {
				clear(dst) // ScatterAddRows accumulates
				be.ScatterAddRows(dst, src, idx, f)
			}
		},
	}
}

// reduceCase builds a reduction case over an (n,f) matrix: kind "rows"
// reduces over rows to (f), "cols" to per-row sums (n), "all" to a scalar.
func reduceCase(label, kind string, n, f int, smoke bool) Case {
	return Case{
		Op:    OpReduction,
		Shape: fmt.Sprintf("%s:%s.n%d.f%d", label, kind, n, f),
		Bytes: 4 * int64(n*f),
		Flops: int64(n * f),
		Smoke: smoke,
		setup: func(rng *rand.Rand) func(be backend.Backend) {
			x := randSlice(rng, n*f)
			switch kind {
			case "rows":
				out := make([]float32, f)
				return func(be backend.Backend) {
					clear(out) // SumRows accumulates
					be.SumRows(x, out, n, f)
				}
			case "cols":
				out := make([]float32, n)
				return func(be backend.Backend) {
					be.SumCols(x, out, n, f)
				}
			case "all":
				return func(be backend.Backend) {
					be.SumAll(x)
				}
			default:
				panic("opbench: unknown reduction kind " + kind)
			}
		},
	}
}

// ewCase builds an element-wise case of n elements: kind "axpy" is the
// fused out = a + s*b zip, "relu" and "sigmoid" the activation maps.
func ewCase(label, kind string, n int, smoke bool) Case {
	return Case{
		Op:    OpElementWise,
		Shape: fmt.Sprintf("%s:%s.n%d", label, kind, n),
		Bytes: 4 * int64(3*n),
		Flops: int64(2 * n),
		Smoke: smoke,
		setup: func(rng *rand.Rand) func(be backend.Backend) {
			x := randSlice(rng, n)
			y := randSlice(rng, n)
			out := make([]float32, n)
			switch kind {
			case "axpy":
				return func(be backend.Backend) {
					be.AddScaled(out, x, y, 0.5)
				}
			case "relu":
				return func(be backend.Backend) {
					be.ReLU(out, x)
				}
			case "sigmoid":
				return func(be backend.Backend) {
					be.Sigmoid(out, x)
				}
			default:
				panic("opbench: unknown element-wise kind " + kind)
			}
		},
	}
}

// bceCase builds a BCE-with-logits case of n elements against 0/1 targets
// at the adjacency density of cora (0.17 %): kind "fwd" is the per-element
// loss, "bwd" its gradient. wide=false draws the logits ARGA's inner-product
// decoder issues, magnitudes log-uniform in [2^-16, 2^-2) and 99 % positive,
// which the kernels' series fast path takes; wide=true draws them uniform in
// [-8, 8), where almost every element takes the exact fallback.
func bceCase(label, kind string, n int, wide bool) Case {
	return Case{
		Op:    OpElementWise,
		Shape: fmt.Sprintf("%s:bce.%s.n%d", label, kind, n),
		Bytes: 4 * int64(3*n),
		Flops: int64(4 * n),
		setup: func(rng *rand.Rand) func(be backend.Backend) {
			logits := make([]float32, n)
			targets := make([]float32, n)
			for i := range logits {
				if wide {
					logits[i] = rng.Float32()*16 - 8
				} else {
					logits[i] = float32(math.Exp2(-16 + 14*rng.Float64()))
					if rng.Float64() < 0.01 {
						logits[i] = -logits[i]
					}
				}
				if rng.Float64() < 0.0017 {
					targets[i] = 1
				}
			}
			out := make([]float32, n)
			switch kind {
			case "fwd":
				return func(be backend.Backend) {
					be.BCEWithLogits(logits, targets, out)
				}
			case "bwd":
				return func(be backend.Backend) {
					be.BCEWithLogitsBackward(logits, targets, out, 1.0/float32(n))
				}
			default:
				panic("opbench: unknown BCE kind " + kind)
			}
		},
	}
}

// Cases returns the full sweep in fixed definition order. Shape classes are
// drawn from the suite:
//
//   - GEMM: ARGA's full-graph encoder layer and its tall-skinny weight
//     gradient on cora (2400 nodes x 358 bag-of-words features x 32
//     hidden), GraphWriter's vocabulary projection (600-token vocab, width
//     192), Tree-LSTM's fused gate GEMM (the small-launch shape that must
//     take the parallel backend's serial fallback), and the square-512
//     acceptance shape of the parallel backend; then the same encoder
//     layer with the 95 %-zero features the real workload feeds it, a
//     DeepGCN layer's GEMM on a MolHIV batch with the half-zero operand a
//     ReLU leaves (3200 nodes, width 64), the encoder's weight gradient
//     through the transposed-A kernel that really computes it, and ARGA's
//     inner-product decoder through the transposed-B one.
//   - Conv: STGCN's second temporal convolution of block 1 (batch 8, 24
//     to 48 channels, a 1x3 kernel over 100 sensors x 10 steps) and the
//     DNN baseline's first strided 3x3 (batch 16, 48 to 96 channels, 16x16
//     to 8x8), each forward, input gradient and filter gradient.
//   - SpMM: the three citation graphs at their synthetic scales (~4
//     directed edges per node) and a batched-molecule block at MolHIV
//     scale.
//   - Gather: PinSAGE sampled-neighborhood feature gathers, Tree-LSTM
//     embedding lookups, and a full-row permutation of cora's features.
//   - Scatter: PinSAGE neighborhood aggregation (unsorted indices),
//     MolHIV graph pooling and Tree-LSTM child-sum (sorted segment-sum).
//   - Reduction: bias-gradient row reduction, per-node sums, scalar loss
//     reduction.
//   - ElementWise: optimizer-step-sized axpy, cora-sized ReLU, gate
//     sigmoids, and the Tree-LSTM-sized small op; then ARGA's
//     reconstruction loss on cora (2400 x 2400 decoder logits) and the
//     same loss on wide logits, each forward and backward.
func Cases() []Case {
	return []Case{
		// GEMM — m,n,k from actual layer dims.
		gemmCase("arga.enc1", "", 2400, 32, 358, 0, true),
		gemmCase("arga.dW", "", 358, 32, 2400, 0, false),
		gemmCase("gw.proj", "", 64, 600, 192, 0, false),
		gemmCase("tlstm.gates", "", 32, 96, 48, 0, true),
		gemmCase("square512", "", 512, 512, 512, 0, false),
		gemmCase("arga.enc1.z95", "", 2400, 32, 358, 0.95, false),
		gemmCase("dgcn.conv.relu", "", 3200, 64, 64, 0.5, false),
		gemmCase("arga.dW.TA", "TA", 358, 32, 2400, 0, false),
		gemmCase("arga.dec.TB", "TB", 2400, 2400, 16, 0, false),

		// Conv — the three kernels at a unit-stride and a strided geometry.
		convCase("stgcn.b1.t2", "fwd", stgcnB1T2, true),
		convCase("stgcn.b1.t2", "dx", stgcnB1T2, false),
		convCase("stgcn.b1.t2", "dw", stgcnB1T2, false),
		convCase("dnn.s2", "fwd", dnnStride2, false),
		convCase("dnn.s2", "dx", dnnStride2, false),
		convCase("dnn.s2", "dw", dnnStride2, false),

		// SpMM — CSR shapes at dataset scales.
		spmmCase("cora", 2400, 9600, 32, true),
		spmmCase("citeseer", 2700, 10800, 32, false),
		spmmCase("pubmed", 3600, 14400, 16, false),
		spmmCase("molhiv.batch", 3200, 12800, 64, false),

		// Gather — sampled neighborhoods and embedding lookups.
		gatherCase("psage.nbr", 3072, 4000, 32, true),
		gatherCase("tlstm.embed", 256, 2048, 24, false),
		gatherCase("cora.rows", 2400, 2400, 358, false),

		// Scatter — aggregation and segment-sum pooling.
		scatterCase("psage.agg", 3072, 1024, 32, false, true),
		scatterCase("molhiv.segsum", 3200, 160, 64, true, false),
		scatterCase("tlstm.childsum", 2048, 512, 24, true, false),

		// Reduction — bias gradients, per-node sums, loss scalars.
		reduceCase("cora.dbias", "rows", 2400, 358, true),
		reduceCase("psage.norm", "cols", 4000, 32, false),
		reduceCase("loss.mean", "all", 1<<20, 1, false),

		// ElementWise — large zips and the small-launch fallback shape.
		ewCase("sgd.axpy", "axpy", 1<<20, true),
		ewCase("cora.relu", "relu", 2400*358, false),
		ewCase("gate.sigmoid", "sigmoid", 1<<18, false),
		ewCase("tlstm.small", "axpy", 4096, true),
		bceCase("arga.recon", "fwd", 2400*2400, false),
		bceCase("arga.recon", "bwd", 2400*2400, false),
		bceCase("wide.logits", "fwd", 1<<18, true),
		bceCase("wide.logits", "bwd", 1<<18, true),
	}
}

// The convolution geometries of the sweep (output dimensions are derived).
var (
	stgcnB1T2  = backend.ConvParams{N: 8, Cin: 24, H: 100, W: 10, Cout: 48, KH: 1, KW: 3, StrideH: 1, StrideW: 1}
	dnnStride2 = backend.ConvParams{N: 16, Cin: 48, H: 16, W: 16, Cout: 96, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
)

// SmokeCases returns the reduced CI sweep: the Smoke-marked subset of
// Cases, in the same order. It covers every op class.
func SmokeCases() []Case {
	var out []Case
	for _, c := range Cases() {
		if c.Smoke {
			out = append(out, c)
		}
	}
	return out
}
