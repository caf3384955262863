package models

import (
	"testing"

	"gnnmark/internal/datasets"
	"gnnmark/internal/tensor"
)

func servePSAGE(t *testing.T, seed int64) *PSAGE {
	t.Helper()
	env, _ := testEnv(seed)
	return NewPSAGE(env, datasets.MovieLens(env.RNG), PSAGEConfig{Hidden: 16, BatchSize: 8, Batches: 3})
}

func serveARGA(t *testing.T, seed int64) *ARGA {
	t.Helper()
	env, _ := testEnv(seed)
	return NewARGA(env, datasets.NewCitation(env.RNG, "cora"), ARGAConfig{Hidden: 16, Embed: 8})
}

// rowsEqual reports whether row i of a equals row j of b bitwise.
func rowsEqual(a *tensor.Tensor, i int, b *tensor.Tensor, j int) bool {
	ra, rb := a.Row(i), b.Row(j)
	if len(ra) != len(rb) {
		return false
	}
	for k := range ra {
		if ra[k] != rb[k] {
			return false
		}
	}
	return true
}

func TestServeEmbedBatchInvariant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T, int64) Servable
		dim   int // the embedding width of the config built
	}{
		{"PSAGE", func(t *testing.T, s int64) Servable { return servePSAGE(t, s) }, 16},
		{"ARGA", func(t *testing.T, s int64) Servable { return serveARGA(t, s) }, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(t, 42)
			ids := []int32{3, 17, 3, int32(m.NumItems() - 1)}
			batched := m.ServeEmbed(ids)
			if batched.Dim(0) != len(ids) || batched.Dim(1) != tc.dim {
				t.Fatalf("batched shape %v, want [%d %d]", batched.Shape(), len(ids), tc.dim)
			}
			for i, id := range ids {
				single := m.ServeEmbed([]int32{id})
				if !rowsEqual(batched, i, single, 0) {
					t.Errorf("id %d: micro-batched row differs from batch-of-1", id)
				}
			}
			// Duplicate ids in one batch embed identically (pure function
			// of id — the property the LRU cache relies on).
			if !rowsEqual(batched, 0, batched, 2) {
				t.Error("duplicate id rows differ within one batch")
			}
		})
	}
}

func TestServeEmbedDeterministicAcrossModels(t *testing.T) {
	// Two models built from the same seed must serve identical embeddings:
	// sampling depends only on (model seed, id), never on shared RNG state
	// mutated by prior requests.
	a := servePSAGE(t, 7)
	b := servePSAGE(t, 7)
	// Skew b's request history so any hidden RNG coupling would surface.
	b.ServeEmbed([]int32{1, 2, 3})
	ids := []int32{5, 9}
	ea, eb := a.ServeEmbed(ids), b.ServeEmbed(ids)
	for i := range ids {
		if !rowsEqual(ea, i, eb, i) {
			t.Fatalf("id %d: same-seed models served different embeddings", ids[i])
		}
	}
}
