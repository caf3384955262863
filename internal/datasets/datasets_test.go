package datasets

import (
	"math"
	"math/rand"
	"testing"
)

func TestMovieLensVsNowPlaying(t *testing.T) {
	mvl := MovieLens(rand.New(rand.NewSource(1)))
	nwp := NowPlaying(rand.New(rand.NewSource(1)))

	// The load-bearing contrasts from the paper: NWP features are 10x wider
	// and denser than MVL.
	if nwp.ItemFeatures.Dim(1) != 10*mvl.ItemFeatures.Dim(1) {
		t.Fatalf("NWP feature dim %d, want 10x MVL's %d",
			nwp.ItemFeatures.Dim(1), mvl.ItemFeatures.Dim(1))
	}
	mvlZ := mvl.ItemFeatures.ZeroFraction()
	nwpZ := nwp.ItemFeatures.ZeroFraction()
	if math.Abs(mvlZ-0.22) > 0.05 {
		t.Fatalf("MVL zero fraction %.3f, want ~0.22", mvlZ)
	}
	if math.Abs(nwpZ-0.11) > 0.05 {
		t.Fatalf("NWP zero fraction %.3f, want ~0.11", nwpZ)
	}
	if mvlZ <= nwpZ {
		t.Fatal("MVL must be sparser than NWP")
	}
}

func TestBipartiteStructure(t *testing.T) {
	ds := MovieLens(rand.New(rand.NewSource(2)))
	if err := ds.ItemUsers.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ds.UserItems.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.ItemUsers.NNZ() != ds.UserItems.NNZ() {
		t.Fatal("relations must mirror each other")
	}
	if ds.ItemUsers.Rows != ds.Items || ds.ItemUsers.Cols != ds.Users {
		t.Fatal("relation shape disagrees with the node counts")
	}
	// Popularity skew: the most popular item has far more interactions than
	// the median.
	maxDeg, sum := 0, 0
	for i := 0; i < ds.Items; i++ {
		d := ds.ItemUsers.Degree(i)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / float64(ds.Items)
	if float64(maxDeg) < 2*mean {
		t.Fatalf("no popularity skew: max %d vs mean %.1f", maxDeg, mean)
	}
}

func TestCitationDatasets(t *testing.T) {
	for _, name := range []string{"cora", "citeseer", "pubmed"} {
		ds := NewCitation(rand.New(rand.NewSource(3)), name)
		if err := ds.Adj.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Features.Dim(0) != ds.Adj.Rows || len(ds.Labels) != ds.Adj.Rows {
			t.Fatalf("%s: size mismatch", name)
		}
		z := ds.Features.ZeroFraction()
		if z < 0.85 {
			t.Fatalf("%s: bag-of-words features must be very sparse, got %.3f", name, z)
		}
		for _, l := range ds.Labels {
			if l < 0 || int(l) >= ds.NumClasses {
				t.Fatalf("%s: label %d out of range", name, l)
			}
		}
	}
}

func TestCitationUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewCitation(rand.New(rand.NewSource(1)), "arxiv")
}

func TestMETRLA(t *testing.T) {
	ds := METRLA(rand.New(rand.NewSource(4)))
	if err := ds.Adj.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Series.Dim(1) != ds.Sensors {
		t.Fatal("series width != sensors")
	}
	z := ds.Series.ZeroFraction()
	if math.Abs(z-0.15) > 0.03 {
		t.Fatalf("dropout fraction %.3f, want ~0.15", z)
	}
	// Periodicity: autocorrelation at lag 288 (one day) must beat lag 144.
	steps := ds.Series.Dim(0)
	ac := func(lag int) float64 {
		var s float64
		n := 0
		for t := 0; t+lag < steps; t++ {
			for sI := 0; sI < ds.Sensors; sI += 8 {
				s += float64(ds.Series.At(t, sI)) * float64(ds.Series.At(t+lag, sI))
				n++
			}
		}
		return s / float64(n)
	}
	if ac(288) <= ac(144) {
		t.Fatalf("no daily periodicity: ac(288)=%.4f ac(144)=%.4f", ac(288), ac(144))
	}
}

func TestMoleculeSets(t *testing.T) {
	for _, mk := range []func(*rand.Rand) *MoleculeSet{MolHIV, Proteins} {
		ds := mk(rand.New(rand.NewSource(5)))
		if len(ds.Graphs) != len(ds.Features) || len(ds.Graphs) != len(ds.Labels) {
			t.Fatal("parallel slices disagree")
		}
		for i, g := range ds.Graphs {
			if err := g.Validate(); err != nil {
				t.Fatalf("%s graph %d: %v", ds.Name, i, err)
			}
			if ds.Features[i].Dim(0) != g.Rows || ds.Features[i].Dim(1) != ds.FeatDim {
				t.Fatalf("%s graph %d: feature shape", ds.Name, i)
			}
			// Connectivity: every non-root node has at least one edge.
			for v := 1; v < g.Rows; v++ {
				if g.Degree(v) == 0 {
					t.Fatalf("%s graph %d: isolated node %d", ds.Name, i, v)
				}
			}
			if ds.Labels[i] != 0 && ds.Labels[i] != 1 {
				t.Fatalf("%s: non-binary label", ds.Name)
			}
		}
	}
}

func TestAGENDA(t *testing.T) {
	ds := AGENDA(rand.New(rand.NewSource(6)))
	if len(ds.Examples) == 0 {
		t.Fatal("no examples")
	}
	for i, ex := range ds.Examples {
		if err := ex.Rel.Validate(); err != nil {
			t.Fatalf("example %d: %v", i, err)
		}
		if len(ex.EntityTypes) != ex.Rel.Rows {
			t.Fatalf("example %d: entity count mismatch", i)
		}
		for _, tok := range append(append([]int32{}, ex.Title...), ex.Target...) {
			if tok < 0 || int(tok) >= ds.Vocab {
				t.Fatalf("example %d: token %d out of vocab", i, tok)
			}
		}
		for _, et := range ex.EntityTypes {
			if et < 0 || int(et) >= ds.EntityKinds {
				t.Fatalf("example %d: entity type out of range", i)
			}
		}
		if len(ex.Target) < 10 {
			t.Fatalf("example %d: target too short", i)
		}
	}
}

func TestSST(t *testing.T) {
	ds := SST(rand.New(rand.NewSource(7)))
	if len(ds.Trees) == 0 {
		t.Fatal("no trees")
	}
	for i, tr := range ds.Trees {
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if tr.Label < 0 || tr.Label >= ds.Classes {
			t.Fatalf("tree %d: label out of range", i)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := MovieLens(rand.New(rand.NewSource(42)))
	b := MovieLens(rand.New(rand.NewSource(42)))
	if a.ItemUsers.NNZ() != b.ItemUsers.NNZ() {
		t.Fatal("MovieLens not deterministic")
	}
	for i, v := range a.ItemFeatures.Data() {
		if b.ItemFeatures.Data()[i] != v {
			t.Fatal("features not deterministic")
		}
	}
}
