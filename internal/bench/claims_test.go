package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gnnmark/internal/core"
)

var update = flag.Bool("update", false, "rewrite the claims tables of EXPERIMENTS.md and README.md from bench.Claims")

// canonical is the configuration EXPERIMENTS.md records: `gnnmark all` with
// its default flags. One suite and one scaling study at it serve the claim
// tests, the verdict column and the document.
var canonical = core.RunConfig{Epochs: 3, Seed: 1, SampledWarps: 4096}

var (
	canonicalSuite = sync.OnceValues(func() (*Suite, error) { return Characterize(canonical) })
	// Cluster training at three world sizes per workload: the most
	// expensive fixture in this package.
	canonicalFig9 = sync.OnceValues(func() ([]ScalingResult, error) { return Fig9(canonical) })
)

func characterizedSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := canonicalSuite()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func evidence(t *testing.T) *Evidence {
	t.Helper()
	scaling, err := canonicalFig9()
	if err != nil {
		t.Fatal(err)
	}
	return &Evidence{Suite: characterizedSuite(t), Scaling: scaling}
}

// runClaims judges the rows of one figure ("" for every row of the record),
// one subtest per row.
func runClaims(t *testing.T, figure string) {
	ev := evidence(t)
	for _, c := range Claims {
		if figure != "" && c.Figure != figure {
			continue
		}
		t.Run(c.Figure+"/"+c.Text, func(t *testing.T) {
			if c.Check == nil || c.Verdict == "" {
				t.Fatal("a row needs a Check and a verdict")
			}
			if measured, err := c.Check(ev); err != nil || measured == "" {
				t.Fatalf("measured %q: %v", measured, err)
			}
		})
	}
}

func TestClaims(t *testing.T) {
	runClaims(t, "")
	if evidence(t).Suite.Find("nope") != nil {
		t.Fatal("Find returns a run for a label the suite does not have")
	}
}

// The names the claim tests had while each carried its own thresholds. They
// stay because the tier-1 floor lists them; each runs its figure's rows.
func TestClaimGEMMSpMMShareBelowDNNLevels(t *testing.T) { runClaims(t, "fig2") }
func TestClaimSTGCNConvDominates(t *testing.T)          { runClaims(t, "fig2") }
func TestClaimDGCNElementWiseHeavy(t *testing.T)        { runClaims(t, "fig2") }
func TestClaimPSAGEDatasetDependence(t *testing.T)      { runClaims(t, "fig2") }
func TestClaimInstructionMixShape(t *testing.T)         { runClaims(t, "fig3") }
func TestClaimGFLOPSOrdering(t *testing.T)              { runClaims(t, "fig4") }
func TestClaimStallShape(t *testing.T)                  { runClaims(t, "fig5") }
func TestClaimCacheHierarchyShape(t *testing.T)         { runClaims(t, "fig6") }
func TestClaimIrregularOpsDiverge(t *testing.T)         { runClaims(t, "fig6") }
func TestClaimTransferSparsity(t *testing.T)            { runClaims(t, "fig7") }
func TestClaimCompressionRatio(t *testing.T)            { runClaims(t, "fig7") }
func TestClaimSparsityTimelinePredictable(t *testing.T) { runClaims(t, "fig8") }
func TestClaimMultiGPUScalingShape(t *testing.T)        { runClaims(t, "fig9") }
func TestClaimExecutedEngineCommShape(t *testing.T)     { runClaims(t, "fig9") }

// TestExperimentsMatchClaims holds the documents' claims tables to what
// bench.Claims measures at the canonical configuration: the text between a
// figure's `<!-- claims:figN -->` markers must be ClaimTable's output, byte
// for byte. EXPERIMENTS.md carries every figure's table, README.md the one
// it shows as an example. -update rewrites the blocks.
func TestExperimentsMatchClaims(t *testing.T) {
	ev := evidence(t)
	for _, name := range []string{"EXPERIMENTS.md", "README.md"} {
		path := filepath.Join("..", "..", name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, done := string(raw), map[string]bool{}
		for _, c := range Claims {
			open, end := "<!-- claims:"+c.Figure+" -->\n", "<!-- /claims:"+c.Figure+" -->"
			i, j := strings.Index(doc, open), strings.Index(doc, end)
			if done[c.Figure] {
				continue
			}
			done[c.Figure] = true
			if i < 0 && name == "README.md" {
				continue // it shows one figure's table, not all of them
			}
			if i < 0 || j < i {
				t.Fatalf("%s has no %q ... %q block", name, strings.TrimSpace(open), end)
			}
			i += len(open)
			table, err := ClaimTable(c.Figure, ev)
			if err != nil {
				t.Fatalf("a failed claim is not recorded: %v", err)
			}
			if doc[i:j] != table && !*update {
				t.Errorf("%s's %s claims differ from bench.Claims at the canonical configuration "+
					"(go test ./internal/bench -run TestExperimentsMatchClaims -update rewrites them)\n--- %s\n%s--- bench.Claims\n%s",
					name, c.Figure, name, doc[i:j], table)
			}
			doc = doc[:i] + table + doc[j:]
		}
		if *update {
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
