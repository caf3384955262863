package bench

import (
	"testing"

	"gnnmark/internal/core"
)

// TestFigFElasticBeatsFailStop pins the study's headline claim at test
// scale: under the identical seeded chaos schedule, elastic recovery
// achieves strictly better goodput than the fail-stop baseline, and a
// healthy fleet sits at goodput 1.0 under both policies.
func TestFigFElasticBeatsFailStop(t *testing.T) {
	if testing.Short() {
		t.Skip("executed churn study is slow")
	}
	res, err := FigF(core.RunConfig{
		Workload: "ARGA", GPUs: 2, Epochs: 2, Seed: 7, SampledWarps: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 1 || len(res.Workloads[0].Levels) < 2 {
		t.Fatalf("unexpected study shape: %+v", res)
	}
	healthy, churn := res.Workloads[0].Levels[0], res.Workloads[0].Levels[1]
	if healthy.Elastic.Goodput != 1 || healthy.FailStop.Goodput != 1 {
		t.Fatalf("healthy fleet goodput not 1.0: %+v", healthy)
	}
	if churn.Elastic.Recoveries < 1 {
		t.Fatalf("churn level injected no effective failure: %+v", churn)
	}
	if churn.Elastic.EpochsCompleted != 2 || churn.FailStop.EpochsCompleted != 2 {
		t.Fatalf("churn run did not finish training: %+v", churn)
	}
	if churn.Elastic.Goodput <= churn.FailStop.Goodput {
		t.Fatalf("elastic goodput %v does not beat fail-stop %v",
			churn.Elastic.Goodput, churn.FailStop.Goodput)
	}
	if len(churn.Elastic.Survivors) >= res.GPUs {
		t.Fatalf("elastic recovery must shrink the fleet: %+v", churn.Elastic)
	}
	if len(churn.FailStop.Survivors) != res.GPUs {
		t.Fatalf("fail-stop must keep the world at full size: %+v", churn.FailStop)
	}
}
