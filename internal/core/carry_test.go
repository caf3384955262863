package core

import (
	"bytes"
	"slices"
	"testing"

	"gnnmark/internal/models"
	"gnnmark/internal/nn"
	"gnnmark/internal/ops"
	"gnnmark/internal/partitioned"
)

// carried restores src's snapshot into dst — a replica of the same workload
// built from another seed — and checks that everything trainable arrived:
// dst's own snapshot is byte-equal to src's, and so is the parameter set the
// workload itself reports. It is the check that fails if a workload ever
// keeps trainable state outside its optimizer.
func carried(t *testing.T, src, dst models.Workload) {
	t.Helper()
	snap := nn.Snapshot(src.Optimizer())
	if bytes.Equal(nn.Snapshot(dst.Optimizer()), snap) {
		t.Fatal("the replicas are identical before the carry: the seeds did not differ")
	}
	if err := nn.Restore(dst.Optimizer(), snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nn.Snapshot(dst.Optimizer()), snap) {
		t.Error("the target's snapshot differs from the source's after the carry")
	}
	if paramsHash(src.Params()) != paramsHash(dst.Params()) {
		t.Error("Params() differ after the carry: trainable state lives outside the optimizer")
	}
}

// TestStateCarriesAcrossReplicas is generated from the registry, so a ninth
// workload is covered by registering it: every spec x dataset, built
// deviceless, trains one epoch (moments and step counters are non-zero) and
// its state is carried into a replica built from a different seed. A
// servable workload is also frozen from the same bytes, and the frozen
// Params() are bit-equal to the trainer's.
func TestStateCarriesAcrossReplicas(t *testing.T) {
	servable := map[string]bool{}
	for _, spec := range Registry() {
		for _, dataset := range spec.Datasets {
			t.Run(spec.Key+"/"+dataset, func(t *testing.T) {
				build := func(seed int64) models.Workload {
					env := models.NewEnv(ops.NewWith(nil, nil), seed)
					t.Cleanup(env.Close)
					return spec.Build(env, dataset, 1)
				}
				src := build(1)
				src.TrainEpoch()
				carried(t, src, build(2))

				if _, ok := src.(models.Servable); !ok {
					return
				}
				servable[spec.Key] = true
				w, err := Freeze(src)
				if err != nil {
					t.Fatal(err)
				}
				frozen := build(3)
				if err := w.LoadInto(frozen.Params()); err != nil {
					t.Fatal(err)
				}
				if paramsHash(src.Params()) != paramsHash(frozen.Params()) {
					t.Error("frozen Params() differ from the trainer's")
				}
			})
		}
	}
	if len(servable) != 2 {
		t.Errorf("servable workloads covered: %v, want 2", servable)
	}
}

// TestPartitionedStateCarries gives the partitioned workloads the same carry
// check without the training step: they need a bound communicator to train,
// and they keep the model's own optimizer.
func TestPartitionedStateCarries(t *testing.T) {
	for _, key := range PartitionedWorkloads() {
		t.Run(key, func(t *testing.T) {
			build := func(seed int64) models.Workload {
				factory, err := PartitionedFactory(RunConfig{Workload: key, Seed: seed, SampledWarps: 64}, nil)
				if err != nil {
					t.Fatal(err)
				}
				w, env, err := factory(0, 2)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(env.Close)
				return w
			}
			carried(t, build(1), build(2))
		})
	}
}

// TestPartitionedWorldOneIsOneDevice is generated from the registry: every
// Partitioned row at its default config, trained on the partitioned plane at
// world 1, ends with the losses and optimizer snapshot of the same row trained
// on one device through NewReplica, bit for bit. With no peer, every
// collective of the partitioned view hands back this rank's own rows, so the
// re-association is the identity.
func TestPartitionedWorldOneIsOneDevice(t *testing.T) {
	const epochs = 2
	for _, key := range PartitionedWorkloads() {
		t.Run(key, func(t *testing.T) {
			cfg := RunConfig{Workload: key, Seed: 3, SampledWarps: 64, Epochs: epochs}
			rep, err := NewReplica(cfg, 0, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Env.Close()
			one, err := rep.Env.Train(rep.W, epochs, nil, func(int, float64, float64) (bool, error) { return false, nil })
			if err != nil {
				t.Fatal(err)
			}
			factory, err := PartitionedFactory(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := partitioned.Train(factory, 1, epochs, partitioned.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Losses, one.Losses) {
				t.Errorf("losses: partitioned %v, one device %v", res.Losses, one.Losses)
			}
			if !bytes.Equal(nn.Snapshot(res.Workers[0].Optimizer()), nn.Snapshot(rep.W.Optimizer())) {
				t.Error("the optimizer snapshots differ")
			}
		})
	}
}
