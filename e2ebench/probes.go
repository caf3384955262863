package main

import (
	"bytes"
	"math/rand"

	"gnnmark/internal/core"
	"gnnmark/internal/exec"
	"gnnmark/internal/graph"
	"gnnmark/internal/loader"
	"gnnmark/internal/models"
	"gnnmark/internal/nn"
	"gnnmark/internal/ops"
)

// Probes are direct timed calls into one layer: the cost of a single
// operation the workloads perform too rarely, or too deep inside a library
// call, for a pass to expose it.

// sampleProbe times RandomWalkSampler.Sample at PSAGE's parameters (48
// walks of length 2, top 5) on a seeded bipartite graph.
func sampleProbe(tr *tracer, seed int64) metric {
	const items, users, perUser, seeds = 2000, 1000, 20, 2000
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, users*perUser)
	for u := int32(0); u < users; u++ {
		for j := 0; j < perUser; j++ {
			edges = append(edges, graph.Edge{Src: int32(rng.Intn(items)), Dst: u})
		}
	}
	userItems := graph.FromEdges(users, items, edges)
	s := graph.NewRandomWalkSampler(userItems.Transpose(), userItems, 48, 2, 5)
	id := tr.begin("graph", "RandomWalkSampler.Sample")
	for i := int32(0); i < seeds; i++ {
		s.Sample(rng, i%items)
	}
	d := tr.end(id)
	return hostMetric("graph.sample.us_per_seed", "us", d.Seconds()*1e6/seeds)
}

// checkpointProbe times SaveTraining and LoadTraining of a freshly built
// model's optimizer to a buffer: what elastic recovery, loader-kill and the
// serving freeze pay per checkpoint.
func checkpointProbe(ck *checks, tr *tracer, seed int64, key, dataset string) []metric {
	spec, err := core.Lookup(key)
	if err != nil {
		ck.expect(false, "checkpoint probe: %v", err)
		return nil
	}
	env := models.NewEnv(ops.NewWith(nil, nil), seed)
	defer env.Close()
	cp, ok := spec.Build(env, dataset, 1).(models.Checkpointable)
	if !ok {
		ck.expect(false, "checkpoint probe: %s is not checkpointable", key)
		return nil
	}
	const reps = 10
	var buf bytes.Buffer
	id := tr.begin("nn", "SaveTraining "+key)
	for i := 0; i < reps && err == nil; i++ {
		buf.Reset()
		err = nn.SaveTraining(&buf, cp.Optimizer())
	}
	save := tr.end(id)
	id = tr.begin("nn", "LoadTraining "+key)
	for i := 0; i < reps && err == nil; i++ {
		err = nn.LoadTraining(bytes.NewReader(buf.Bytes()), cp.Optimizer())
	}
	load := tr.end(id)
	ck.expect(err == nil, "checkpoint probe: %v", err)
	if err != nil {
		return nil
	}
	return []metric{
		hostMetric("nn.checkpoint.save_s", "s", save.Seconds()/reps),
		hostMetric("nn.checkpoint.load_s", "s", load.Seconds()/reps),
		countMetric("nn.checkpoint.mb", "MB", float64(buf.Len())/1e6),
	}
}

// barrierProbe times exec.Group.Barrier at world 2, the fleet's world size.
func barrierProbe(ck *checks, tr *tracer) []metric {
	const world, rounds = 2, 20000
	g := exec.NewGroup(world)
	id := tr.begin("exec", "Group.Barrier")
	for r := 0; r < world; r++ {
		g.Go(r, func() error {
			for i := 0; i < rounds; i++ {
				if err := g.Barrier(nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
	err := g.Wait()
	d := tr.end(id)
	ck.expect(err == nil, "barrier probe: %v", err)
	if err != nil {
		return nil
	}
	return []metric{hostMetric("exec.barrier_us", "us", d.Seconds()*1e6/rounds)}
}

// codecProbe times loader.Encode on a 0.9-sparse tensor, the shape of the
// compressed H2D path's input.
func codecProbe(tr *tracer, seed int64) metric {
	const n, reps = 1 << 20, 8
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	for i := range data {
		if rng.Float64() >= 0.9 {
			data[i] = rng.Float32()
		}
	}
	id := tr.begin("loader", "Encode")
	for i := 0; i < reps; i++ {
		loader.Encode(data)
	}
	d := tr.end(id)
	return hostMetric("loader.codec.encode_mb_per_s", "MB/s", float64(4*n*reps)/1e6/d.Seconds())
}
