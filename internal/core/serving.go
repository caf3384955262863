package core

import (
	"bytes"
	"fmt"

	"gnnmark/internal/models"
	"gnnmark/internal/nn"
	"gnnmark/internal/serve"
)

// Freeze snapshots a trained workload's weights for serving, through the
// training-checkpoint bytes a run would leave on disk.
func Freeze(w models.Workload) (*serve.Weights, error) {
	return serve.Freeze(bytes.NewReader(nn.Snapshot(w.Optimizer())))
}

// NewServable builds one forward-serving instance of cfg's workload on fleet
// slot `slot` and loads the frozen weights into it (nil weights keep the
// fresh initialization: the trainer a snapshot is later frozen from). It
// builds synchronous whatever cfg says — serving has no input loader to
// pipeline, and a trainer must match the replicas frozen from it. The
// replica is not rebased. The caller owns its Env; on error it is closed.
func NewServable(cfg RunConfig, slot int, weights *serve.Weights) (models.Servable, *Replica, error) {
	cfg.PipelineDepth = 0
	rep, err := NewReplica(cfg, slot, 0, 1)
	if err != nil {
		return nil, nil, err
	}
	m, ok := rep.W.(models.Servable)
	if !ok {
		err = fmt.Errorf("core: workload %s does not serve embeddings (servable: %v)", rep.Spec.Key, ServableWorkloads())
	} else if weights != nil {
		err = weights.LoadInto(m.Params())
	}
	if err != nil {
		rep.Env.Close()
		return nil, nil, err
	}
	return m, rep, nil
}

// ServingPool is a set of frozen-weight serving replicas, each on its own
// simulated device. Serving[r] runs on Replicas[r]'s Env.
type ServingPool struct {
	Serving  []*serve.Replica
	Replicas []*Replica
}

// NewServingPool builds n serving replicas from one frozen snapshot, replica
// r on fleet slot r mod slots (heterogeneous fleets serve heterogeneously;
// pass 1 for a homogeneous pool). On error everything built so far is closed.
func NewServingPool(cfg RunConfig, n, slots int, weights *serve.Weights) (*ServingPool, error) {
	p := &ServingPool{}
	for r := 0; r < n; r++ {
		m, rep, err := NewServable(cfg, r%slots, weights)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.Serving = append(p.Serving, serve.NewReplica(r, m, rep.Env.SimClock))
		p.Replicas = append(p.Replicas, rep)
	}
	return p, nil
}

// Close stops the replicas' loader workers.
func (p *ServingPool) Close() {
	for _, rep := range p.Replicas {
		rep.Env.Close()
	}
}
