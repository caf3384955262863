package ddp

import (
	"sync"
	"testing"

	"gnnmark/internal/models"
	"gnnmark/internal/tensor"
)

// arenaOwners records which rank's arena handed out each host buffer: at
// every iteration start a rank takes buffers of a few sizes from its engine's
// arena, notes their addresses and gives them back. The recorded pointers
// keep the buffers alive, so an address seen by two ranks is one buffer
// shared by two arenas.
type arenaOwners struct {
	mu    sync.Mutex
	owner map[*float32]int
	clash int
}

func (o *arenaOwners) watch(env *models.Env, rank int) {
	env.OnIteration = func() {
		a := env.E.Arena()
		var taken []*tensor.Tensor
		for _, n := range []int{1, 16, 256, 1024, 4096} {
			taken = append(taken, a.Empty(n), a.Empty(n))
		}
		o.mu.Lock()
		for _, x := range taken {
			p := &x.Data()[0]
			if r, ok := o.owner[p]; ok && r != rank {
				o.clash++
			}
			o.owner[p] = rank
		}
		o.mu.Unlock()
		for _, x := range taken {
			a.Release(x)
		}
	}
}

// TestRanksShareNoArenaBuffer trains two ranks concurrently and checks that
// their engines' arenas never hand out the same buffer, and that taking
// buffers out of an arena moves no bit of training.
func TestRanksShareNoArenaBuffer(t *testing.T) {
	plain, err := Train(clusterFactory("TLSTM", "parallel"), 2, 2, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	o := &arenaOwners{owner: map[*float32]int{}}
	factory := clusterFactory("TLSTM", "parallel")
	probed, err := Train(func(slot, rank, world int) (models.Workload, *models.Env, error) {
		w, env, err := factory(slot, rank, world)
		if err == nil {
			o.watch(env, rank)
		}
		return w, env, err
	}, 2, 2, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if o.clash > 0 || len(o.owner) == 0 {
		t.Fatalf("%d of %d recorded buffers were handed out by both ranks' arenas", o.clash, len(o.owner))
	}
	for i, l := range plain.Losses {
		if l != probed.Losses[i] {
			t.Fatalf("epoch %d loss %v with the arenas probed, %v without", i, probed.Losses[i], l)
		}
	}
}
