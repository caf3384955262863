package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandomTreeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, leaves := range []int{1, 2, 5, 20, 64} {
		tr := RandomTree(rng, leaves, 100, 5)
		if err := tr.Validate(); err != nil {
			t.Fatalf("leaves=%d: %v", leaves, err)
		}
		got := tr.Levels()[0] // level 0 holds exactly the leaves
		if len(got) != leaves {
			t.Fatalf("leaves=%d: got %d leaf nodes", leaves, len(got))
		}
		// Binary interior: node count = 2*leaves - 1.
		if tr.NumNodes() != 2*leaves-1 {
			t.Fatalf("leaves=%d: %d nodes, want %d", leaves, tr.NumNodes(), 2*leaves-1)
		}
		for _, lf := range got {
			if tr.Tokens[lf] < 0 || tr.Tokens[lf] >= 100 {
				t.Fatalf("leaf token %d out of vocab", tr.Tokens[lf])
			}
		}
		if tr.Label < 0 || tr.Label >= 5 {
			t.Fatalf("label %d out of range", tr.Label)
		}
	}
}

func TestTreeLevelsSchedulable(t *testing.T) {
	// Property: every node appears in exactly one level, and all children of
	// a node live in strictly earlier levels.
	f := func(seed int64, leavesRaw uint8) bool {
		leaves := int(leavesRaw%30) + 1
		tr := RandomTree(rand.New(rand.NewSource(seed)), leaves, 50, 3)
		levels := tr.Levels()
		levelOf := make([]int, tr.NumNodes())
		seen := make([]bool, tr.NumNodes())
		for li, nodes := range levels {
			for _, v := range nodes {
				if seen[v] {
					return false
				}
				seen[v] = true
				levelOf[v] = li
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		for v := 0; v < tr.NumNodes(); v++ {
			for _, c := range tr.Children[v] {
				if levelOf[c] >= levelOf[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeLevelsLeavesFirst(t *testing.T) {
	tr := RandomTree(rand.New(rand.NewSource(1)), 10, 10, 2)
	levels := tr.Levels()
	for _, v := range levels[0] {
		if len(tr.Children[v]) != 0 {
			t.Fatal("level 0 must contain only leaves")
		}
	}
	// Root is in the last level.
	last := levels[len(levels)-1]
	foundRoot := false
	for _, v := range last {
		if v == 0 {
			foundRoot = true
		}
	}
	if !foundRoot {
		t.Fatal("root must be in the final level")
	}
}

func TestTreeValidateCatchesCorruption(t *testing.T) {
	tr := RandomTree(rand.New(rand.NewSource(2)), 4, 10, 2)
	tr.Parent[1] = 99
	if tr.Validate() == nil {
		t.Fatal("bad parent pointer not detected")
	}
	tr2 := &Tree{Parent: []int32{0}, Children: [][]int32{nil}, Tokens: []int32{0}}
	if tr2.Validate() == nil {
		t.Fatal("non -1 root parent not detected")
	}
}

func TestRandomTreePanicsOnZeroLeaves(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	RandomTree(rand.New(rand.NewSource(1)), 0, 10, 2)
}
