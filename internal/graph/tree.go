package graph

import (
	"fmt"
	"math/rand"
)

// Tree is a rooted tree for Tree-LSTM workloads: node 0 is the root, every
// other node has exactly one parent, and leaves carry token ids.
type Tree struct {
	// Parent[i] is node i's parent; Parent[0] == -1.
	Parent []int32
	// Children[i] lists node i's children in ascending order.
	Children [][]int32
	// Tokens[i] is the input token at node i (leaves) or -1 (internal).
	Tokens []int32
	// Label is the tree-level class (sentiment), if any.
	Label int
}

// NumNodes returns the node count.
func (t *Tree) NumNodes() int { return len(t.Parent) }

// Levels partitions nodes into bottom-up schedulable levels: level 0 holds
// the leaves, level k the nodes whose children all lie in levels < k. A
// Tree-LSTM processes one level per step; the number of levels is the number
// of dependent kernel waves (the paper's launch-bound pathology).
func (t *Tree) Levels() [][]int32 {
	depth := make([]int, t.NumNodes())
	var levels [][]int32
	// Children always have larger indices than parents in our builder, so a
	// reverse index sweep computes depths bottom-up; fall back to a fixpoint
	// loop for arbitrary orderings.
	for changed := true; changed; {
		changed = false
		for i := t.NumNodes() - 1; i >= 0; i-- {
			d := 0
			for _, c := range t.Children[i] {
				if depth[c]+1 > d {
					d = depth[c] + 1
				}
			}
			if depth[i] != d {
				depth[i] = d
				changed = true
			}
		}
	}
	for i, d := range depth {
		for len(levels) <= d {
			levels = append(levels, nil)
		}
		levels[d] = append(levels[d], int32(i))
	}
	return levels
}

// Validate checks the parent/children cross-consistency and acyclicity.
func (t *Tree) Validate() error {
	n := t.NumNodes()
	if n == 0 {
		return fmt.Errorf("graph: empty tree")
	}
	if t.Parent[0] != -1 {
		return fmt.Errorf("graph: root parent = %d, want -1", t.Parent[0])
	}
	if len(t.Children) != n || len(t.Tokens) != n {
		return fmt.Errorf("graph: tree slice lengths disagree")
	}
	seen := 0
	for i, ch := range t.Children {
		for _, c := range ch {
			if c <= 0 || int(c) >= n {
				return fmt.Errorf("graph: child %d of node %d out of range", c, i)
			}
			if t.Parent[c] != int32(i) {
				return fmt.Errorf("graph: child %d's parent is %d, want %d", c, t.Parent[c], i)
			}
			seen++
		}
	}
	if seen != n-1 {
		return fmt.Errorf("graph: tree has %d child links, want %d", seen, n-1)
	}
	return nil
}

// RandomTree generates a random binary-ish parse tree with the given number
// of leaves; interior nodes are created by repeatedly merging adjacent
// spans, mimicking constituency-parse shapes. Leaf tokens are drawn from
// [0, vocab); the label from [0, classes).
func RandomTree(rng *rand.Rand, leaves, vocab, classes int) *Tree {
	if leaves < 1 {
		panic("graph: RandomTree requires at least one leaf")
	}
	// Build top-down: maintain a frontier of spans to split.
	type span struct{ node, size int32 }
	parent := []int32{-1}
	children := [][]int32{nil}
	stack := []span{{0, int32(leaves)}}
	var leafNodes []int32
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.size == 1 {
			leafNodes = append(leafNodes, s.node)
			continue
		}
		cut := int32(1)
		if s.size > 2 {
			cut = 1 + int32(rng.Intn(int(s.size-1)))
		}
		l := int32(len(parent))
		parent = append(parent, s.node, s.node)
		children = append(children, nil, nil)
		children[s.node] = []int32{l, l + 1}
		stack = append(stack, span{l, cut}, span{l + 1, s.size - cut})
	}
	tokens := make([]int32, len(parent))
	for i := range tokens {
		tokens[i] = -1
	}
	for _, lf := range leafNodes {
		tokens[lf] = int32(rng.Intn(vocab))
	}
	label := 0
	if classes > 0 {
		label = rng.Intn(classes)
	}
	return &Tree{Parent: parent, Children: children, Tokens: tokens, Label: label}
}
