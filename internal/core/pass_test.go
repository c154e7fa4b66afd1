package core

import (
	"testing"

	"ballsintoleaves/internal/tree"
)

// mkPass builds the has/paths arrays for a pass over the given view.
func mkPass(v *View) ([]bool, []Path) {
	return make([]bool, v.Universe()), make([]Path, v.Universe())
}

func TestMoveAlongPathDescendsToLeaf(t *testing.T) {
	t.Parallel()
	topo := tree.NewTopology(8)
	v := NewView(topo, labelsN(1))
	cfg := Config{N: 8}.normalized()
	moveAlongPath(cfg, v, 0, Path{Start: topo.Root(), Leaf: 5})
	if v.Node(0) != topo.Leaf(5) {
		t.Fatalf("ball at %d, want leaf 5", v.Node(0))
	}
}

func TestMoveAlongPathStopsAtFullSubtree(t *testing.T) {
	t.Parallel()
	topo := tree.NewTopology(4)
	v := NewView(topo, labelsN(2))
	cfg := Config{N: 4}.normalized()
	// Ball 0 occupies leaf 0; ball 1 aims at leaf 0 too. Its walk must
	// stop at the deepest node with capacity towards leaf 0: the subtree
	// {leaf0, leaf1} still has capacity (leaf1 free), so it enters it and
	// stops at the parent of leaf 0... the parent's other child is free,
	// so the ball parks at the parent node.
	v.SetNode(0, topo.Leaf(0))
	moveAlongPath(cfg, v, 1, Path{Start: topo.Root(), Leaf: 0})
	parent := topo.Parent(topo.Leaf(0))
	if v.Node(1) != parent {
		t.Fatalf("ball stopped at %d, want parent node %d", v.Node(1), parent)
	}
	if err := v.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveAlongPathRespectsLimit(t *testing.T) {
	t.Parallel()
	topo := tree.NewTopology(8)
	v := NewView(topo, labelsN(1))
	cfg := Config{N: 8}.normalized()
	moveAlongPath(cfg, v, 0, Path{Start: topo.Root(), Leaf: 7, Limit: 1})
	if got := topo.Depth(v.Node(0)); got != 1 {
		t.Fatalf("depth = %d, want 1", got)
	}
	// Continuing with limit 2 descends two more levels.
	moveAlongPath(cfg, v, 0, Path{Start: v.Node(0), Leaf: 7, Limit: 2})
	if got := topo.Depth(v.Node(0)); got != 3 {
		t.Fatalf("depth = %d, want 3", got)
	}
}

func TestMoveAlongPathMismatchedStartIgnored(t *testing.T) {
	t.Parallel()
	topo := tree.NewTopology(4)
	v := NewView(topo, labelsN(1))
	cfg := Config{N: 4}.normalized() // CheckInvariants off: tolerate
	moveAlongPath(cfg, v, 0, Path{Start: topo.Leaf(0), Leaf: 0})
	if v.Node(0) != topo.Root() {
		t.Fatal("ball moved despite start mismatch")
	}
}

func TestMoveAlongPathMismatchPanicsWithInvariants(t *testing.T) {
	t.Parallel()
	topo := tree.NewTopology(4)
	v := NewView(topo, labelsN(1))
	cfg := Config{N: 4, CheckInvariants: true}.normalized()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	moveAlongPath(cfg, v, 0, Path{Start: topo.Leaf(0), Leaf: 0})
}

func TestApplyPathsPriorityOrder(t *testing.T) {
	t.Parallel()
	// Two balls race for leaf 0; the lower label wins, the loser parks at
	// the parent. A third ball deeper in the tree moves first (depth
	// priority) even though its label is the largest.
	topo := tree.NewTopology(4)
	v := NewView(topo, labelsN(3))
	cfg := Config{N: 4}.normalized()
	leaf0parent := topo.Parent(topo.Leaf(0))
	v.SetNode(2, leaf0parent) // deepest ball, biggest label
	has, paths := mkPass(v)
	for i := 0; i < 3; i++ {
		has[i] = true
	}
	paths[0] = Path{Start: topo.Root(), Leaf: 0}
	paths[1] = Path{Start: topo.Root(), Leaf: 0}
	paths[2] = Path{Start: leaf0parent, Leaf: 0}
	applyPaths(cfg, v, v.orderedPresent(cfg.LabelPriority), has, paths)
	// Ball 2 moved first (deeper): takes leaf 0. Ball 0 next: subtree
	// {0,1} has capacity 1 left -> enters, leaf 0 full -> parks at parent
	// ... but wait: it walks towards leaf 0 and stops at the parent. Then
	// ball 1: parent subtree now holds 2 balls (capacity 2) -> full; stops
	// at root.
	if v.Node(2) != topo.Leaf(0) {
		t.Fatalf("deep ball at %d", v.Node(2))
	}
	if v.Node(0) != leaf0parent {
		t.Fatalf("ball 0 at %d, want %d", v.Node(0), leaf0parent)
	}
	if v.Node(1) != topo.Root() {
		t.Fatalf("ball 1 at %d, want root", v.Node(1))
	}
	if err := v.Occupancy().CheckCapacityInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyPathsRemovesSilent(t *testing.T) {
	t.Parallel()
	topo := tree.NewTopology(4)
	v := NewView(topo, labelsN(3))
	cfg := Config{N: 4}.normalized()
	has, paths := mkPass(v)
	has[0], has[2] = true, true
	paths[0] = Path{Start: topo.Root(), Leaf: 1}
	paths[2] = Path{Start: topo.Root(), Leaf: 1}
	applyPaths(cfg, v, v.orderedPresent(cfg.LabelPriority), has, paths)
	if v.Present(1) {
		t.Fatal("silent ball not removed")
	}
	if v.Size() != 2 {
		t.Fatalf("size = %d", v.Size())
	}
}

// TestApplyPathsCrashFreesCapacityInOrder reproduces the §5.3 argument: a
// removed (crashed) ball frees capacity for balls processed after it in <R
// order.
func TestApplyPathsCrashFreesCapacityInOrder(t *testing.T) {
	t.Parallel()
	topo := tree.NewTopology(2)
	v := NewView(topo, labelsN(3))
	// Three known balls over two leaves (ball 2 is doomed: it was heard
	// at init but crashed before sending a path). Balls 0 and 1 both aim
	// at leaf 0.
	cfg := Config{N: 2}.normalized()
	has, paths := mkPass(v)
	has[0], has[1] = true, true
	paths[0] = Path{Start: topo.Root(), Leaf: 0}
	paths[1] = Path{Start: topo.Root(), Leaf: 0}
	applyPaths(cfg, v, v.orderedPresent(cfg.LabelPriority), has, paths)
	// Ball 0 wins leaf 0; ball 1 walks: leaf 0 full -> stays at root?
	// No: it never leaves the root because the only step towards leaf 0
	// is full. Ball 2's removal freed one unit at the root level, so the
	// capacity invariant holds with ball 1 at the root.
	if v.Node(0) != topo.Leaf(0) {
		t.Fatalf("ball 0 at %d", v.Node(0))
	}
	if v.Node(1) != topo.Root() {
		t.Fatalf("ball 1 at %d", v.Node(1))
	}
	if err := v.Occupancy().CheckCapacityInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyPositionsSyncAndRemove(t *testing.T) {
	t.Parallel()
	topo := tree.NewTopology(4)
	v := NewView(topo, labelsN(3))
	cfg := Config{N: 4}.normalized()
	has := make([]bool, 3)
	pos := make([]tree.Node, 3)
	has[0], has[2] = true, true
	pos[0] = topo.Leaf(3)
	pos[2] = topo.Leaf(0)
	applyPositions(cfg, v, has, pos)
	if v.Node(0) != topo.Leaf(3) || v.Node(2) != topo.Leaf(0) {
		t.Fatal("positions not applied")
	}
	if v.Present(1) {
		t.Fatal("silent ball kept")
	}
	if err := v.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
