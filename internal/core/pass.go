package core

import (
	"fmt"

	"ballsintoleaves/internal/tree"
)

// applyPaths executes lines 12–21 of Algorithm 1 on a view: iterate over a
// snapshot of the present balls in <R priority order; a ball whose
// candidate path was received moves down its path while capacity remains,
// and a ball that announced nothing (it crashed, or already halted) is
// removed at its turn — freeing its capacity for the lower-priority balls
// processed after it, exactly as the paper's crash analysis (§5.3) relies
// on.
//
// order is the snapshot to walk. Ball passes the view's full
// orderedPresent; the cohort passes one order shared by every group view
// of a round, which may list balls absent from v (they carry no path, and
// removing an absent ball is a no-op) and may end early (a ball's walk
// depends only on the balls before it, so a prefix fixes the positions of
// every ball in it).
//
// has[idx] marks the balls whose path was received; paths[idx] holds the
// path. Both are indexed by dense ball index and must cover the view's
// universe.
func applyPaths(cfg Config, v *View, order []int32, has []bool, paths []Path) {
	for _, idx := range order {
		if !has[idx] {
			v.Remove(int(idx))
			continue
		}
		moveAlongPath(cfg, v, int(idx), paths[idx])
	}
}

// moveAlongPath walks one ball down its candidate path (lines 14–18): from
// its current node, step towards the path's target leaf as long as the next
// subtree has remaining capacity, then park. The walk, capacity checks, and
// occupancy update are fused into a single descent (Occupancy.DescendAdd):
// lifting the ball out and re-parking it at a descendant cancels on every
// node from the start to the root, so no parent-chain walk happens at all.
//
// Stopping at the last node with available capacity preserves Lemma 1:
// every prefix subtree the ball enters had capacity at entry time, and
// priority order guarantees balls already placed below cannot be displaced.
func moveAlongPath(cfg Config, v *View, idx int, p Path) {
	topo := v.topo
	cur := v.node[idx]
	if cur != p.Start {
		// Under Proposition 1 a correct sender's path always starts at its
		// position in every view that still contains it; a mismatch means
		// a corrupted payload or a protocol bug. Be conservative: leave
		// the ball in place (it will be corrected or removed by the
		// position round).
		if cfg.CheckInvariants {
			panic(fmt.Sprintf("core: path of ball %d starts at node %d but view has it at %d",
				idx, p.Start, cur))
		}
		return
	}
	leaf := int(p.Leaf)
	if !topo.Contains(cur, leaf) {
		if cfg.CheckInvariants {
			panic(fmt.Sprintf("core: ball %d path targets leaf %d outside its subtree", idx, leaf))
		}
		return
	}
	v.node[idx] = v.occ.DescendAdd(cur, leaf, p.Limit)
}

// applyPositions executes lines 22–28: overwrite each present ball's
// position with its announced one (the sender's own computation is
// authoritative), removing balls that announced nothing. Order does not
// affect the outcome here — there are no capacity checks — but the same
// snapshot iteration keeps the structure identical to the paper.
//
// has[idx] marks balls whose position was received; pos[idx] holds it.
func applyPositions(cfg Config, v *View, has []bool, pos []tree.Node) {
	order := v.orderedPresent(cfg.LabelPriority)
	for _, idx := range order {
		if !has[idx] {
			v.Remove(int(idx))
			continue
		}
		if v.node[idx] != pos[idx] {
			v.SetNode(int(idx), pos[idx])
		}
	}
}
