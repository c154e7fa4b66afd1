package baseline

import (
	"fmt"

	"ballsintoleaves/internal/rng"
)

// PlacementResult summarizes one parallel load-balancing run.
type PlacementResult struct {
	// Rounds is the number of communication rounds used.
	Rounds int
	// MaxLoad is the largest number of balls assigned to one bin.
	MaxLoad int
	// Collisions counts balls sharing a bin with at least one other ball
	// (zero iff the allocation is one-to-one).
	Collisions int
	// Placed counts balls that obtained a bin.
	Placed int
}

// RunParallelChoice simulates the capacity-one parallel d-choice protocol
// (the [1]/[17] family adapted to exclusive bins): in each round every
// unplaced ball probes d uniformly random bins; each still-free bin accepts
// the lowest-labelled ball probing it; a ball accepted by several bins
// takes the lowest of them; losers retry. The allocation is one-to-one by
// construction, and the experiment measures how many rounds that
// exclusivity costs (Θ(log n / log d + log log n)-ish for d ≥ 2,
// Θ(log n) for d = 1 — compare experiment E2's naive renaming, which is the
// message-passing rendering of d = 1).
//
// maxRounds caps the run; an error is returned if balls remain unplaced.
func RunParallelChoice(n, d int, seed uint64, maxRounds int) (PlacementResult, error) {
	if n < 1 || d < 1 {
		return PlacementResult{}, fmt.Errorf("baseline: invalid n=%d d=%d", n, d)
	}
	if maxRounds <= 0 {
		maxRounds = 10*n + 64
	}
	src := rng.Derive(seed, 0x2c01ce)
	owner := make([]int, n) // bin -> ball, -1 free
	for i := range owner {
		owner[i] = -1
	}
	unplaced := make([]int, n)
	for i := range unplaced {
		unplaced[i] = i
	}
	res := PlacementResult{}
	claim := make([]int, n) // bin -> lowest prober this round, -1 none
	best := make([]int, n)  // ball -> lowest bin it won this round, -1 none
	for i := range claim {
		claim[i], best[i] = -1, -1
	}
	var claimed []int // bins claimed this round
	for len(unplaced) > 0 {
		if res.Rounds >= maxRounds {
			return res, fmt.Errorf("baseline: %d balls unplaced after %d rounds", len(unplaced), res.Rounds)
		}
		res.Rounds++
		claimed = claimed[:0]
		for _, ball := range unplaced {
			for probe := 0; probe < d; probe++ {
				bin := src.Intn(n)
				if owner[bin] != -1 {
					continue
				}
				switch prev := claim[bin]; {
				case prev == -1:
					claim[bin] = ball
					claimed = append(claimed, bin)
				case ball < prev:
					claim[bin] = ball
				}
			}
		}
		// A ball may win several bins; it keeps the lowest.
		for _, bin := range claimed {
			ball := claim[bin]
			if b := best[ball]; b == -1 || bin < b {
				best[ball] = bin
			}
			claim[bin] = -1
		}
		next := unplaced[:0]
		for _, ball := range unplaced {
			if bin := best[ball]; bin != -1 {
				owner[bin] = ball
				best[ball] = -1
				res.Placed++
			} else {
				next = append(next, ball)
			}
		}
		unplaced = next
	}
	res.MaxLoad = 1
	return res, nil
}

// RunRelaxedOneShot simulates the relaxed d-choice allocation the paper's
// related-work section rules out for renaming: every ball independently
// probes d bins and commits to the least-loaded (load snapshot taken before
// the round, ties to the lower bin index), all in one communication round.
// The allocation is fast but not one-to-one; the returned MaxLoad and
// Collisions quantify exactly why such load balancers cannot be used for
// tight renaming (experiment E9).
func RunRelaxedOneShot(n, d int, seed uint64) (PlacementResult, error) {
	if n < 1 || d < 1 {
		return PlacementResult{}, fmt.Errorf("baseline: invalid n=%d d=%d", n, d)
	}
	src := rng.Derive(seed, 0x2c02ce)
	load := make([]int, n)
	for ball := 0; ball < n; ball++ {
		// In the parallel one-shot setting the load snapshot is all-zero,
		// so probes carry no information and the ball commits to its first
		// probe; d only matters across multiple rounds. This is the
		// honest rendering of "one round of parallel d-choice".
		best := src.Intn(n)
		for probe := 1; probe < d; probe++ {
			_ = src.Intn(n) // remaining probes are sent but uninformative
		}
		load[best]++
	}
	res := PlacementResult{Rounds: 1, Placed: n}
	for _, l := range load {
		if l > res.MaxLoad {
			res.MaxLoad = l
		}
		if l > 1 {
			res.Collisions += l
		}
	}
	return res, nil
}

// RunSequentialDChoice simulates the classical sequential greedy d-choice
// process (Mitzenmacher [18]): balls arrive one at a time and join the
// least-loaded of d sampled bins. Max load is Θ(log n / log log n) for
// d = 1 and log log n / log d + O(1) for d ≥ 2 — the "power of two
// choices". Included as the textbook reference point for E9; it needs a
// coordinator and offers no fault story, which is precisely why it does not
// solve the paper's problem.
func RunSequentialDChoice(n, d int, seed uint64) (PlacementResult, error) {
	if n < 1 || d < 1 {
		return PlacementResult{}, fmt.Errorf("baseline: invalid n=%d d=%d", n, d)
	}
	src := rng.Derive(seed, 0x2c03ce)
	load := make([]int, n)
	for ball := 0; ball < n; ball++ {
		best := src.Intn(n)
		for probe := 1; probe < d; probe++ {
			bin := src.Intn(n)
			if load[bin] < load[best] {
				best = bin
			}
		}
		load[best]++
	}
	res := PlacementResult{Rounds: n, Placed: n}
	for _, l := range load {
		if l > res.MaxLoad {
			res.MaxLoad = l
		}
		if l > 1 {
			res.Collisions += l
		}
	}
	return res, nil
}
