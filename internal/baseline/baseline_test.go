package baseline

import (
	"math"
	"testing"
	"testing/quick"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/ids"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/sim"
)

func TestPoolSelectFreeEnumerates(t *testing.T) {
	t.Parallel()
	p := NewPool(10)
	for _, taken := range []int{0, 4, 9} {
		p.Take(taken)
	}
	want := []int{1, 2, 3, 5, 6, 7, 8}
	if p.FreeCount() != len(want) {
		t.Fatalf("free = %d", p.FreeCount())
	}
	for k, w := range want {
		if got := p.SelectFree(k); got != w {
			t.Fatalf("SelectFree(%d) = %d, want %d", k, got, w)
		}
	}
}

func TestPoolTakeIdempotent(t *testing.T) {
	t.Parallel()
	p := NewPool(4)
	p.Take(2)
	p.Take(2)
	if p.FreeCount() != 3 {
		t.Fatalf("free = %d, want 3", p.FreeCount())
	}
}

func TestPoolSelectFreeOutOfRangePanics(t *testing.T) {
	t.Parallel()
	p := NewPool(3)
	p.Take(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.SelectFree(2)
}

func TestPoolCloneIndependent(t *testing.T) {
	t.Parallel()
	p := NewPool(8)
	p.Take(3)
	cp := p.Clone()
	cp.Take(5)
	if p.Taken(5) {
		t.Fatal("clone mutation leaked")
	}
	if !cp.Taken(3) || !cp.Taken(5) {
		t.Fatal("clone lost state")
	}
}

// TestPoolMatchesNaiveScan cross-checks Fenwick selection against a linear
// scan on random take-patterns.
func TestPoolMatchesNaiveScan(t *testing.T) {
	t.Parallel()
	prop := func(seed uint64, rawN uint8) bool {
		n := int(rawN%50) + 2
		p := NewPool(n)
		s := seed
		for i := 0; i < n/2; i++ {
			s = s*6364136223846793005 + 1
			p.Take(int(s>>33) % n)
		}
		free := make([]int, 0, n)
		for name := 0; name < n; name++ {
			if !p.Taken(name) {
				free = append(free, name)
			}
		}
		if len(free) != p.FreeCount() {
			return false
		}
		for k, w := range free {
			if p.SelectFree(k) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveFailureFreeSolvesTightRenaming(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 5, 16, 64} {
		labels := ids.Random(n, uint64(n)+3)
		procs, err := NewNaiveBalls(n, 7, labels)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.New(sim.Config{}, procs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Decisions) != n {
			t.Fatalf("n=%d: %d decisions", n, len(res.Decisions))
		}
		if err := proto.Validate(res.Decisions, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestNaiveSurvivesCrashes(t *testing.T) {
	t.Parallel()
	const n = 40
	for seed := uint64(0); seed < 10; seed++ {
		labels := ids.Random(n, seed+30)
		procs, err := NewNaiveBalls(n, seed, labels)
		if err != nil {
			t.Fatal(err)
		}
		adv := adversary.NewRandom(n/2, 8, seed)
		eng, err := sim.New(sim.Config{Adversary: adv}, procs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := proto.Validate(res.Decisions, n); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if len(res.Decisions)+len(res.Crashed) != n {
			t.Fatalf("seed=%d: %d + %d != %d", seed, len(res.Decisions), len(res.Crashed), n)
		}
	}
}

// TestNaiveFastMatchesSim is the baseline's equivalence test: the central
// failure-free simulation must agree with NaiveBall under the reference
// engine round for round and name for name.
func TestNaiveFastMatchesSim(t *testing.T) {
	t.Parallel()
	const n = 48
	for seed := uint64(0); seed < 5; seed++ {
		labels := ids.Random(n, seed+90)
		procs, err := NewNaiveBalls(n, seed, labels)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.New(sim.Config{}, procs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		rounds, names, decRounds, err := RunNaiveFast(n, seed, labels)
		if err != nil {
			t.Fatal(err)
		}
		if rounds != want.Rounds {
			t.Fatalf("seed=%d: fast %d rounds, sim %d", seed, rounds, want.Rounds)
		}
		for i, d := range want.Decisions {
			if decRounds[i] != d.Round || names[i] != d.Name {
				t.Fatalf("seed=%d ball %d: fast (%d, round %d), sim %+v", seed, i, names[i], decRounds[i], d)
			}
		}
	}
}

func TestNaiveRoundsGrowLogarithmically(t *testing.T) {
	t.Parallel()
	// Averaged over seeds, rounds should grow roughly like log2 n: the
	// point of the baseline. Sanity-check the growth direction and a loose
	// magnitude band rather than a tight constant.
	mean := func(n int) float64 {
		total := 0
		const reps = 10
		for seed := uint64(0); seed < reps; seed++ {
			rounds, _, _, err := RunNaiveFast(n, seed, ids.Sequential(n))
			if err != nil {
				t.Fatal(err)
			}
			total += rounds
		}
		return float64(total) / reps
	}
	small, large := mean(1<<6), mean(1<<12)
	if large <= small {
		t.Fatalf("rounds did not grow with n: %f vs %f", small, large)
	}
	if large > 4*math.Log2(1<<12) {
		t.Fatalf("rounds far above logarithmic band: %f", large)
	}
}

func TestParallelChoicePlacesEveryone(t *testing.T) {
	t.Parallel()
	for _, d := range []int{1, 2, 4} {
		res, err := RunParallelChoice(1024, d, 5, 0)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if res.Placed != 1024 || res.MaxLoad != 1 || res.Collisions != 0 {
			t.Fatalf("d=%d: %+v", d, res)
		}
	}
}

// TestParallelChoiceDeterministic pins RunParallelChoice to its seed: a
// ball accepted by several bins must keep the same one on every call, or
// the rounds it costs vary from run to run at a fixed seed.
func TestParallelChoiceDeterministic(t *testing.T) {
	t.Parallel()
	for _, d := range []int{2, 4} {
		for seed := uint64(0); seed < 4; seed++ {
			want, err := RunParallelChoice(256, d, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			for call := 0; call < 20; call++ {
				got, err := RunParallelChoice(256, d, seed, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("d=%d seed %d: call %d gave %+v, first call %+v", d, seed, call, got, want)
				}
			}
		}
	}
}

func TestParallelChoiceMoreChoicesFewerRounds(t *testing.T) {
	t.Parallel()
	avg := func(d int) float64 {
		total := 0
		for seed := uint64(0); seed < 8; seed++ {
			res, err := RunParallelChoice(1<<12, d, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Rounds
		}
		return float64(total) / 8
	}
	if d1, d4 := avg(1), avg(4); d4 >= d1 {
		t.Fatalf("d=4 (%f rounds) not faster than d=1 (%f rounds)", d4, d1)
	}
}

func TestRelaxedOneShotIsNotOneToOne(t *testing.T) {
	t.Parallel()
	res, err := RunRelaxedOneShot(1<<12, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	if res.MaxLoad < 2 || res.Collisions == 0 {
		t.Fatalf("one-shot allocation unexpectedly perfect: %+v", res)
	}
}

func TestSequentialDChoicePowerOfTwoChoices(t *testing.T) {
	t.Parallel()
	const n = 1 << 14
	max1, max2 := 0, 0
	for seed := uint64(0); seed < 5; seed++ {
		r1, err := RunSequentialDChoice(n, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RunSequentialDChoice(n, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		max1 += r1.MaxLoad
		max2 += r2.MaxLoad
	}
	if max2 >= max1 {
		t.Fatalf("two choices (%d) not better than one (%d)", max2, max1)
	}
}

func TestInvalidParameters(t *testing.T) {
	t.Parallel()
	if _, err := RunParallelChoice(0, 1, 1, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := RunRelaxedOneShot(4, 0, 1); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := NewNaiveBall(0, 1, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewNaiveBalls(3, 1, []proto.ID{1}); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, _, _, err := RunNaiveFast(2, 1, []proto.ID{7, 7}); err == nil {
		t.Fatal("duplicate labels accepted")
	}
}
