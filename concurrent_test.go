package ballsintoleaves

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ballsintoleaves/internal/ids"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/transport"
)

// randomIDs returns n distinct non-zero process identifiers.
func randomIDs(n int, seed uint64) []uint64 {
	out := make([]uint64, n)
	for i, id := range ids.Random(n, seed) {
		out[i] = uint64(id)
	}
	return out
}

// TestConcurrentEngineMatchesReference asserts that the goroutine-per-process
// engine reproduces the single-threaded reference engine exactly — the whole
// public Result: names, decision rounds, rounds, crash order, message and
// byte counts — under a spread of adversaries. The rank-shifter and
// deep-target strategies read RoundView.Info, so they also pin the in-process
// introspection hook to sim's view. Together with core's cohort equivalence
// test this closes the triangle sim ≡ loopback ≡ cohort.
func TestConcurrentEngineMatchesReference(t *testing.T) {
	t.Parallel()
	const n = 32
	plans := []struct {
		name string
		plan CrashPlan
	}{
		{"none", NoCrashes()},
		{"splitter", SplitterCrash(2)},
		{"random", RandomCrashes(n/3, 9, 4)},
		{"rank-shifter", RankShifterCrashes()},
		{"deep-target", DeepTargetCrashes(1, 8)},
	}
	algos := []struct {
		name string
		algo Algorithm
	}{
		{"random", BallsIntoLeaves},
		{"hybrid", EarlyTerminating},
	}
	for _, a := range algos {
		for _, tc := range plans {
			for seed := uint64(0); seed < 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", a.name, tc.name, seed), func(t *testing.T) {
					t.Parallel()
					run := func(eng Engine) *Result {
						res, err := Rename(n, WithEngine(eng), WithAlgorithm(a.algo), WithSeed(seed),
							WithIDs(randomIDs(n, seed+60)), WithCrashes(tc.plan), WithInvariantChecks())
						if err != nil {
							t.Fatalf("%v: %v", eng, err)
						}
						return res
					}
					want, got := run(ReferenceEngine), run(ConcurrentEngine)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("concurrent:\n%+v\nreference:\n%+v", got, want)
					}
					checkTight(t, got, n-len(got.Crashed))
				})
			}
		}
	}
}

func TestConcurrentEngineFailureFree(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 7, 16, 64} {
		res, err := Rename(n, WithEngine(ConcurrentEngine), WithSeed(uint64(n)), WithIDs(randomIDs(n, uint64(n)+7)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkTight(t, res, n)
	}
}

// stallProc never halts, for the abort path.
type stallProc struct{}

func (stallProc) Send(int) []byte              { return []byte{1} }
func (stallProc) Deliver(int, []proto.Message) {}
func (stallProc) Decided() (int, bool)         { return 0, false }
func (stallProc) Done() bool                   { return false }

// TestConcurrentEngineMaxRoundsAbortsCleanly drives stalling processes over
// the engine's substrate: the cap must surface as an error after exactly
// that many rounds, with every process goroutine gone. Not parallel, so the
// goroutine count is this test's alone.
func TestConcurrentEngineMaxRoundsAbortsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	sum, err := transport.RunAll([]proto.ID{1, 2}, transport.NetConfig{}, func(proto.ID) (transport.Process, error) {
		return stallProc{}, nil
	}, 4)
	if err == nil {
		t.Fatal("expected max-rounds error")
	}
	if sum.Rounds != 4 {
		t.Fatalf("rounds = %d", sum.Rounds)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}

	// The public engine reports the overrun too.
	if _, err := Rename(32, WithEngine(ConcurrentEngine), WithMaxRounds(2)); err == nil {
		t.Fatal("Rename ignored WithMaxRounds")
	}
}
