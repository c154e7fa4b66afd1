package adversary

import (
	"testing"

	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/rng"
)

// fakeView is a minimal RoundView for driving strategies directly.
type fakeView struct {
	round  int
	alive  []proto.ID
	budget int
	infos  map[proto.ID]BallInfo
}

func (v *fakeView) Round() int              { return v.round }
func (v *fakeView) N() int                  { return len(v.alive) }
func (v *fakeView) Alive() []proto.ID       { return v.alive }
func (v *fakeView) Payload(proto.ID) []byte { return nil }
func (v *fakeView) Budget() int             { return v.budget }
func (v *fakeView) Info(id proto.ID) (BallInfo, bool) {
	info, ok := v.infos[id]
	return info, ok
}

func idsUpTo(n int) []proto.ID {
	out := make([]proto.ID, n)
	for i := range out {
		out[i] = proto.ID(10 * (i + 1))
	}
	return out
}

func TestNonePlansNothing(t *testing.T) {
	t.Parallel()
	if specs := (None{}).Plan(&fakeView{round: 1, alive: idsUpTo(4), budget: 3}); specs != nil {
		t.Fatalf("specs = %v", specs)
	}
	if (None{}).Name() != "none" {
		t.Fatal("name")
	}
}

func TestDeliveryHelpers(t *testing.T) {
	t.Parallel()
	if DeliverNone(5) || !DeliverAll(5) {
		t.Fatal("DeliverNone/DeliverAll")
	}
	set := DeliverToSet([]proto.ID{3, 7, 12})
	for id, want := range map[proto.ID]bool{1: false, 3: true, 5: false, 7: true, 12: true, 13: false} {
		if set(id) != want {
			t.Fatalf("DeliverToSet(%v) = %v, want %v", id, !want, want)
		}
	}
}

// TestRandomHalfCoinStream pins the random-half receiver sets of Random
// and DeepTarget to their definition: one coin per recipient other than
// the victim, in ascending order, from the stream derived from (seed ^
// victim, round).
func TestRandomHalfCoinStream(t *testing.T) {
	t.Parallel()
	alive := make([]proto.ID, 300)
	for i := range alive {
		alive[i] = proto.ID(7*i + 5)
	}
	for _, c := range []struct {
		seed   uint64
		victim proto.ID
		round  int
	}{{1, alive[0], 1}, {2, alive[150], 4}, {0xdeeb, alive[299], 9}} {
		coins := rng.Derive(c.seed^uint64(c.victim), uint64(c.round))
		want := make(map[proto.ID]bool)
		for _, id := range alive {
			if id != c.victim && coins.Coin(1, 2) {
				want[id] = true
			}
		}
		got := deliverToRandomHalf(c.seed, c.victim, c.round, alive)
		for id := proto.ID(0); id <= alive[len(alive)-1]+1; id++ {
			if got(id) != want[id] {
				t.Fatalf("seed %d victim %v round %d: delivery to %v = %v, want %v",
					c.seed, c.victim, c.round, id, got(id), want[id])
			}
		}
	}
}

func TestAlternatingByRank(t *testing.T) {
	t.Parallel()
	ordered := idsUpTo(5)
	f := AlternatingByRank(ordered)
	want := map[proto.ID]bool{10: true, 20: false, 30: true, 40: false, 50: true}
	for id, w := range want {
		if f(id) != w {
			t.Fatalf("deliver(%v) = %v, want %v", id, f(id), w)
		}
	}
	if f(999) {
		t.Fatal("unknown id delivered")
	}
}

func TestPrefixByRank(t *testing.T) {
	t.Parallel()
	f := PrefixByRank(idsUpTo(5), 2)
	for i, id := range idsUpTo(5) {
		if got, want := f(id), i < 2; got != want {
			t.Fatalf("deliver(%v) = %v, want %v", id, got, want)
		}
	}
}

func TestSplitterFiresOnceAtConfiguredRound(t *testing.T) {
	t.Parallel()
	s := &Splitter{Round: 2}
	if specs := s.Plan(&fakeView{round: 1, alive: idsUpTo(4), budget: 3}); specs != nil {
		t.Fatalf("fired early: %v", specs)
	}
	specs := s.Plan(&fakeView{round: 2, alive: idsUpTo(4), budget: 3})
	if len(specs) != 1 || specs[0].Victim != 10 {
		t.Fatalf("specs = %+v", specs)
	}
	// Delivery pattern: survivors 20,30,40; ranks 0,2 receive.
	if !specs[0].Deliver(20) || specs[0].Deliver(30) || !specs[0].Deliver(40) {
		t.Fatal("alternating delivery wrong")
	}
	if again := s.Plan(&fakeView{round: 2, alive: idsUpTo(4), budget: 3}); again != nil {
		t.Fatalf("fired twice: %v", again)
	}
}

func TestSplitterRespectsBudget(t *testing.T) {
	t.Parallel()
	s := &Splitter{Round: 1}
	if specs := s.Plan(&fakeView{round: 1, alive: idsUpTo(4), budget: 0}); specs != nil {
		t.Fatalf("ignored budget: %v", specs)
	}
}

func TestAtRoundCountAndPattern(t *testing.T) {
	t.Parallel()
	a := &AtRound{Round: 3, Count: 2, Pattern: func(s []proto.ID) func(proto.ID) bool {
		return PrefixByRank(s, 1)
	}}
	specs := a.Plan(&fakeView{round: 3, alive: idsUpTo(5), budget: 10})
	if len(specs) != 2 {
		t.Fatalf("%d specs", len(specs))
	}
	victims := map[proto.ID]bool{}
	for _, s := range specs {
		victims[s.Victim] = true
		// Survivors are 30,40,50; prefix 1 delivers to 30 only.
		if !s.Deliver(30) || s.Deliver(40) {
			t.Fatal("pattern not applied")
		}
	}
	if !victims[10] || !victims[20] {
		t.Fatalf("victims = %v", victims)
	}
}

func TestAtRoundFromTop(t *testing.T) {
	t.Parallel()
	a := &AtRound{Round: 1, Count: 1, FromTop: true}
	specs := a.Plan(&fakeView{round: 1, alive: idsUpTo(3), budget: 5})
	if len(specs) != 1 || specs[0].Victim != 30 {
		t.Fatalf("specs = %+v", specs)
	}
}

func TestAtRoundKeepsOneAlive(t *testing.T) {
	t.Parallel()
	a := &AtRound{Round: 1, Count: 10}
	specs := a.Plan(&fakeView{round: 1, alive: idsUpTo(3), budget: 10})
	if len(specs) != 2 {
		t.Fatalf("%d specs, want 2 (one survivor)", len(specs))
	}
}

func TestRandomRespectsBudgetAndWindow(t *testing.T) {
	t.Parallel()
	r := NewRandom(3, 2, 42)
	total := 0
	for round := 1; round <= 5; round++ {
		specs := r.Plan(&fakeView{round: round, alive: idsUpTo(10), budget: 9})
		if round > 2 && len(specs) > 0 {
			t.Fatalf("round %d: crashed outside window", round)
		}
		total += len(specs)
	}
	if total != 3 {
		t.Fatalf("planned %d crashes, want 3", total)
	}
}

func TestRandomDeterministicReplay(t *testing.T) {
	t.Parallel()
	run := func() []proto.ID {
		r := NewRandom(4, 3, 9)
		var victims []proto.ID
		for round := 1; round <= 3; round++ {
			for _, s := range r.Plan(&fakeView{round: round, alive: idsUpTo(12), budget: 11}) {
				victims = append(victims, s.Victim)
			}
		}
		return victims
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRankShifterStrikesEvenRounds(t *testing.T) {
	t.Parallel()
	r := &RankShifter{}
	if specs := r.Plan(&fakeView{round: 3, alive: idsUpTo(5), budget: 4}); specs != nil {
		t.Fatalf("fired on odd round: %v", specs)
	}
	specs := r.Plan(&fakeView{round: 4, alive: idsUpTo(5), budget: 4})
	if len(specs) != 1 || specs[0].Victim != 10 {
		t.Fatalf("specs = %+v", specs)
	}
}

func TestRankShifterSparesTinySystems(t *testing.T) {
	t.Parallel()
	r := &RankShifter{}
	if specs := r.Plan(&fakeView{round: 2, alive: idsUpTo(2), budget: 1}); specs != nil {
		t.Fatalf("attacked a 2-process system: %v", specs)
	}
}

func TestDeepTargetOnlyHitsLeafHolders(t *testing.T) {
	t.Parallel()
	d := &DeepTarget{PerRound: 2, Seed: 1}
	view := &fakeView{
		round: 4, alive: idsUpTo(6), budget: 5,
		infos: map[proto.ID]BallInfo{
			10: {Label: 10, AtLeaf: false},
			20: {Label: 20, AtLeaf: true},
			30: {Label: 30, AtLeaf: true},
			40: {Label: 40, AtLeaf: false},
		},
	}
	specs := d.Plan(view)
	if len(specs) != 2 {
		t.Fatalf("%d specs", len(specs))
	}
	for _, s := range specs {
		if s.Victim != 20 && s.Victim != 30 {
			t.Fatalf("victim %v is not at a leaf", s.Victim)
		}
	}
}

func TestOnePerPhasePeriod(t *testing.T) {
	t.Parallel()
	o := &OnePerPhase{}
	if specs := o.Plan(&fakeView{round: 3, alive: idsUpTo(6), budget: 5}); specs != nil {
		t.Fatalf("fired off-period: %v", specs)
	}
	specs := o.Plan(&fakeView{round: 4, alive: idsUpTo(6), budget: 5})
	if len(specs) != 1 || specs[0].Victim != 40 { // median of 6
		t.Fatalf("specs = %+v", specs)
	}
}

func TestRecorderLogs(t *testing.T) {
	t.Parallel()
	rec := &Recorder{Inner: &Splitter{Round: 1}}
	rec.Plan(&fakeView{round: 1, alive: idsUpTo(4), budget: 3})
	if len(rec.Log) != 1 || rec.Log[0].Round != 1 || rec.Log[0].Victim != 10 {
		t.Fatalf("log = %+v", rec.Log)
	}
	if rec.Name() != "splitter+recorded" {
		t.Fatalf("name = %s", rec.Name())
	}
}

func TestFuncAdapter(t *testing.T) {
	t.Parallel()
	called := 0
	f := Func{Label: "probe", Fn: func(RoundView) []CrashSpec { called++; return nil }}
	f.Plan(&fakeView{})
	if called != 1 || f.Name() != "probe" {
		t.Fatal("func adapter")
	}
	empty := Func{Label: "nil"}
	if empty.Plan(&fakeView{}) != nil {
		t.Fatal("nil fn should plan nothing")
	}
}

func TestScriptedCrashesNamedVictimOnce(t *testing.T) {
	t.Parallel()
	s := &Scripted{Round: 3, Victim: 30}
	if specs := s.Plan(&fakeView{round: 2, alive: idsUpTo(4), budget: 3}); specs != nil {
		t.Fatalf("fired early: %v", specs)
	}
	specs := s.Plan(&fakeView{round: 3, alive: idsUpTo(4), budget: 3})
	if len(specs) != 1 || specs[0].Victim != 30 {
		t.Fatalf("specs = %+v", specs)
	}
	// Survivors 10,20,40; alternating delivery reaches ranks 0 and 2.
	if !specs[0].Deliver(10) || specs[0].Deliver(20) || !specs[0].Deliver(40) {
		t.Fatal("alternating delivery wrong")
	}
	if again := s.Plan(&fakeView{round: 3, alive: idsUpTo(4), budget: 3}); again != nil {
		t.Fatalf("fired twice: %v", again)
	}
}

func TestScriptedSkipsDeadVictimAndBudget(t *testing.T) {
	t.Parallel()
	s := &Scripted{Round: 1, Victim: 99}
	if specs := s.Plan(&fakeView{round: 1, alive: idsUpTo(4), budget: 3}); specs != nil {
		t.Fatalf("crashed an absent victim: %v", specs)
	}
	s2 := &Scripted{Round: 1, Victim: 10}
	if specs := s2.Plan(&fakeView{round: 1, alive: idsUpTo(4), budget: 0}); specs != nil {
		t.Fatalf("ignored budget: %v", specs)
	}
}

func TestScriptedEmptyAliveSetIsNoOp(t *testing.T) {
	t.Parallel()
	s := &Scripted{Round: 2, Victim: 10}
	// Every other participant already crashed or halted: Plan must be a
	// clean no-op, not a panic (regression: negative survivor capacity).
	if specs := s.Plan(&fakeView{round: 2, alive: nil, budget: 1}); specs != nil {
		t.Fatalf("specs = %v", specs)
	}
}
