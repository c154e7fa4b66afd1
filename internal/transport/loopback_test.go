package transport_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/core"
	"ballsintoleaves/internal/ids"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/sim"
	"ballsintoleaves/internal/transport"
)

// driveLoopback runs one Ball per member over the hub and returns each
// member's local result.
func driveLoopback(t *testing.T, lb *transport.Loopback, balls []*core.Ball) map[proto.ID]transport.RunResult {
	t.Helper()
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		results = make(map[proto.ID]transport.RunResult, len(balls))
	)
	for _, b := range balls {
		ep, err := lb.Endpoint(b.ID())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(b *core.Ball, ep transport.Transport) {
			defer wg.Done()
			res, err := transport.Run(ep, b, 0)
			if err != nil {
				t.Errorf("member %v: %v", b.ID(), err)
			}
			mu.Lock()
			results[b.ID()] = res
			mu.Unlock()
		}(b, ep)
	}
	wg.Wait()
	return results
}

// TestLoopbackMatchesSim asserts that protocol executions over the loopback
// transport are indistinguishable from the reference engine — decisions
// (names and rounds), crash sets, round counts, and message/byte accounting
// — for failure-free runs, scripted mid-broadcast crashes in both the
// membership round and a path round, and a randomized adversary.
func TestLoopbackMatchesSim(t *testing.T) {
	t.Parallel()
	const n = 16
	labels := ids.Random(n, 31)
	cases := []struct {
		name string
		make func() adversary.Strategy
	}{
		{"none", func() adversary.Strategy { return adversary.None{} }},
		{"scripted-join-round", func() adversary.Strategy { return &adversary.Scripted{Round: 1, Victim: labels[3]} }},
		{"scripted-path-round", func() adversary.Strategy { return &adversary.Scripted{Round: 4, Victim: labels[0]} }},
		{"random", func() adversary.Strategy { return adversary.NewRandom(n/4, 7, 5) }},
	}
	for _, tc := range cases {
		for seed := uint64(0); seed < 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := core.Config{N: n, Seed: seed, Strategy: core.RandomPaths, CheckInvariants: true}
				mkBalls := func() []*core.Ball {
					balls, err := core.NewBalls(cfg, labels)
					if err != nil {
						t.Fatal(err)
					}
					return balls
				}

				ref, err := sim.New(sim.Config{Adversary: tc.make()}, core.Processes(mkBalls()))
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Run()
				if err != nil {
					t.Fatal(err)
				}

				lb, err := transport.NewLoopback(labels, transport.NetConfig{Adversary: tc.make()})
				if err != nil {
					t.Fatal(err)
				}
				results := driveLoopback(t, lb, mkBalls())
				got := lb.Summary()

				assertSummaryMatches(t, got, want)
				for _, d := range want.Decisions {
					res := results[d.ID]
					if !res.Decided || res.Name != d.Name || res.DecidedRound != d.Round {
						t.Fatalf("member %v local result %+v, want name %d round %d", d.ID, res, d.Name, d.Round)
					}
				}
				for _, id := range want.Crashed {
					if !results[id].Crashed {
						t.Fatalf("member %v did not observe its own crash: %+v", id, results[id])
					}
				}
			})
		}
	}
}

// assertSummaryMatches compares a transport summary against a reference
// engine result field by field.
func assertSummaryMatches(t *testing.T, got transport.Summary, want sim.Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Fatalf("rounds = %d, want %d", got.Rounds, want.Rounds)
	}
	if !reflect.DeepEqual(got.Decisions, want.Decisions) {
		t.Fatalf("decisions = %+v, want %+v", got.Decisions, want.Decisions)
	}
	if !reflect.DeepEqual(got.Crashed, want.Crashed) {
		t.Fatalf("crashed = %v, want %v", got.Crashed, want.Crashed)
	}
	if got.Messages != want.Messages || got.Bytes != want.Bytes {
		t.Fatalf("traffic = %d msgs / %d bytes, want %d / %d",
			got.Messages, got.Bytes, want.Messages, want.Bytes)
	}
}

func TestLoopbackSingleMember(t *testing.T) {
	t.Parallel()
	labels := []proto.ID{42}
	lb, err := transport.NewLoopback(labels, transport.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	balls, err := core.NewBalls(core.Config{N: 1, Seed: 1, Strategy: core.RandomPaths}, labels)
	if err != nil {
		t.Fatal(err)
	}
	results := driveLoopback(t, lb, balls)
	if res := results[42]; !res.Decided || res.Name != 1 {
		t.Fatalf("result = %+v, want name 1", res)
	}
	sum := lb.Summary()
	if len(sum.Decisions) != 1 || sum.Decisions[0].Name != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestLoopbackEndpointErrors(t *testing.T) {
	t.Parallel()
	lb, err := transport.NewLoopback([]proto.ID{1, 2}, transport.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Endpoint(99); err == nil {
		t.Fatal("non-member endpoint handed out")
	}
	if _, err := lb.Endpoint(1); err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Endpoint(1); err == nil {
		t.Fatal("endpoint handed out twice")
	}
	if _, err := transport.NewLoopback([]proto.ID{1, 1}, transport.NetConfig{}); err == nil {
		t.Fatal("duplicate members accepted")
	}
	if _, err := transport.NewLoopback([]proto.ID{0}, transport.NetConfig{}); err == nil {
		t.Fatal("zero member ID accepted")
	}
	if _, err := transport.NewLoopback(nil, transport.NetConfig{}); err == nil {
		t.Fatal("empty member set accepted")
	}
}

// TestLoopbackCrashedEndpointFallsSilent pins the transport's contract for
// a killed process: after the hub crashes it, Collect reports ErrCrashed
// and further broadcasts are rejected with the same sentinel.
func TestLoopbackCrashedEndpointFallsSilent(t *testing.T) {
	t.Parallel()
	labels := []proto.ID{10, 20, 30}
	lb, err := transport.NewLoopback(labels, transport.NetConfig{
		Adversary: &adversary.Scripted{Round: 1, Victim: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, id := range []proto.ID{10, 30} {
		ep, err := lb.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id proto.ID, ep transport.Transport) {
			defer wg.Done()
			if err := ep.Broadcast(1, []byte{1}); err != nil {
				t.Errorf("%v: %v", id, err)
				return
			}
			if _, err := ep.Collect(1); err != nil {
				t.Errorf("%v: %v", id, err)
				return
			}
			ep.Halt(transport.Halt{Round: 1})
		}(id, ep)
	}
	victim, err := lb.Endpoint(20)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Broadcast(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Collect(1); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("victim collect err = %v, want ErrCrashed", err)
	}
	if err := victim.Broadcast(2, []byte{1}); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("victim broadcast err = %v, want ErrCrashed", err)
	}
	wg.Wait()
	sum := lb.Summary()
	if len(sum.Crashed) != 1 || sum.Crashed[0] != 20 {
		t.Fatalf("crashed = %v", sum.Crashed)
	}
}

// TestLoopbackSharesFailureFreeDeliveries pins how the hub hands out a
// round's deliveries: in a round without a mid-broadcast crash every live
// member's Msgs is the same slice (Round.Msgs is read-only), and in a
// round with one each member gets a list of its own.
func TestLoopbackSharesFailureFreeDeliveries(t *testing.T) {
	t.Parallel()
	labels := []proto.ID{10, 20, 30, 40, 50}
	const rounds = 3
	const crashRound = 2
	lb, err := transport.NewLoopback(labels, transport.NetConfig{
		Adversary: &adversary.Scripted{Round: crashRound, Victim: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	// first[i][r-1] is the address of member i's first delivered message in
	// round r, the identity of the slice's backing array.
	first := make([][rounds]*proto.Message, len(labels))
	var wg sync.WaitGroup
	for i, id := range labels {
		ep, err := lb.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				if err := ep.Broadcast(r, []byte{byte(r), byte(i)}); err != nil {
					if !errors.Is(err, transport.ErrCrashed) {
						t.Errorf("%v: %v", id, err)
					}
					return
				}
				rd, err := ep.Collect(r)
				if err != nil {
					if !errors.Is(err, transport.ErrCrashed) {
						t.Errorf("%v: %v", id, err)
					}
					return
				}
				if len(rd.Msgs) == 0 {
					t.Errorf("%v: round %d: no messages", id, r)
					return
				}
				first[i][r-1] = &rd.Msgs[0]
			}
			ep.Halt(transport.Halt{Round: rounds})
		}()
	}
	wg.Wait()
	for r := 1; r <= rounds; r++ {
		seen := make(map[*proto.Message]bool)
		for i, id := range labels {
			p := first[i][r-1]
			if p == nil {
				if id != 20 || r < crashRound {
					t.Fatalf("round %d: %v delivered nothing", r, id)
				}
				continue
			}
			seen[p] = true
		}
		if r == crashRound && len(seen) != len(labels)-1 {
			t.Errorf("crash round %d: %d distinct delivery lists among %d survivors, want one each",
				r, len(seen), len(labels)-1)
		}
		if r != crashRound && len(seen) != 1 {
			t.Errorf("failure-free round %d: %d distinct delivery lists, want one shared list", r, len(seen))
		}
	}
}
