package transport_test

import (
	"fmt"
	"sync"
	"testing"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/core"
	"ballsintoleaves/internal/ids"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/transport"
	"ballsintoleaves/internal/tree"
)

// TestRunAllMatchesEndpointDriving pins RunAll against the manual
// endpoint-per-goroutine loop it replaces: same decisions, same accounting.
func TestRunAllMatchesEndpointDriving(t *testing.T) {
	t.Parallel()
	const n = 16
	labels := ids.Random(n, 4)
	cfg := core.Config{N: n, Seed: 9}
	mk := func(id proto.ID) (transport.Process, error) {
		return core.NewBall(cfg, tree.NewTopology(n), id)
	}
	got, err := transport.RunAll(labels, transport.NetConfig{}, mk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.Validate(got.Decisions, n); err != nil {
		t.Fatal(err)
	}
	if len(got.Decisions) != n {
		t.Fatalf("%d decisions, want %d", len(got.Decisions), n)
	}

	lb, err := transport.NewLoopback(labels, transport.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, id := range labels {
		ep, err := lb.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		ball, err := core.NewBall(cfg, tree.NewTopology(n), id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			transport.Run(ep, ball, 0)
		}()
	}
	wg.Wait()
	want := lb.Summary()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("RunAll summary:\n%+v\nmanual loopback summary:\n%+v", got, want)
	}
}

// TestRunAllWithAdversary checks that RunAll threads the network config
// through: a scripted crash reduces the decision count by one.
func TestRunAllWithAdversary(t *testing.T) {
	t.Parallel()
	const n = 8
	labels := ids.Sequential(n)
	cfg := core.Config{N: n, Seed: 3}
	scripted, err := adversary.NewScripted(3, labels[2])
	if err != nil {
		t.Fatal(err)
	}
	sum, err := transport.RunAll(labels, transport.NetConfig{Adversary: scripted}, func(id proto.ID) (transport.Process, error) {
		return core.NewBall(cfg, tree.NewTopology(n), id)
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Decisions) != n-1 || len(sum.Crashed) != 1 || sum.Crashed[0] != labels[2] {
		t.Fatalf("decisions=%d crashed=%v", len(sum.Decisions), sum.Crashed)
	}
}

// TestRunAllCrashMidRun crashes five balls mid-broadcast in one path round,
// each delivering its final payload to every second process by rank: the
// five must be reported crashed and the rest must decide unique names.
func TestRunAllCrashMidRun(t *testing.T) {
	t.Parallel()
	const n = 16
	cfg := core.Config{N: n, Seed: 3}
	adv := &adversary.AtRound{Round: 2, Count: 5, Pattern: func(s []proto.ID) func(proto.ID) bool {
		return adversary.AlternatingByRank(s)
	}}
	sum, err := transport.RunAll(ids.Sequential(n), transport.NetConfig{Adversary: adv}, func(id proto.ID) (transport.Process, error) {
		return core.NewBall(cfg, tree.NewTopology(n), id)
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Crashed) != 5 {
		t.Fatalf("crashed = %v", sum.Crashed)
	}
	if len(sum.Decisions) != n-5 {
		t.Fatalf("decisions = %d", len(sum.Decisions))
	}
	if err := proto.Validate(sum.Decisions, n); err != nil {
		t.Fatal(err)
	}
}

// infoProbe is a failure-free strategy that records, each round, how many
// live members RoundView.Info answered for.
type infoProbe struct{ answered, asked int }

func (p *infoProbe) Name() string { return "info-probe" }

func (p *infoProbe) Plan(view adversary.RoundView) []adversary.CrashSpec {
	for _, id := range view.Alive() {
		p.asked++
		if _, ok := view.Info(id); ok {
			p.answered++
		}
	}
	return nil
}

// TestRunAllExposesInfo pins where introspection comes from: RunAll detects
// it from processes that implement Info, while a hub driven through bare
// endpoints (the same fabric the TCP coordinator uses) reports false.
func TestRunAllExposesInfo(t *testing.T) {
	t.Parallel()
	const n = 8
	labels := ids.Sequential(n)
	cfg := core.Config{N: n, Seed: 5}
	mk := func(id proto.ID) (transport.Process, error) {
		return core.NewBall(cfg, tree.NewTopology(n), id)
	}
	probe := &infoProbe{}
	if _, err := transport.RunAll(labels, transport.NetConfig{Adversary: probe}, mk, 0); err != nil {
		t.Fatal(err)
	}
	if probe.asked == 0 || probe.answered != probe.asked {
		t.Fatalf("RunAll: Info answered %d of %d queries", probe.answered, probe.asked)
	}

	probe = &infoProbe{}
	lb, err := transport.NewLoopback(labels, transport.NetConfig{Adversary: probe})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, id := range labels {
		ep, err := lb.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		ball, err := mk(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			transport.Run(ep, ball, 0)
		}()
	}
	wg.Wait()
	if probe.asked == 0 || probe.answered != 0 {
		t.Fatalf("bare endpoints: Info answered %d of %d queries", probe.answered, probe.asked)
	}
}

// TestRunAllRejectsBadMembers covers constructor error propagation.
func TestRunAllRejectsBadMembers(t *testing.T) {
	t.Parallel()
	if _, err := transport.RunAll(nil, transport.NetConfig{}, nil, 0); err == nil {
		t.Fatal("empty member set accepted")
	}
	labels := ids.Sequential(2)
	_, err := transport.RunAll(labels, transport.NetConfig{}, func(id proto.ID) (transport.Process, error) {
		return nil, fmt.Errorf("no process for %v", id)
	}, 0)
	if err == nil {
		t.Fatal("mk error not propagated")
	}
}

// TestRunAllRejectsDuplicateIDs checks that a member set naming one process
// twice is refused before any process is built.
func TestRunAllRejectsDuplicateIDs(t *testing.T) {
	t.Parallel()
	built := 0
	mk := func(id proto.ID) (transport.Process, error) {
		built++
		return nil, fmt.Errorf("no process for %v", id)
	}
	if _, err := transport.RunAll([]proto.ID{1, 1}, transport.NetConfig{}, mk, 0); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if built != 0 {
		t.Fatalf("%d processes built for a rejected member set", built)
	}
}

// TestRunAllRejectsEmpty checks that an empty member set is refused.
func TestRunAllRejectsEmpty(t *testing.T) {
	t.Parallel()
	if _, err := transport.RunAll([]proto.ID{}, transport.NetConfig{}, nil, 0); err == nil {
		t.Fatal("empty process set accepted")
	}
}
