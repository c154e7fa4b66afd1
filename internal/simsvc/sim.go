// Package simsvc is a deterministic cluster simulator for the name service:
// it drives the real namesvc.Service core under virtual time, with simulated
// clients and shard epoch loops scheduled by a discrete-event heap instead
// of goroutines and sockets. Every run is a pure function of (scenario,
// seed): randomness comes from a PartitionedRNG keyed by (scenario,
// subsystem, entity), virtual time replaces the wall clock, and event ties
// break deterministically — so two runs of the same scenario produce
// byte-identical metrics artifacts, and a recorded trace replays through a
// real server over TCP onto the same per-shard digests (trace.go). The
// simulator is the cheap oracle; the differential harness is what makes its
// scenarios trustworthy regression tests for the whole service stack.
package simsvc

import (
	"fmt"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/rng"
	"ballsintoleaves/internal/stats"
)

// ClientState is a simulated client's lifecycle position.
type ClientState uint8

const (
	// StateIdle means no outstanding request and no held name.
	StateIdle ClientState = iota
	// StateWaiting means an acquire is queued, not yet granted.
	StateWaiting
	// StateHolding means the client holds a name.
	StateHolding
)

// Client is one simulated client: an identity, its deterministic shard, and
// its lifecycle state. Scenarios drive clients through acquire → hold →
// release → think cycles via the behavior hooks.
type Client struct {
	Idx   int    // 0-based population index (the RNG entity key)
	ID    uint64 // service identity (non-zero)
	Shard int
	State ClientState
	Name  int // held global name when StateHolding

	reqID    uint64 // outstanding request when StateWaiting
	gen      uint64 // request generation; bumped by crashes to absorb stale grants
	issuedAt int64
	crashed  bool
}

// Sim is one scenario execution in progress. Scenarios' hooks receive it to
// draw randomness (Stream), read the virtual clock (Now), and schedule
// extra events (At/After); everything else is driven by Run.
type Sim struct {
	scn  Scenario
	seed uint64
	svc  *namesvc.Service
	eng  Engine
	rnd  *PartitionedRNG

	clients []*Client
	trace   *Trace // nil unless the scenario is wire-replayable

	holders    map[int]uint64 // global name -> holder, duplicate detection
	latency    stats.Histogram
	epochSizes stats.Histogram
	acquires   uint64
	grants     uint64
	releases   uint64
	cancels    uint64
	crashes    uint64
	duplicates uint64
	epochErrs  []string
}

// NewSim builds a simulator for one (scenario, seed) pair.
func NewSim(scn Scenario, seed uint64) (*Sim, error) {
	if err := scn.validate(); err != nil {
		return nil, err
	}
	svc, err := namesvc.New(namesvc.Config{
		Shards:   scn.Shards,
		ShardCap: scn.ShardCap,
		MaxBatch: scn.MaxBatch,
		Journal:  true,
	})
	if err != nil {
		return nil, err
	}
	s := &Sim{
		scn:     scn,
		seed:    seed,
		svc:     svc,
		rnd:     NewPartitionedRNG(seed),
		holders: make(map[int]uint64),
	}
	if scn.WireReplayable {
		s.trace = &Trace{
			Scenario: scn.Name,
			Seed:     seed,
			Shards:   scn.Shards,
			ShardCap: scn.ShardCap,
			MaxBatch: scn.MaxBatch,
		}
	}
	return s, nil
}

// Now returns the current virtual time in nanoseconds.
func (s *Sim) Now() int64 { return s.eng.Now() }

// At schedules fn at virtual time t (for scenario Events hooks).
func (s *Sim) At(t int64, fn func()) { s.eng.At(t, fn) }

// After schedules fn d virtual nanoseconds from now.
func (s *Sim) After(d int64, fn func()) { s.eng.After(d, fn) }

// Stream returns the scenario's RNG stream for (subsystem, entity).
func (s *Sim) Stream(subsystem string, entity uint64) *rng.Source {
	return s.rnd.Stream(s.scn.Name, subsystem, entity)
}

// Service exposes the simulated service (read-only use in hooks and tests).
func (s *Sim) Service() *namesvc.Service { return s.svc }

// Clients returns the simulated population.
func (s *Sim) Clients() []*Client { return s.clients }

// Run executes the scenario to its virtual horizon and returns the result.
func (s *Sim) Run() (*Result, error) {
	// Population: identities first (scenarios may skew them to target
	// shards), then each client's first acquire.
	s.clients = make([]*Client, s.scn.Clients)
	for i := range s.clients {
		id := uint64(i + 1)
		if s.scn.ClientID != nil {
			id = s.scn.ClientID(s, i)
		}
		if id == 0 {
			return nil, fmt.Errorf("simsvc: scenario %q produced zero client ID for index %d", s.scn.Name, i)
		}
		c := &Client{Idx: i, ID: id, Shard: s.svc.Shard(id)}
		s.clients[i] = c
	}
	for _, c := range s.clients {
		at := int64(0)
		if s.scn.FirstAt != nil {
			at = s.scn.FirstAt(s, c)
		}
		c := c
		s.eng.At(at, func() { s.acquire(c) })
	}
	// Per-shard epoch loops: one recurring tick each, phase-shifted by one
	// nanosecond per shard so same-instant ties between shards still have a
	// defined (and obvious) order.
	for shard := 0; shard < s.scn.Shards; shard++ {
		shard := shard
		var tick func()
		tick = func() {
			s.epochTick(shard)
			s.eng.After(s.scn.EpochEvery, tick)
		}
		s.eng.At(s.scn.EpochEvery+int64(shard), tick)
	}
	if s.scn.Events != nil {
		s.scn.Events(s)
	}
	s.eng.Run(s.scn.Duration)
	if len(s.epochErrs) > 0 {
		return nil, fmt.Errorf("simsvc: scenario %q: %s", s.scn.Name, s.epochErrs[0])
	}
	return s.result(), nil
}

// acquire issues one acquire for the client.
func (s *Sim) acquire(c *Client) {
	if c.crashed || c.State != StateIdle {
		return
	}
	c.State = StateWaiting
	c.issuedAt = s.eng.Now()
	gen := c.gen
	if s.trace != nil {
		s.trace.Ops = append(s.trace.Ops, TraceOp{Kind: OpAcquire, Shard: c.Shard, Client: c.ID})
	}
	id, err := s.svc.Acquire(c.ID, func(g namesvc.Grant) bool { return s.onGrant(c, gen, g) })
	if err != nil {
		// Unreachable with non-zero IDs; surface it rather than hide it.
		s.epochErrs = append(s.epochErrs, fmt.Sprintf("acquire client %d: %v", c.ID, err))
		return
	}
	c.reqID = id
	s.acquires++
}

// onGrant is the GrantNotifier for one request: invoked by CloseEpoch under
// the shard lock (single-threaded here). A stale generation — the client
// crashed after queueing — refuses the grant, which the service absorbs as
// a crash.
func (s *Sim) onGrant(c *Client, gen uint64, g namesvc.Grant) bool {
	if c.crashed || c.gen != gen {
		return false
	}
	c.State = StateHolding
	c.Name = g.Name
	c.reqID = 0
	s.grants++
	s.latency.Record(s.eng.Now() - c.issuedAt)
	if holder, taken := s.holders[g.Name]; taken {
		s.duplicates++
		s.epochErrs = append(s.epochErrs,
			fmt.Sprintf("duplicate grant: name %d to client %d while held by %d", g.Name, g.Client, holder))
	}
	s.holders[g.Name] = c.ID
	if s.trace != nil {
		s.trace.Grants = append(s.trace.Grants, TraceGrant{Client: g.Client, Shard: g.Shard, Epoch: g.Epoch, Name: g.Name})
	}
	hold := int64(1)
	if s.scn.Hold != nil {
		hold = s.scn.Hold(s, c)
	}
	hgen := c.gen
	s.eng.After(hold, func() { s.release(c, hgen) })
	return true
}

// release returns the client's held name and schedules its next cycle. The
// generation check voids stale hold timers: a forced release (herd wave,
// crash teardown) bumps the client's generation, so a timer scheduled for
// an earlier hold cannot free a later name.
func (s *Sim) release(c *Client, gen uint64) {
	if c.crashed || c.State != StateHolding || c.gen != gen {
		return
	}
	s.releaseHeld(c)
	think := int64(1)
	if s.scn.Think != nil {
		think = s.scn.Think(s, c)
	}
	s.eng.After(think, func() { s.acquire(c) })
}

// releaseHeld performs the release without scheduling a follow-up.
func (s *Sim) releaseHeld(c *Client) {
	if s.trace != nil {
		s.trace.Ops = append(s.trace.Ops, TraceOp{Kind: OpRelease, Shard: c.Shard, Client: c.ID, Name: c.Name})
	}
	if err := s.svc.Release(c.ID, c.Name); err != nil {
		s.epochErrs = append(s.epochErrs, fmt.Sprintf("release name %d: %v", c.Name, err))
		return
	}
	delete(s.holders, c.Name)
	s.releases++
	c.State = StateIdle
	c.Name = 0
	c.gen++
}

// Crash marks a client crashed at the current virtual instant — the
// simulator's model of a connection death: a queued request is either
// cancelled (the frame never arrived) or left to be absorbed by its epoch
// (the requester died in flight, decided by cancel), and a held name is
// released by connection teardown. Recovery (if recoverAfter > 0) returns
// the client to idle and re-enters it after that delay.
func (s *Sim) Crash(c *Client, cancel bool, recoverAfter int64) {
	if c.crashed {
		return
	}
	c.crashed = true
	c.gen++
	s.crashes++
	switch c.State {
	case StateWaiting:
		if cancel && s.svc.Cancel(c.ID, c.reqID) {
			s.cancels++
		}
		// Otherwise the queued request's stale generation refuses its
		// grant and the service absorbs it.
	case StateHolding:
		s.releaseHeld(c)
	}
	c.State = StateIdle
	c.reqID = 0
	if recoverAfter > 0 {
		s.eng.After(recoverAfter, func() {
			c.crashed = false
			c.State = StateIdle
			s.acquire(c)
		})
	}
}

// epochTick closes epochs on one shard until it has drained everything
// currently assignable — the virtual-time counterpart of the server's
// epoch loop, which keeps closing while the shard stays runnable.
func (s *Sim) epochTick(shard int) {
	for {
		pre := s.svc.ShardEpoch(shard)
		grants, err := s.svc.CloseEpoch(shard)
		if err != nil {
			s.epochErrs = append(s.epochErrs, fmt.Sprintf("epoch shard %d: %v", shard, err))
			return
		}
		post := s.svc.ShardEpoch(shard)
		if post == pre {
			return // nothing assignable
		}
		s.epochSizes.Record(int64(len(grants)))
		if s.trace != nil && len(grants) > 0 {
			s.trace.Ops = append(s.trace.Ops, TraceOp{Kind: OpEpoch, Shard: shard, Epoch: post, Granted: len(grants)})
		}
	}
}

// result snapshots the final metrics.
func (s *Sim) result() *Result {
	st := s.svc.Stats()
	r := &Result{
		Scenario:   s.scn.Name,
		Seed:       s.seed,
		Shards:     s.scn.Shards,
		ShardCap:   s.scn.ShardCap,
		Clients:    s.scn.Clients,
		VirtualNS:  s.eng.Now(),
		Acquires:   s.acquires,
		Grants:     s.grants,
		Releases:   s.releases,
		Cancels:    s.cancels,
		Crashes:    s.crashes,
		Absorbed:   st.Absorbed,
		Duplicates: s.duplicates,
		Epochs:     st.Epochs,
		PendingEnd: st.Pending,
		HeldEnd:    st.Assigned,
		Digests:    st.Digests,
		Latency:    s.latency.Snapshot(),
		EpochSizes: s.epochSizes.Snapshot(),
		LatencyP50: s.latency.P50(),
		LatencyP99: s.latency.P99(),
		Trace:      s.trace,
	}
	if s.trace != nil {
		for i := 0; i < s.scn.Shards; i++ {
			s.trace.Digests = append(s.trace.Digests, s.svc.ShardDigest(i))
			s.trace.Journals = append(s.trace.Journals, s.svc.ShardJournal(i))
		}
	}
	return r
}
