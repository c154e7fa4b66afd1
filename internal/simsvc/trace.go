package simsvc

import (
	"fmt"
	"sync"
	"time"

	"ballsintoleaves/internal/namesvc"
)

// OpKind discriminates trace operations.
type OpKind uint8

const (
	// OpAcquire is one enqueue: Client asked Shard for a name.
	OpAcquire OpKind = iota + 1
	// OpRelease returns Name (global) to Shard's free pool on behalf of
	// Client.
	OpRelease
	// OpEpoch closes one epoch on Shard. Epoch and Granted record the
	// simulator's outcome — the shard's epoch counter after the close and
	// the number of grants it handed out — which a replay must reproduce.
	OpEpoch
)

// TraceOp is one operation of a recorded scenario execution, in global
// issue order. The per-shard subsequence of this order is exactly the
// per-shard arrival order, which is all the service's determinism contract
// depends on.
type TraceOp struct {
	Kind    OpKind
	Shard   int
	Client  uint64
	Name    int    // OpRelease: the released global name
	Epoch   uint64 // OpEpoch: shard epoch counter after the close
	Granted int    // OpEpoch: grants handed out by the close
}

// TraceGrant is one grant in the order the service produced it (epoch by
// epoch, rank order within an epoch). A replay must reproduce the exact
// sequence, not just the set.
type TraceGrant struct {
	Client uint64
	Shard  int
	Epoch  uint64
	Name   int // global
}

// Trace is a recorded scenario execution: the service configuration, the
// operation stream, and the expected grant stream. It is the differential
// harness's exchange format — the same trace replays through a fresh
// in-process Service or through a real manual-epoch server over TCP, and
// both must land on the simulator's digests.
type Trace struct {
	Scenario string
	Seed     uint64
	Shards   int
	ShardCap int
	MaxBatch int
	Ops      []TraceOp
	Grants   []TraceGrant
	// Digests and Journals are the simulator's final per-shard rolling
	// digests and retained journals — what a replay must converge to.
	Digests  []uint64
	Journals [][]namesvc.Entry
}

// ReplayResult is what a replay produced, shaped for comparison against the
// recording.
type ReplayResult struct {
	Grants   []TraceGrant
	Digests  []uint64
	Journals [][]namesvc.Entry
}

// Diff compares a replay against the recording and returns a description of
// the first divergence, or "" if the replay matches: grant stream, per-shard
// digests, and per-shard journals all equal.
func (t *Trace) Diff(r *ReplayResult) string {
	if len(r.Grants) != len(t.Grants) {
		return fmt.Sprintf("grant stream length: sim %d, replay %d", len(t.Grants), len(r.Grants))
	}
	for i, g := range t.Grants {
		if r.Grants[i] != g {
			return fmt.Sprintf("grant %d: sim %+v, replay %+v", i, g, r.Grants[i])
		}
	}
	for i := range t.Digests {
		if i >= len(r.Digests) || r.Digests[i] != t.Digests[i] {
			return fmt.Sprintf("shard %d digest: sim %#x, replay %#x", i, t.Digests[i], at(r.Digests, i))
		}
	}
	for i := range t.Journals {
		if i >= len(r.Journals) {
			return fmt.Sprintf("shard %d journal missing from replay", i)
		}
		if len(r.Journals[i]) != len(t.Journals[i]) {
			return fmt.Sprintf("shard %d journal length: sim %d, replay %d", i, len(t.Journals[i]), len(r.Journals[i]))
		}
		for j, e := range t.Journals[i] {
			if r.Journals[i][j] != e {
				return fmt.Sprintf("shard %d journal entry %d: sim %+v, replay %+v", i, j, e, r.Journals[i][j])
			}
		}
	}
	return ""
}

func at(v []uint64, i int) uint64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

// ReplayService replays the trace through a fresh in-process Service — the
// cheap differential leg, pinning that the trace alone (not the simulator's
// event loop) determines the outcome.
func (t *Trace) ReplayService() (*ReplayResult, error) {
	svc, err := namesvc.New(namesvc.Config{
		Shards:   t.Shards,
		ShardCap: t.ShardCap,
		MaxBatch: t.MaxBatch,
		Journal:  true,
	})
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{}
	for i, op := range t.Ops {
		switch op.Kind {
		case OpAcquire:
			if _, err := svc.Acquire(op.Client, nil); err != nil {
				return nil, fmt.Errorf("op %d acquire client %d: %w", i, op.Client, err)
			}
		case OpRelease:
			if err := svc.Release(op.Client, op.Name); err != nil {
				return nil, fmt.Errorf("op %d release name %d: %w", i, op.Name, err)
			}
		case OpEpoch:
			grants, err := svc.CloseEpoch(op.Shard)
			if err != nil {
				return nil, fmt.Errorf("op %d epoch shard %d: %w", i, op.Shard, err)
			}
			if got := svc.ShardEpoch(op.Shard); got != op.Epoch || len(grants) != op.Granted {
				return nil, fmt.Errorf("op %d epoch shard %d: sim (epoch %d, granted %d), replay (epoch %d, granted %d)",
					i, op.Shard, op.Epoch, op.Granted, got, len(grants))
			}
			for _, g := range grants {
				res.Grants = append(res.Grants, TraceGrant{Client: g.Client, Shard: g.Shard, Epoch: g.Epoch, Name: g.Name})
			}
		default:
			return nil, fmt.Errorf("op %d: unknown kind %d", i, op.Kind)
		}
	}
	for i := 0; i < t.Shards; i++ {
		res.Digests = append(res.Digests, svc.ShardDigest(i))
		res.Journals = append(res.Journals, svc.ShardJournal(i))
	}
	return res, nil
}

// ReplayWire replays the trace through a real server over the wire: one
// pipelined connection to addr, which must be a manual-epoch journaling
// server (blnamed -manual-epochs -journal, or a ServerConfig.ManualEpochs
// Server in-process) built with the trace's Shards/ShardCap/MaxBatch.
//
// Acquires and releases pipeline; epoch ops are awaited barriers, which is
// what pins epoch composition: every acquire recorded before an epoch is on
// the server before the epoch closes, and every grant of the epoch has been
// delivered to this connection before the barrier returns (the server
// appends grant frames ahead of the epoch reply on the same stream).
func (t *Trace) ReplayWire(addr string, timeout time.Duration) (*ReplayResult, error) {
	c, err := namesvc.Dial(addr, namesvc.ClientConfig{Timeout: timeout})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if c.Shards() != t.Shards || c.ShardCap() != t.ShardCap {
		return nil, fmt.Errorf("server namespace %dx%d, trace %dx%d", c.Shards(), c.ShardCap(), t.Shards, t.ShardCap)
	}

	res := &ReplayResult{}
	var mu sync.Mutex // guards res.Grants and asyncErr (callbacks run on the read goroutine)
	var asyncErr error
	fail := func(err error) {
		mu.Lock()
		if asyncErr == nil && err != nil {
			asyncErr = err
		}
		mu.Unlock()
	}
	failed := func() error {
		mu.Lock()
		defer mu.Unlock()
		return asyncErr
	}

	for i, op := range t.Ops {
		if err := failed(); err != nil {
			return nil, err
		}
		switch op.Kind {
		case OpAcquire:
			client := op.Client // the wire grant does not echo the client ID
			err = c.Acquire(client, func(g namesvc.Grant, err error) {
				if err != nil {
					// Acquires left pending at end of trace fail with
					// ErrClientClosed when the connection drops; that is
					// expected, not a divergence.
					return
				}
				mu.Lock()
				res.Grants = append(res.Grants, TraceGrant{Client: client, Shard: g.Shard, Epoch: g.Epoch, Name: g.Name})
				mu.Unlock()
			})
		case OpRelease:
			err = c.Release(op.Name, func(e error) { fail(e) })
		case OpEpoch:
			epoch, got, eerr := c.EpochSync(op.Shard)
			if eerr != nil {
				return nil, fmt.Errorf("op %d epoch shard %d: %w", i, op.Shard, eerr)
			}
			if epoch != op.Epoch || got != op.Granted {
				return nil, fmt.Errorf("op %d epoch shard %d: sim (epoch %d, granted %d), replay (epoch %d, granted %d)",
					i, op.Shard, op.Epoch, op.Granted, epoch, got)
			}
		default:
			err = fmt.Errorf("unknown kind %d", op.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
	}
	// A final stats round trip is a full-pipeline barrier: every release
	// ack is on the stream before the stats reply.
	st, err := c.StatsSync()
	if err != nil {
		return nil, err
	}
	if err := failed(); err != nil {
		return nil, err
	}
	res.Digests = st.Digests
	for i := 0; i < t.Shards; i++ {
		j, err := c.JournalSync(i)
		if err != nil {
			return nil, fmt.Errorf("journal shard %d: %w", i, err)
		}
		res.Journals = append(res.Journals, j)
	}
	return res, nil
}
