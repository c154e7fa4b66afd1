package namesvc

import (
	"math/rand"
	"reflect"
	"testing"
)

// traceOp is one step of a recorded arrival trace, replayable against any
// Service instance.
type traceOp struct {
	kind   byte // 'a'cquire, 'r'elease, 'c'ancel, 'e'poch(shard)
	client uint64
	name   int
	shard  int
}

// apply replays a trace. Acquire request IDs are per-shard sequences
// assigned in arrival order, so two instances fed the same trace issue the
// same IDs. reqs maps the trace's acquire order to the returned IDs for
// cancels.
func applyTrace(t *testing.T, svc *Service, trace []traceOp) {
	t.Helper()
	reqByClient := map[uint64]uint64{}
	for i, op := range trace {
		switch op.kind {
		case 'a':
			id, err := svc.Acquire(op.client, nil)
			if err != nil {
				t.Fatalf("trace[%d] acquire: %v", i, err)
			}
			reqByClient[op.client] = id
		case 'r':
			if err := svc.Release(op.client, op.name); err != nil {
				t.Fatalf("trace[%d] release: %v", i, err)
			}
		case 'c':
			svc.Cancel(op.client, reqByClient[op.client])
		case 'e':
			if _, err := svc.CloseEpoch(op.shard); err != nil {
				t.Fatalf("trace[%d] epoch: %v", i, err)
			}
		}
	}
}

// fixedTrace is a deterministic mixed workload over 2 shards: arrivals,
// epochs, releases derived from grants, a cancel, more epochs.
func fixedTrace(t *testing.T, svc *Service) {
	t.Helper()
	grants := map[uint64]Grant{} // client -> live grant
	closeAll := func() {
		gs, err := svc.CloseEpochs()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gs {
			grants[g.Client] = g
		}
	}
	for client := uint64(1); client <= 10; client++ {
		if _, err := svc.Acquire(client, nil); err != nil {
			t.Fatal(err)
		}
	}
	closeAll()
	// Release the even clients, cancel a queued request, re-acquire.
	for client := uint64(2); client <= 10; client += 2 {
		g := grants[client]
		if err := svc.Release(g.Client, g.Name); err != nil {
			t.Fatal(err)
		}
		delete(grants, client)
	}
	id, err := svc.Acquire(77, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Cancel(77, id)
	for client := uint64(20); client <= 24; client++ {
		if _, err := svc.Acquire(client, nil); err != nil {
			t.Fatal(err)
		}
	}
	closeAll()
	closeAll()
}

// TestReplayIdenticalLedgers pins the service's determinism guarantee: two
// instances with the same (arrival trace, shards) produce identical
// per-shard assignment journals and digests. Replay of non-identity
// assignment orders through the ledger is pinned separately, by
// TestLedgerPermutedBatchReplay.
func TestReplayIdenticalLedgers(t *testing.T) {
	t.Parallel()
	cfg := Config{Shards: 2, ShardCap: 16, Journal: true}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixedTrace(t, a)
	fixedTrace(t, b)
	for s := 0; s < 2; s++ {
		ja, jb := a.ShardJournal(s), b.ShardJournal(s)
		if !reflect.DeepEqual(ja, jb) {
			t.Fatalf("shard %d journals differ:\n%v\nvs\n%v", s, ja, jb)
		}
		if len(ja) == 0 {
			t.Fatalf("shard %d journal empty — trace never touched it", s)
		}
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ: %x vs %x", a.Digest(), b.Digest())
	}
}

// TestRandomizedInterleavingInvariants is the property test: randomized
// acquire/release/cancel/epoch interleavings, checked against a model for
// (1) grant uniqueness among live names, (2) reuse only after release, and
// (3) ledger replay equality for the recorded trace on a fresh instance.
func TestRandomizedInterleavingInvariants(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		rnd := rand.New(rand.NewSource(seed))
		cfg := Config{Shards: 3, ShardCap: 8, Journal: true}
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}

		var trace []traceOp
		nextClient := uint64(0)
		live := map[int]Grant{}       // name -> grant
		everHeld := map[int]bool{}    // granted at least once
		canReuse := map[int]bool{}    // released since last grant
		queued := map[uint64]uint64{} // client -> reqID, not yet granted or cancelled

		grantsOf := func(shard int) {
			gs, err := svc.CloseEpoch(shard)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, g := range gs {
				if _, dup := live[g.Name]; dup {
					t.Fatalf("seed %d: name %d granted while live", seed, g.Name)
				}
				if everHeld[g.Name] && !canReuse[g.Name] {
					t.Fatalf("seed %d: name %d reused without release", seed, g.Name)
				}
				if sh, _ := svc.ShardOfName(g.Name); sh != shard {
					t.Fatalf("seed %d: shard %d granted foreign name %d", seed, shard, g.Name)
				}
				live[g.Name] = g
				everHeld[g.Name] = true
				delete(canReuse, g.Name)
				delete(queued, g.Client)
			}
		}

		for step := 0; step < 400; step++ {
			switch r := rnd.Intn(10); {
			case r < 4: // acquire
				nextClient++
				client := nextClient
				id, err := svc.Acquire(client, nil)
				if err != nil {
					t.Fatal(err)
				}
				queued[client] = id
				trace = append(trace, traceOp{kind: 'a', client: client})
			case r < 7: // release a random live name
				for name, g := range live {
					if err := svc.Release(g.Client, name); err != nil {
						t.Fatalf("seed %d: release: %v", seed, err)
					}
					delete(live, name)
					canReuse[name] = true
					trace = append(trace, traceOp{kind: 'r', client: g.Client, name: name})
					break
				}
			case r < 8: // cancel a random queued request
				for client := range queued {
					svc.Cancel(client, queued[client])
					delete(queued, client)
					trace = append(trace, traceOp{kind: 'c', client: client})
					break
				}
			default: // close an epoch on a random shard
				shard := rnd.Intn(cfg.Shards)
				trace = append(trace, traceOp{kind: 'e', shard: shard})
				grantsOf(shard)
			}
		}
		// Drain: release everything, close every shard until quiet.
		for name, g := range live {
			if err := svc.Release(g.Client, name); err != nil {
				t.Fatal(err)
			}
			delete(live, name)
			canReuse[name] = true
			trace = append(trace, traceOp{kind: 'r', client: g.Client, name: name})
		}
		for s := 0; s < cfg.Shards; s++ {
			trace = append(trace, traceOp{kind: 'e', shard: s})
			grantsOf(s)
		}

		// Replay invariant: the recorded trace on a fresh instance yields
		// the identical ledger. (Releases in the recorded trace name the
		// exact grants, which determinism makes valid on the replica.)
		replica, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applyTrace(t, replica, trace)
		if replica.Digest() != svc.Digest() {
			t.Fatalf("seed %d: replay digest %x != original %x", seed, replica.Digest(), svc.Digest())
		}
	}
}
