package namesvc

import (
	"math/rand"
	"reflect"
	"testing"
)

// acceptSink is a GrantNotifier with a fixed verdict, standing in for a
// connection that is alive (true) or vanished mid-epoch (false).
type acceptSink bool

// GrantNotify implements GrantNotifier.
func (s acceptSink) GrantNotify(Grant) bool { return bool(s) }

// TestBatchedSubmissionMatchesPerOp is the differential test pinning the
// batched front end to the per-op one: the same randomized multi-shard
// trace — bursts of releases and acquires (some from requesters that
// vanish mid-epoch and have their grants absorbed), mid-epoch cancels,
// epoch closes in random shard order — is driven through Service.Acquire /
// Service.Release one op at a time on one instance and through
// Service.AcquireBatch / Service.ReleaseBatch shard buckets on another.
// Everything observable must be byte-identical: request IDs, every epoch's
// accepted grants, the per-shard journals, the rolling digests, and the
// stats counters. This is the contract that lets the Server ingest
// pipelined bursts as shard buckets without changing the service's
// deterministic replay story.
func TestBatchedSubmissionMatchesPerOp(t *testing.T) {
	t.Parallel()
	const shards = 3
	for seed := int64(1); seed <= 6; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		cfg := Config{Shards: shards, ShardCap: 16, Journal: true, MaxBatch: 8}
		perOp, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}

		type queuedReq struct {
			client uint64
			id     uint64 // identical on both instances, asserted below
		}
		var queued []queuedReq
		var held []Grant // live grants, from the per-op instance
		nextClient := uint64(0)

		// closeShard closes one epoch on both instances and checks the
		// accepted grants match; the model is updated from them.
		closeShard := func(shard int) {
			t.Helper()
			ga, err := perOp.CloseEpoch(shard)
			if err != nil {
				t.Fatalf("seed %d: per-op epoch: %v", seed, err)
			}
			ga = append([]Grant(nil), ga...)
			gb, err := batched.CloseEpoch(shard)
			if err != nil {
				t.Fatalf("seed %d: batched epoch: %v", seed, err)
			}
			if !reflect.DeepEqual(ga, append([]Grant(nil), gb...)) {
				t.Fatalf("seed %d shard %d: grants diverge:\nper-op  %v\nbatched %v", seed, shard, ga, gb)
			}
			for _, g := range ga {
				held = append(held, g)
				for i, q := range queued {
					if q.client == g.Client {
						queued = append(queued[:i], queued[i+1:]...)
						break
					}
				}
			}
			// Absorbed grants (vanished requesters) also left the queue;
			// they are not in ga, so prune any queued entry the service no
			// longer knows. Cancel of a granted/absorbed ID returns false
			// on both instances, which the cancel step tolerates.
		}

		for step := 0; step < 80; step++ {
			// One burst: releases first, then acquires — the submission
			// order the server's ingestion uses. The per-op instance sees
			// the ops one at a time in exactly the bucketed per-shard
			// order, which is the equivalence AcquireBatch promises.
			nRel := 0
			if len(held) > 0 {
				nRel = rnd.Intn(min(4, len(held)) + 1)
			}
			relByShard := make([][]ReleaseOp, shards)
			for i := 0; i < nRel; i++ {
				pick := rnd.Intn(len(held))
				g := held[pick]
				held = append(held[:pick], held[pick+1:]...)
				shard, err := perOp.ShardOfName(g.Name)
				if err != nil {
					t.Fatal(err)
				}
				relByShard[shard] = append(relByShard[shard], ReleaseOp{Client: g.Client, Name: g.Name})
			}
			nAcq := rnd.Intn(6)
			acqByShard := make([][]AcquireOp, shards)
			for i := 0; i < nAcq; i++ {
				nextClient++
				client := nextClient
				var notify GrantNotifier
				if rnd.Intn(5) == 0 {
					// This requester will vanish before its grant lands:
					// the epoch must absorb it as a crash on both paths.
					notify = acceptSink(false)
				}
				acqByShard[perOp.Shard(client)] = append(acqByShard[perOp.Shard(client)],
					AcquireOp{Client: client, Notify: notify})
			}

			// Per-op instance: one call per op, in bucket order.
			for shard := 0; shard < shards; shard++ {
				for _, op := range relByShard[shard] {
					if err := perOp.Release(op.Client, op.Name); err != nil {
						t.Fatalf("seed %d: per-op release of %d: %v", seed, op.Name, err)
					}
				}
			}
			idsA := make([]uint64, 0, nAcq)
			for shard := 0; shard < shards; shard++ {
				for _, op := range acqByShard[shard] {
					var notify func(Grant) bool
					if op.Notify != nil {
						sink := op.Notify
						notify = func(g Grant) bool { return sink.GrantNotify(g) }
					}
					id, err := perOp.Acquire(op.Client, notify)
					if err != nil {
						t.Fatalf("seed %d: per-op acquire: %v", seed, err)
					}
					idsA = append(idsA, id)
					queued = append(queued, queuedReq{client: op.Client, id: id})
				}
			}

			// Batched instance: one call per non-empty shard bucket.
			for shard := 0; shard < shards; shard++ {
				if len(relByShard[shard]) > 0 {
					errs, err := batched.ReleaseBatch(shard, relByShard[shard], nil)
					if err != nil {
						t.Fatalf("seed %d: release batch: %v", seed, err)
					}
					for i, e := range errs {
						if e != nil {
							t.Fatalf("seed %d: batched release of %d: %v",
								seed, relByShard[shard][i].Name, e)
						}
					}
				}
			}
			idsB := make([]uint64, 0, nAcq)
			for shard := 0; shard < shards; shard++ {
				if len(acqByShard[shard]) > 0 {
					ids, err := batched.AcquireBatch(shard, acqByShard[shard], nil)
					if err != nil {
						t.Fatalf("seed %d: acquire batch: %v", seed, err)
					}
					idsB = append(idsB, ids...)
				}
			}
			if !reflect.DeepEqual(idsA, idsB) {
				t.Fatalf("seed %d: request IDs diverge: per-op %v, batched %v", seed, idsA, idsB)
			}

			// Mid-epoch cancel: revoke the same still-queued request on
			// both instances. The verdicts must agree (false once granted
			// or absorbed — the model prunes lazily).
			if len(queued) > 0 && rnd.Intn(3) == 0 {
				pick := rnd.Intn(len(queued))
				q := queued[pick]
				queued = append(queued[:pick], queued[pick+1:]...)
				ca := perOp.Cancel(q.client, q.id)
				cb := batched.Cancel(q.client, q.id)
				if ca != cb {
					t.Fatalf("seed %d: cancel of req %d diverges: per-op %v, batched %v", seed, q.id, ca, cb)
				}
			}

			if rnd.Intn(2) == 0 {
				closeShard(rnd.Intn(shards))
			}
		}
		// Drain every shard until both instances are quiet.
		for shard := 0; shard < shards; shard++ {
			for perOp.EpochRunnable(shard) || batched.EpochRunnable(shard) {
				closeShard(shard)
			}
		}

		if da, db := perOp.Digest(), batched.Digest(); da != db {
			t.Fatalf("seed %d: digests diverge: per-op %x, batched %x", seed, da, db)
		}
		for shard := 0; shard < shards; shard++ {
			ja, jb := perOp.ShardJournal(shard), batched.ShardJournal(shard)
			if !reflect.DeepEqual(ja, jb) {
				t.Fatalf("seed %d shard %d: journals diverge:\nper-op  %v\nbatched %v", seed, shard, ja, jb)
			}
			if len(ja) == 0 {
				t.Fatalf("seed %d shard %d: journal empty — trace never touched it", seed, shard)
			}
		}
		if sa, sb := perOp.Stats(), batched.Stats(); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("seed %d: stats diverge:\nper-op  %+v\nbatched %+v", seed, sa, sb)
		}
	}
}

// TestAcquireBatchValidation pins the batch entry points' error handling:
// a bad op rejects the whole acquire batch without enqueueing anything,
// and release outcomes are per-op.
func TestAcquireBatchValidation(t *testing.T) {
	t.Parallel()
	svc, err := New(Config{Shards: 2, ShardCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Find a client routed to shard 1.
	other := uint64(1)
	for svc.Shard(other) != 1 {
		other++
	}
	if _, err := svc.AcquireBatch(0, []AcquireOp{{Client: 0}}, nil); err == nil {
		t.Fatal("zero client accepted")
	}
	if _, err := svc.AcquireBatch(0, []AcquireOp{{Client: other}}, nil); err == nil {
		t.Fatal("foreign-shard client accepted")
	}
	if _, err := svc.AcquireBatch(5, nil, nil); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if st := svc.Stats(); st.Pending != 0 || st.Acquires != 0 {
		t.Fatalf("failed batches enqueued requests: %+v", st)
	}

	if _, err := svc.ReleaseBatch(9, nil, nil); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	// One valid release among invalid ones: outcomes are per-op.
	ids, err := svc.AcquireBatch(1, []AcquireOp{{Client: other}}, nil)
	if err != nil || len(ids) != 1 {
		t.Fatalf("acquire batch: %v (ids %v)", err, ids)
	}
	grants, err := svc.CloseEpoch(1)
	if err != nil || len(grants) != 1 {
		t.Fatalf("epoch: %v (grants %v)", err, grants)
	}
	errs, err := svc.ReleaseBatch(1, []ReleaseOp{
		{Client: other, Name: grants[0].Name}, // valid
		{Client: other, Name: 1},              // shard 0's name
		{Client: 12345, Name: grants[0].Name}, // released name, wrong holder anyway
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 3 || errs[0] != nil || errs[1] == nil || errs[2] == nil {
		t.Fatalf("release outcomes = %v, want [nil, err, err]", errs)
	}
}
