package namesvc

import (
	"math/rand"
	"testing"

	bil "ballsintoleaves"
	"ballsintoleaves/internal/core"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/rng"
	"ballsintoleaves/internal/transport"
)

// The service assigns each epoch's batch in queue order: position i takes
// the i-th smallest free name. The oracle below pins that this is exactly
// what the paper's renaming algorithm decides for the same batch. Every
// closed epoch's request IDs are rebuilt from the journal and renamed by a
// fresh failure-free core.Cohort (HybridPaths, the §6 rank rule); on
// sampled small epochs the public Protocol runs too, one goroutine per
// batch member over a transport loopback hub. The service's grant for
// request r must be the d-th smallest of the free names the epoch drew
// from, where d is the name both engines decide for r.

// loopbackProcess adapts the public Protocol to transport.Process.
type loopbackProcess struct{ p *bil.Protocol }

func (a loopbackProcess) Send(round int) []byte { return a.p.Send(round) }
func (a loopbackProcess) Deliver(round int, msgs []proto.Message) {
	conv := make([]bil.Message, len(msgs))
	for i, m := range msgs {
		conv[i] = bil.Message{From: uint64(m.From), Payload: m.Payload}
	}
	a.p.Deliver(round, conv)
}
func (a loopbackProcess) Decided() (int, bool) { return a.p.Decided() }
func (a loopbackProcess) Done() bool           { return a.p.Done() }

// decisionsByLabel checks that decisions rename labels tightly (every label
// decided, names a permutation of 1..n) and indexes them by label.
func decisionsByLabel(t *testing.T, engine string, labels []proto.ID, ds []proto.Decision) map[proto.ID]int {
	t.Helper()
	if len(ds) != len(labels) {
		t.Fatalf("%s: %d decisions for a batch of %d", engine, len(ds), len(labels))
	}
	byLabel := make(map[proto.ID]int, len(ds))
	seen := make([]bool, len(ds)+1)
	for _, d := range ds {
		if d.Name < 1 || d.Name > len(ds) || seen[d.Name] {
			t.Fatalf("%s: decision %+v is not a tight renaming of %d", engine, d, len(ds))
		}
		seen[d.Name] = true
		byLabel[d.ID] = d.Name
	}
	for _, l := range labels {
		if _, ok := byLabel[l]; !ok {
			t.Fatalf("%s: label %v did not decide", engine, l)
		}
	}
	return byLabel
}

// cohortDecisions renames labels with a fresh failure-free HybridPaths
// cohort.
func cohortDecisions(t *testing.T, seed uint64, labels []proto.ID) map[proto.ID]int {
	t.Helper()
	c, err := core.NewCohort(core.Config{N: len(labels), Seed: seed, Strategy: core.HybridPaths}, labels)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return decisionsByLabel(t, "cohort", labels, res.Decisions)
}

// protocolDecisions renames labels with the public Protocol (the §6
// EarlyTerminating variant) over transport.RunAll's loopback hub.
func protocolDecisions(t *testing.T, seed uint64, labels []proto.ID) map[proto.ID]int {
	t.Helper()
	n := len(labels)
	sum, err := transport.RunAll(labels, transport.NetConfig{}, func(id proto.ID) (transport.Process, error) {
		p, err := bil.NewProtocol(n, seed, uint64(id), bil.EarlyTerminating)
		if err != nil {
			return nil, err
		}
		return loopbackProcess{p}, nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return decisionsByLabel(t, "protocol", labels, sum.Decisions)
}

// oracleStats counts what checkShardAgainstOracle covered.
type oracleStats struct {
	epochs, protocolEpochs, maxBatch int
}

// checkShardAgainstOracle replays one shard's complete journal into a
// model ledger and checks every epoch against the renaming engines: the
// epoch's assigns (in journal order) give the batch's request IDs; the
// model's free pool just before the epoch gives the names it drew from.
// Epochs of at most protocolMax requests are also checked against the
// Protocol with probability 1/protocolEvery (rnd decides). The model's
// final digest must equal the shard's, so the journal covered the whole
// history.
func checkShardAgainstOracle(t *testing.T, svc *Service, shard int, rnd *rand.Rand, protocolMax, protocolEvery int, st *oracleStats) {
	t.Helper()
	journal := svc.ShardJournal(shard)
	model := newLedger(svc.ShardCap(), false, 0)
	var epochs uint64
	for i := 0; i < len(journal); {
		e := journal[i]
		if e.Op == OpRelease {
			if err := model.release(e.Epoch, e.Client, e.Name); err != nil {
				t.Fatalf("shard %d journal[%d]: %v", shard, i, err)
			}
			i++
			continue
		}
		// First assign of a new epoch: the epoch's assigns are the journal
		// run tagged with its number (absorbed grants interleave their
		// releases, and client releases after the epoch carry the same tag).
		epochs++
		if e.Epoch != epochs {
			t.Fatalf("shard %d journal[%d]: epoch %d assigns after epoch %d", shard, i, e.Epoch, epochs-1)
		}
		var labels []proto.ID
		for j := i; j < len(journal) && journal[j].Epoch == e.Epoch; j++ {
			if journal[j].Op == OpAssign {
				labels = append(labels, proto.ID(journal[j].ReqID))
			}
		}
		n := len(labels)
		free := append([]int(nil), model.peekFree(n)...)
		if len(free) != n {
			t.Fatalf("shard %d epoch %d: batch of %d with %d free names", shard, e.Epoch, n, len(free))
		}
		seed := rng.DeriveSeed(uint64(shard)+1, e.Epoch)
		engines := []map[proto.ID]int{cohortDecisions(t, seed, labels)}
		if n <= protocolMax && rnd.Intn(protocolEvery) == 0 {
			engines = append(engines, protocolDecisions(t, seed, labels))
			st.protocolEpochs++
		}
		for ; i < len(journal) && journal[i].Epoch == e.Epoch; i++ {
			x := journal[i]
			if x.Op == OpRelease {
				if err := model.release(x.Epoch, x.Client, x.Name); err != nil {
					t.Fatalf("shard %d journal[%d]: %v", shard, i, err)
				}
				continue
			}
			for k, d := range engines {
				if want := free[d[proto.ID(x.ReqID)]-1]; x.Name != want {
					t.Fatalf("shard %d epoch %d (batch %d): request %d got name %d, engine %d decided %d → name %d",
						shard, e.Epoch, n, x.ReqID, x.Name, k, d[proto.ID(x.ReqID)], want)
				}
			}
			model.assign(x.Epoch, x.ReqID, x.Client, x.Name)
		}
		st.epochs++
		st.maxBatch = max(st.maxBatch, n)
	}
	if epochs != svc.ShardEpoch(shard) {
		t.Fatalf("shard %d: journal holds %d epochs, service closed %d", shard, epochs, svc.ShardEpoch(shard))
	}
	if model.digest != svc.ShardDigest(shard) {
		t.Fatalf("shard %d: model digest %x != service digest %x", shard, model.digest, svc.ShardDigest(shard))
	}
}

// TestServiceMatchesRenamingOracle drives the service with seeded random
// traces — acquires, cancels that leave gaps in the request-ID labels,
// requesters that vanish so their grants are absorbed, releases, epoch
// closes in random shard order — at MaxBatch 1, 3 and ShardCap, then
// checks every closed epoch against the renaming engines (see
// checkShardAgainstOracle). A last trace closes one epoch of 4096.
func TestServiceMatchesRenamingOracle(t *testing.T) {
	t.Parallel()
	const shards, shardCap = 2, 32
	type queuedReq struct{ client, id uint64 }
	var st oracleStats
	gaps := 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, maxBatch := range []int{1, 3, shardCap} {
			rnd := rand.New(rand.NewSource(seed*31 + int64(maxBatch)))
			svc, err := New(Config{Shards: shards, ShardCap: shardCap, MaxBatch: maxBatch, Journal: true})
			if err != nil {
				t.Fatal(err)
			}
			var nextClient uint64
			var queued []queuedReq // cancel candidates, possibly granted since
			var live []Grant
			closeEpoch := func(shard int) {
				gs, err := svc.CloseEpoch(shard)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, gs...)
			}
			for step := 0; step < 600; step++ {
				switch r := rnd.Intn(20); {
				case r < 8: // acquire; one in four requesters vanishes before its grant
					nextClient++
					c := nextClient
					ids, err := svc.AcquireBatch(svc.Shard(c),
						[]AcquireOp{{Client: c, Notify: acceptSink(rnd.Intn(4) != 0)}}, nil)
					if err != nil {
						t.Fatal(err)
					}
					queued = append(queued, queuedReq{c, ids[0]})
				case r < 11: // cancel; a still-queued request leaves a label gap
					if len(queued) > 0 {
						k := rnd.Intn(len(queued))
						if svc.Cancel(queued[k].client, queued[k].id) {
							gaps++
						}
						queued[k] = queued[len(queued)-1]
						queued = queued[:len(queued)-1]
					}
				case r < 15: // release a held name
					if len(live) > 0 {
						k := rnd.Intn(len(live))
						if err := svc.Release(live[k].Client, live[k].Name); err != nil {
							t.Fatal(err)
						}
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				default:
					closeEpoch(rnd.Intn(shards))
				}
			}
			for s := 0; s < shards; s++ {
				for svc.EpochRunnable(s) {
					closeEpoch(s)
				}
				checkShardAgainstOracle(t, svc, s, rnd, 64, 3, &st)
			}
			if svc.Stats().Absorbed == 0 {
				t.Fatalf("seed %d, MaxBatch %d: no grant was absorbed", seed, maxBatch)
			}
		}
	}
	if gaps == 0 || st.protocolEpochs == 0 {
		t.Fatalf("%d label gaps, %d epochs checked against the Protocol; want both > 0", gaps, st.protocolEpochs)
	}

	// One epoch of 4096 with label gaps and absorbed grants, then three more
	// over the fragmented free pool left by releasing every third name.
	const big = 4096
	svc, err := New(Config{ShardCap: big, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(big))
	acquire := func(c uint64) uint64 {
		ids, err := svc.AcquireBatch(0, []AcquireOp{{Client: c, Notify: acceptSink(c%97 != 0)}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ids[0]
	}
	for c := uint64(1); svc.Pending(0) < big; c++ {
		if id := acquire(c); rnd.Intn(16) == 0 {
			svc.Cancel(c, id)
		}
	}
	gs, err := svc.CloseEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gs {
		if i%3 == 0 {
			if err := svc.Release(g.Client, g.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	for c := uint64(1 << 20); c < 1<<20+1500; c++ {
		acquire(c)
		if c%512 == 0 {
			if _, err := svc.CloseEpoch(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := svc.CloseEpoch(0); err != nil {
		t.Fatal(err)
	}
	checkShardAgainstOracle(t, svc, 0, rnd, 64, 1, &st)
	if st.maxBatch < big {
		t.Fatalf("largest checked epoch %d, want %d", st.maxBatch, big)
	}
	t.Logf("checked %d epochs (%d also against the Protocol), largest batch %d, %d label gaps",
		st.epochs, st.protocolEpochs, st.maxBatch, gaps)
}
