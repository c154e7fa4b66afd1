package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"sync"
	"testing"
	"time"

	bil "ballsintoleaves"
	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/rng"
)

// storageRun drives a fixed seeded trace of acquires, epochs, commits,
// releases and checkpoints through a durable service on MemSinks, with or
// without the tracing wrappers, and returns the service's digest, its
// journals, and every byte the sinks hold.
func storageRun(t *testing.T, seed uint64, traced bool) (uint64, [][]namesvc.Entry, map[string][]byte, *tracer) {
	t.Helper()
	const shards = 2
	mem := []*durable.MemSink{durable.NewMemSink(), durable.NewMemSink()}
	sinks := []durable.Sink{mem[0], mem[1]}
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.rec.Store(true)
		sinks = traceSinks(sinks, tr)
	}
	svc, err := namesvc.Open(namesvc.Config{
		Shards: shards, ShardCap: 64, Seed: seed, Journal: true,
		Durable: &namesvc.Durability{Sinks: sinks, Fsync: namesvc.FsyncGroup, SnapshotEvery: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := namesvc.GroupGate(svc)
	if traced {
		gate = traceGate(gate, tr)
	}
	src := rng.New(seed)
	type hold struct {
		client uint64
		name   int
	}
	var held []hold
	for step := 0; step < 200; step++ {
		for range 1 + src.Uint64()%6 {
			client := src.Uint64() | 1
			if _, err := svc.Acquire(client, func(g namesvc.Grant) bool {
				held = append(held, hold{g.Client, g.Name})
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		for shard := range shards {
			if _, err := svc.CloseEpoch(shard); err != nil {
				t.Fatal(err)
			}
			if err := gate.WaitCommitted(shard); err != nil {
				t.Fatal(err)
			}
		}
		for len(held) > 40 || (len(held) > 0 && src.Uint64()%3 == 0) {
			i := int(src.Uint64() % uint64(len(held)))
			if err := svc.Release(held[i].client, held[i].name); err != nil {
				t.Fatal(err)
			}
			held = slices.Delete(held, i, i+1)
		}
		if step%50 == 49 {
			if err := svc.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	digest := svc.Digest()
	var journals [][]namesvc.Entry
	for shard := range shards {
		journals = append(journals, svc.ShardJournal(shard))
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for i, m := range mem {
		names, err := m.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			b, err := m.ReadAll(name)
			if err != nil {
				t.Fatal(err)
			}
			files[string(rune('0'+i))+"/"+name] = b
		}
	}
	return digest, journals, files, tr
}

// The wrapped Sink, File and CommitGate must leave the service's output
// exactly as it is without them: same digest, same journals, same bytes
// on storage.
func TestStorageAndGateWrappersAreTransparent(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		d0, j0, f0, _ := storageRun(t, seed, false)
		d1, j1, f1, tr := storageRun(t, seed, true)
		if d0 != d1 {
			t.Fatalf("seed %d: digest %#x wrapped, %#x unwrapped", seed, d1, d0)
		}
		if !reflect.DeepEqual(j0, j1) {
			t.Fatalf("seed %d: journals differ under the wrappers", seed)
		}
		if !reflect.DeepEqual(f0, f1) {
			t.Fatalf("seed %d: storage contents differ under the wrappers", seed)
		}
		if len(f0) == 0 || len(j0[0]) == 0 {
			t.Fatalf("seed %d: trace produced no journal or files", seed)
		}
		n := &tr.n
		if n.walAppends.Load() == 0 || n.fsyncs.Load() == 0 || n.checkpoints.Load() == 0 || len(tr.gateWait) == 0 {
			t.Fatalf("seed %d: wrappers saw no traffic: appends %d fsyncs %d checkpoints %d gate waits %d",
				seed, n.walAppends.Load(), n.fsyncs.Load(), n.checkpoints.Load(), len(tr.gateWait))
		}
	}
}

// Through a wrapped repl.Node every server still welcomes clients with
// the node's own role and leader hint.
func TestWrappedReplNodeKeepsWelcome(t *testing.T) {
	spec := cluster3
	spec.ShardCap = 64
	s, err := startSUT(spec, 5, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	// Wait until every follower has heard from the leader, so the role
	// and hint cannot change between the welcome and the comparison.
	leaderAddr := s.addrs[s.leader]
	for deadline := time.Now().Add(10 * time.Second); ; {
		known := true
		for _, n := range s.nodes {
			_, hint := n.WireRole()
			known = known && hint == leaderAddr
		}
		if known {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("followers never learned the leader")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, addr := range s.addrs {
		c, err := namesvc.Dial(addr, namesvc.ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		role, hint := s.nodes[i].WireRole()
		if c.Role() != role || c.LeaderHint() != hint {
			t.Errorf("node %d: welcome %v %q, node reports %v %q", i, c.Role(), c.LeaderHint(), role, hint)
		}
		if i == s.leader && role != namesvc.RoleLeader {
			t.Errorf("leader %d welcomes as %v", i, role)
		}
		c.Close()
		c.Wait()
	}
	// The check can fail: a gate wrapper that dropped the extensions
	// would make the leader welcome clients as standalone.
	if _, ok := traceGate(s.nodes[s.leader], nil).(replGate); !ok {
		t.Fatal("traceGate dropped the replication extensions")
	}
	if _, ok := any(tracedGate{inner: s.nodes[s.leader]}).(replGate); ok {
		t.Fatal("the plain gate wrapper unexpectedly has the replication extensions")
	}
}

// The hold mix keeps the namespace at its target occupancy once filled:
// every held name stays assigned, and at most the names in flight are
// added on top.
func TestHoldMixHoldsOccupancy(t *testing.T) {
	spec := wireVolatile
	spec.ShardCap = 1024
	spec.InFlight = 16
	spec.Hold = 0.75
	s, conns, _, err := setUp(spec, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	svc := s.svc()
	capacity := float64(svc.Capacity())
	g := newGenerator(svc.Capacity(), 1, time.Second)
	target := int(spec.Hold * capacity / float64(len(conns)))
	var workers sync.WaitGroup
	for i, c := range conns {
		g.addLoad(c, spec.InFlight, target, uint64(i)).start(spec.InFlight, &workers)
	}
	for _, d := range g.loads {
		select {
		case <-d.filled:
		case <-time.After(10 * time.Second):
			t.Fatal("hold set never filled")
		}
	}
	want := float64(target*len(conns)) / capacity
	slack := float64(2*spec.InFlight*len(conns)) / capacity
	for range 50 {
		time.Sleep(5 * time.Millisecond)
		st := svc.Stats()
		occ := float64(st.Assigned) / capacity
		if occ < want || occ > want+slack {
			t.Fatalf("occupancy %.4f outside [%.4f, %.4f]", occ, want, want+slack)
		}
	}
	if err := g.stop(&workers, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := g.err(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Assigned != 0 {
		t.Fatalf("%d names still assigned after the final releases", st.Assigned)
	}
	closeConns(conns)
}

// The metric lists the program reports are the ones BENCHMARK.json
// declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if lookupWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// spin burns CPU in package main, so profile samples land in "bench".
func spin(d time.Duration) uint64 {
	var x uint64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := range 10000 {
			x = x*6364136223846793005 + uint64(i)
		}
	}
	return x
}

func TestCPUSharesAttributesFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	if shares["bench"] < 0.5 {
		t.Fatalf("bench share %.2f of %d samples; want the spin loop to dominate", shares["bench"], samples)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %f", sum)
	}
}

func TestLayerOfFrame(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"ballsintoleaves/internal/namesvc.(*Server).handle", "/x/internal/namesvc/server.go", "server"},
		{"ballsintoleaves/internal/namesvc.(*ledger).assign", "/x/internal/namesvc/ledger.go", "ledger"},
		{"ballsintoleaves/internal/namesvc.(*Service).CloseEpoch", "/x/internal/namesvc/namesvc.go", "service"},
		{"ballsintoleaves/internal/namesvc/repl.(*Node).streamRecords", "/x/repl/leader.go", "repl"},
		{"ballsintoleaves/internal/core.(*Cohort).Run", "/x/core/cohort.go", "core"},
		{"ballsintoleaves.Rename", "/x/ballsintoleaves.go", "api"},
		{"syscall.Syscall6", "syscall.go", "syscall"},
		{"main.(*connLoad).fire", "/x/perfbench/load.go", "bench"},
		{"runtime.mallocgc", "malloc.go", ""},
		{"bufio.(*Reader).Read", "bufio.go", ""},
	} {
		if got := layerOfFrame(c.fn, c.file); got != c.want {
			t.Errorf("layerOfFrame(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestLatHistQuantiles(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h latHist
	var xs []int64
	for range 100000 {
		v := int64(r.ExpFloat64() * 300e3)
		xs = append(xs, v)
		h.record(v)
	}
	slices.Sort(xs)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := float64(quantile(xs, q))
		got := h.quantile(q)
		if d := (got - exact) / exact; d < -0.005 || d > 0.005 {
			t.Errorf("q%.3f: %.0f, exact %.0f", q, got, exact)
		}
	}
}

// checkRename must reject a duplicate, an out-of-range name and an
// unnamed correct process.
func TestCheckRenameRejectsBadOutcomes(t *testing.T) {
	in := genPool(renameSpec{Kinds: []renameKind{{N: 32, Pool: 1}}}, 9)[0][0]
	res, err := bil.Rename(32, bil.WithSeed(in.seed), bil.WithIDs(in.ids))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRename(res, in, 32); err != nil {
		t.Fatalf("valid outcome rejected: %v", err)
	}
	a, b := in.ids[0], in.ids[1]
	for name, mutate := range map[string]func(r *bil.Result){
		"duplicate":    func(r *bil.Result) { r.Names[a] = r.Names[b] },
		"out of range": func(r *bil.Result) { r.Names[a] = 33 },
		"unnamed":      func(r *bil.Result) { delete(r.Names, a) },
	} {
		bad := *res
		bad.Names = make(map[uint64]int, len(res.Names))
		for k, v := range res.Names {
			bad.Names[k] = v
		}
		mutate(&bad)
		if err := checkRename(&bad, in, 32); err == nil {
			t.Errorf("%s outcome accepted", name)
		}
	}
}
