package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	bil "ballsintoleaves"
	"ballsintoleaves/internal/rng"
)

// renameKind is one instance kind of the oneshot-rename workload.
type renameKind struct {
	Name       string `json:"name"`
	N          int    `json:"n"`
	Concurrent bool   `json:"concurrent_engine"`
	// Crashes is the crash budget as a share of n (RandomCrashes(n*Crashes,
	// 13, seed)); 0 is failure-free.
	Crashes float64 `json:"crash_share"`
	// Pool is how many distinct seeded instances the run cycles through.
	Pool int `json:"pool"`
}

type renameSpec struct {
	Kinds  []renameKind `json:"kinds"`
	Setups int          `json:"setups"`
}

// crashLastRound is the last round RandomCrashes may strike in.
const crashLastRound = 13

// instance is one generated Rename input: the system under test receives
// only these values.
type instance struct {
	seed      uint64
	ids       []uint64
	crashSeed uint64
}

func (k renameKind) options(in instance) []bil.Option {
	opts := []bil.Option{bil.WithSeed(in.seed), bil.WithIDs(in.ids)}
	if k.Concurrent {
		opts = append(opts, bil.WithEngine(bil.ConcurrentEngine))
	}
	if k.Crashes > 0 {
		opts = append(opts, bil.WithCrashes(bil.RandomCrashes(int(k.Crashes*float64(k.N)), crashLastRound, in.crashSeed)))
	}
	return opts
}

// genPool generates every kind's instances from the workload seed:
// distinct non-zero process identifiers, the engine seed and the crash
// plan seed of each instance.
func genPool(spec renameSpec, seed uint64) [][]instance {
	pool := make([][]instance, len(spec.Kinds))
	for k, kind := range spec.Kinds {
		for i := range kind.Pool {
			s := rng.DeriveSeed(seed, uint64(k)<<32|uint64(i))
			src := rng.New(rng.DeriveSeed(s, 0x1d5))
			seen := make(map[uint64]bool, kind.N)
			ids := make([]uint64, 0, kind.N)
			for len(ids) < kind.N {
				id := src.Uint64()
				if id != 0 && !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
			pool[k] = append(pool[k], instance{seed: s, ids: ids, crashSeed: rng.DeriveSeed(s, 0xc4a5)})
		}
	}
	return pool
}

// checkRename verifies one decided instance: every name in 1..n and
// unique, every name held by one of the instance's processes, and every
// process that did not crash named.
func checkRename(res *bil.Result, in instance, n int) error {
	crashed := make(map[uint64]bool, len(res.Crashed))
	for _, id := range res.Crashed {
		crashed[id] = true
	}
	seen := make([]bool, n+1)
	named := 0
	for _, id := range in.ids {
		name, ok := res.Names[id]
		if !ok {
			if !crashed[id] {
				return checkf("correct process %#x has no name", id)
			}
			continue
		}
		if name < 1 || name > n {
			return checkf("process %#x decided name %d outside 1..%d", id, name, n)
		}
		if seen[name] {
			return checkf("name %d decided twice", name)
		}
		seen[name] = true
		named++
	}
	if named != len(res.Names) {
		return checkf("%d names decided by processes outside the instance", len(res.Names)-named)
	}
	return nil
}

// kindRun is one kind's measured calls.
type kindRun struct {
	calls, failed int
	names         int     // names decided
	callSecs      float64 // summed call time
	callUS        []float64
	cpuSecs       float64
	rounds        int
	messages      int64
	bytes         int64
	mallocs       uint64
}

func (r kindRun) namesPerS() float64 { return div(float64(r.names), r.callSecs) }

// callQuantile is the q-quantile of the kind's call times in us.
func (r kindRun) callQuantile(q float64) float64 {
	lat := slices.Clone(r.callUS)
	slices.Sort(lat)
	return quantile(lat, q)
}

// runRenamePhases runs each kind for an equal share of seconds, cycling
// through its pool; traced runs also count allocations per call and log
// a span per call.
func runRenamePhases(spec renameSpec, pool [][]instance, seconds int, tr *tracer) ([]kindRun, error) {
	runs := make([]kindRun, len(spec.Kinds))
	share := time.Duration(seconds) * time.Second / time.Duration(len(spec.Kinds))
	var ms0, ms1 runtime.MemStats
	for k, kind := range spec.Kinds {
		r := &runs[k]
		end := time.Now().Add(share)
		for i := 0; i == 0 || time.Now().Before(end); i++ {
			in := pool[k][i%len(pool[k])]
			opts := kind.options(in)
			if tr != nil {
				runtime.ReadMemStats(&ms0)
			}
			cpu0 := cpuSeconds()
			t0 := time.Now()
			res, err := bil.Rename(kind.N, opts...)
			t1 := time.Now()
			r.cpuSecs += cpuSeconds() - cpu0
			if tr != nil {
				runtime.ReadMemStats(&ms1)
				r.mallocs += ms1.Mallocs - ms0.Mallocs
				tr.span("rename."+kind.Name, t0, t1, -1, -1, uint64(i))
			}
			r.calls++
			if err != nil {
				r.failed++
				continue
			}
			if err := checkRename(res, in, kind.N); err != nil {
				return nil, fmt.Errorf("%s instance %d: %w", kind.Name, i, err)
			}
			d := t1.Sub(t0)
			r.callSecs += d.Seconds()
			r.callUS = append(r.callUS, float64(d.Nanoseconds())/1e3)
			r.names += len(res.Names)
			r.rounds += res.Rounds
			r.messages += res.Messages
			r.bytes += res.Bytes
		}
		if r.names == 0 {
			return nil, fmt.Errorf("%s: no instance decided", kind.Name)
		}
	}
	return runs, nil
}

// renameEndToEnd combines the kinds: every metric is the geometric mean of
// the per-kind values, so each kind weighs the same whatever its n.
func renameEndToEnd(runs []kindRun, heapMB float64) metricSet {
	var rate, p50, p90, cpu []float64
	for _, r := range runs {
		rate = append(rate, r.namesPerS())
		p50 = append(p50, r.callQuantile(0.50))
		p90 = append(p90, r.callQuantile(0.90))
		cpu = append(cpu, r.cpuSecs*1e6/float64(r.names))
	}
	fmt.Fprintf(os.Stderr, "perfbench: per-kind names/s %.0f p50 us %.0f p90 us %.0f cpu us/name %.2f\n", rate, p50, p90, cpu)
	m := metricSet{}
	m.set("acquires_per_s", geomean(rate...), "1/s")
	m.set("acquire_p50_us", geomean(p50...), "us")
	m.set("acquire_p90_us", geomean(p90...), "us")
	m.set("cpu_us_per_acquire", geomean(cpu...), "us")
	m.set("heap_peak_mb", heapMB, "MB")
	return m
}

func tally(runs []kindRun) (attempted, failed uint64) {
	for _, r := range runs {
		attempted += uint64(r.calls)
		failed += uint64(r.failed)
	}
	return attempted, failed
}

// probeN is the size of the one-shot workload's first Rename.
const probeN = 64

// firstRename times the one-shot workload's set-up: the system under test
// answering a first small Rename, the i-th of a run's seeded probe
// instances. Generating the input happens before the clock starts, so
// only the call is timed.
func firstRename(seed uint64, i int) (time.Duration, error) {
	probe := genPool(renameSpec{Kinds: []renameKind{{N: probeN, Pool: 1}}}, rng.DeriveSeed(seed, 0x9b0be+uint64(i)))[0][0]
	start := time.Now()
	res, err := bil.Rename(probeN, bil.WithSeed(probe.seed), bil.WithIDs(probe.ids))
	elapsed := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("first Rename: %w", err)
	}
	return elapsed, checkRename(res, probe, probeN)
}

// warmRename runs one instance of every kind unmeasured.
func warmRename(spec renameSpec, pool [][]instance) error {
	for k, kind := range spec.Kinds {
		if _, err := bil.Rename(kind.N, kind.options(pool[k][0])...); err != nil {
			return fmt.Errorf("warmup %s: %w", kind.Name, err)
		}
	}
	return nil
}

func runRename(o benchOptions, spec renameSpec) (result, error) {
	if o.trace {
		return runRenameTraced(o, spec)
	}
	var setups []float64
	for i := range spec.Setups {
		dt, err := firstRename(o.seed, i)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, dt.Seconds())
	}
	pool := genPool(spec, o.seed)
	if err := warmRename(spec, pool); err != nil {
		return result{}, err
	}
	heap := startHeapSampler()
	runs, err := runRenamePhases(spec, pool, o.seconds, nil)
	heapMB := heap.stop()
	if err != nil {
		return result{}, err
	}
	m := renameEndToEnd(runs, heapMB)
	fmt.Fprintf(os.Stderr, "perfbench: setups s %.6f\n", setups)
	m.set("setup_s", median(setups), "s")
	m, err = finish(m, endToEnd, false)
	attempted, failed := tally(runs)
	return result{Attempted: attempted, Failed: failed, Metrics: m}, err
}

// runRenameTraced mirrors runServiceTraced: an untraced half as the
// reference, then a traced half with allocation counts, spans and the CPU
// profile. The call rates and times and the Go runtime's figures come
// from the untraced half, since the traced half stops the world around
// every call to count its allocations.
func runRenameTraced(o benchOptions, spec renameSpec) (result, error) {
	half := max(1, o.seconds/2)
	if _, err := firstRename(o.seed, 0); err != nil {
		return result{}, err
	}
	pool := genPool(spec, o.seed)
	if err := warmRename(spec, pool); err != nil {
		return result{}, err
	}
	heap := startHeapSampler()
	pre := readGoStats()
	ref, err := runRenamePhases(spec, pool, half, nil)
	post := readGoStats()
	refHeap := heap.stop()
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	prof, err := startCPUProfile()
	if err != nil {
		return result{}, err
	}
	heap = startHeapSampler()
	runs, err := runRenamePhases(spec, pool, half, tr)
	pprof.StopCPUProfile()
	heapMB := heap.stop()
	if err != nil {
		return result{}, err
	}

	m := metricSet{}
	setOverhead(m, renameEndToEnd(ref, refHeap), renameEndToEnd(runs, heapMB))
	var p99 []float64
	for _, r := range ref {
		p99 = append(p99, r.callQuantile(0.99))
	}
	m.set("client.acquire_p99_us", geomean(p99...), "us")
	traced, untraced := map[string]kindRun{}, map[string]kindRun{}
	var refNames float64
	for i, k := range spec.Kinds {
		traced[k.Name], untraced[k.Name] = runs[i], ref[i]
		refNames += float64(ref[i].names)
	}
	m.set("rename.ff_names_per_s", untraced["ff"].namesPerS(), "1/s")
	m.set("rename.crash_names_per_s", untraced["crash"].namesPerS(), "1/s")
	m.set("rename.goroutine_names_per_s", untraced["goroutine"].namesPerS(), "1/s")
	gor := untraced["goroutine"]
	m.set("rename.call_ms_goroutine", div(gor.callSecs*1e3, float64(gor.calls-gor.failed)), "ms")
	setGoMetrics(m, pre, post, refNames)
	ff, crash := traced["ff"], traced["crash"]
	m.set("rename.rounds_ff", div(float64(ff.rounds), float64(ff.calls-ff.failed)), "count")
	m.set("rename.rounds_crash", div(float64(crash.rounds), float64(crash.calls-crash.failed)), "count")
	m.set("rename.messages_per_name_ff", div(float64(ff.messages), float64(ff.names)), "count")
	m.set("rename.bytes_per_name_ff", div(float64(ff.bytes), float64(ff.names)), "B")
	m.set("rename.allocs_per_name_ff", div(float64(ff.mallocs), float64(ff.names)), "count")
	m.set("rename.allocs_per_name_crash", div(float64(crash.mallocs), float64(crash.names)), "count")
	if err := setCPUShares(m, prof); err != nil {
		return result{}, err
	}
	if err := tr.writeSpans(spanPath(o), collectProvenance(o, spec)); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	m, err = finish(m, perLayer, true)
	a1, f1 := tally(ref)
	a2, f2 := tally(runs)
	return result{Attempted: a1 + a2, Failed: f1 + f2, Metrics: m}, err
}
