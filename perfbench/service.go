package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/rng"
)

// drainLimit bounds how long a stopping run waits for its outstanding
// operations and for the replicas to converge; exceeding it fails the run.
const drainLimit = 20 * time.Second

// window is the length of one measurement sub-window: end-to-end metrics
// are computed per window and reported as the median over windows, so one
// stalled second on a shared host moves the report less than a mean would.
const window = time.Second

// runService runs one service workload.
func runService(o benchOptions, spec svcSpec) (result, error) {
	if !o.trace {
		return runServiceUntraced(o, spec)
	}
	return runServiceTraced(o, spec)
}

func runServiceUntraced(o benchOptions, spec svcSpec) (result, error) {
	var setups []float64
	var s *sut
	var conns []loadConn
	for i := range spec.Setups {
		var dt time.Duration
		var err error
		s, conns, dt, err = setUp(spec, o.seed, nil)
		if err != nil {
			return result{}, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, dt.Seconds())
		if i < spec.Setups-1 {
			closeConns(conns)
			if err := s.close(); err != nil {
				return result{}, err
			}
			s.removeData()
		}
	}
	run, err := measureService(o.seed, spec, s, conns, o.seconds, nil)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: setups s %.6f\n", setups)
	m := run.endToEnd()
	m.set("setup_s", median(setups), "s")
	m, err = finish(m, endToEnd, false)
	return result{Attempted: run.attempted, Failed: run.failed, Metrics: m}, err
}

// runServiceTraced runs the workload twice, each for half the time: once
// untraced as the reference and once with every layer wrapped. It reports
// the per-layer metrics of the traced half, the tracing overhead (the
// difference between the two halves' end-to-end metrics), and the
// figures the wrappers and the profiler would perturb — the acquire p99
// and the Go runtime's — from the untraced half.
func runServiceTraced(o benchOptions, spec svcSpec) (result, error) {
	half := max(1, o.seconds/2)
	s, conns, _, err := setUp(spec, o.seed, nil)
	if err != nil {
		return result{}, err
	}
	ref, err := measureService(o.seed, spec, s, conns, half, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	s, conns, _, err = setUp(spec, o.seed, tr)
	if err != nil {
		return result{}, err
	}
	run, err := measureService(o.seed, spec, s, conns, half, tr)
	if err != nil {
		return result{}, err
	}
	m := run.layers
	setOverhead(m, ref.endToEnd(), run.endToEnd())
	m.set("client.acquire_p99_us", median(ref.p99s), "us")
	setGoMetrics(m, ref.goPre, ref.goPost, float64(ref.grants))
	if err := tr.writeSpans(spanPath(o), collectProvenance(o, spec)); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	m, err = finish(m, perLayer, true)
	return result{Attempted: ref.attempted + run.attempted, Failed: ref.failed + run.failed, Metrics: m}, err
}

// setOverhead reports what tracing cost: the traced half's throughput
// loss and p50 and CPU gains over the untraced half, as fractions.
func setOverhead(m, ref, traced metricSet) {
	m.set("trace.overhead_rate", 1-div(traced["acquires_per_s"].Value, ref["acquires_per_s"].Value), "frac")
	m.set("trace.overhead_p50", div(traced["acquire_p50_us"].Value, ref["acquire_p50_us"].Value)-1, "frac")
	m.set("trace.overhead_cpu", div(traced["cpu_us_per_acquire"].Value, ref["cpu_us_per_acquire"].Value)-1, "frac")
}

// setUp starts the system, dials the load connections and completes one
// acquire/release round trip. The returned duration runs from the start
// until that first acquire was granted: open/recover, listen, leader
// election and dial.
func setUp(spec svcSpec, seed uint64, tr *tracer) (*sut, []loadConn, time.Duration, error) {
	// Every set-up starts from a collected heap, so none pays for garbage
	// an earlier one left behind.
	runtime.GC()
	start := time.Now()
	s, err := startSUT(spec, seed, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	var conns []loadConn
	fail := func(err error) (*sut, []loadConn, time.Duration, error) {
		closeConns(conns)
		s.close()
		s.removeData()
		return nil, nil, 0, err
	}
	for i := range loadConns {
		c, err := dial(s, spec, rng.DeriveSeed(seed, 0xd1a1+uint64(i)))
		if err != nil {
			return fail(fmt.Errorf("dialing conn %d: %w", i, err))
		}
		if tr != nil {
			c = tracedClient{loadConn: c, t: tr, conn: i}
		}
		conns = append(conns, c)
	}
	g, err := roundTrip(conns[0], rng.DeriveSeed(seed, 0xf1a57))
	elapsed := time.Since(start)
	if err != nil {
		return fail(fmt.Errorf("first request: %w", err))
	}
	if g.Name < 1 || g.Name > s.svc().Capacity() {
		return fail(checkf("first grant %d outside 1..%d", g.Name, s.svc().Capacity()))
	}
	return s, conns, elapsed, nil
}

// dial connects a Client to a standalone server and a Session to a
// cluster.
func dial(s *sut, spec svcSpec, seed uint64) (loadConn, error) {
	if spec.Nodes == 1 {
		return namesvc.Dial(s.addrs[s.leader], namesvc.ClientConfig{})
	}
	return namesvc.DialSession(namesvc.SessionConfig{Addrs: s.dialAddrs(), Seed: seed})
}

// roundTrip acquires one name, then releases it; it returns the grant.
// Each reply must arrive within drainLimit.
func roundTrip(c loadConn, client uint64) (namesvc.Grant, error) {
	type res struct {
		g   namesvc.Grant
		err error
	}
	gc := make(chan res, 1)
	if err := c.Acquire(client, func(g namesvc.Grant, err error) { gc <- res{g, err} }); err != nil {
		return namesvc.Grant{}, err
	}
	c.Flush()
	var r res
	select {
	case r = <-gc:
	case <-time.After(drainLimit):
		return r.g, fmt.Errorf("no grant within %v", drainLimit)
	}
	if r.err != nil {
		return r.g, r.err
	}
	ec := make(chan error, 1)
	if err := c.Release(r.g.Name, func(err error) { ec <- err }); err != nil {
		return r.g, err
	}
	c.Flush()
	select {
	case err := <-ec:
		if err != nil {
			return r.g, checkf("releasing the first grant: %v", err)
		}
	case <-time.After(drainLimit):
		return r.g, fmt.Errorf("release not acknowledged within %v", drainLimit)
	}
	return r.g, nil
}

func closeConns(conns []loadConn) {
	for _, c := range conns {
		c.Close()
	}
	for _, c := range conns {
		c.Wait()
	}
}

// serviceRun is one measured window's raw results.
type serviceRun struct {
	attempted, failed uint64
	rates, cpus       []float64 // per window: grants/s, CPU us per grant
	p50s, p90s, p99s  []float64 // per window, us
	grants            uint64    // granted in the measured window
	meanLatUS         float64
	heapMB            float64
	goPre, goPost     goStats   // the Go runtime's counters bracketing the window
	layers            metricSet // traced runs only
}

func (r serviceRun) endToEnd() metricSet {
	m := metricSet{}
	m.set("acquires_per_s", median(r.rates), "1/s")
	m.set("acquire_p50_us", median(r.p50s), "us")
	m.set("acquire_p90_us", median(r.p90s), "us")
	m.set("cpu_us_per_acquire", median(r.cpus), "us")
	m.set("heap_peak_mb", r.heapMB, "MB")
	return m
}

// windowMark is the state at one sub-window boundary.
type windowMark struct {
	at     time.Time
	grants uint64
	cpu    float64
}

// measureService drives the load on a set-up system for seconds, stops
// it, checks every output and tears the system down.
func measureService(seed uint64, spec svcSpec, s *sut, conns []loadConn, seconds int, tr *tracer) (run serviceRun, err error) {
	defer func() {
		if s != nil {
			closeConns(conns)
			s.close()
			s.removeData()
		}
	}()
	svc := s.svc()
	g := newGenerator(svc.Capacity(), seconds, window)
	holdTarget := 0
	if spec.Hold > 0 {
		holdTarget = int(spec.Hold * float64(svc.Capacity()) / float64(len(conns)))
	}
	var workers sync.WaitGroup
	for i, c := range conns {
		d := g.addLoad(c, spec.InFlight, holdTarget, rng.DeriveSeed(seed, 0x10ad+uint64(i)))
		d.start(spec.InFlight, &workers)
	}
	fillBy := time.After(drainLimit)
	for _, d := range g.loads {
		select {
		case <-d.filled:
		case <-fillBy:
			return run, fmt.Errorf("conn %d: hold set not filled within %v", d.id, drainLimit)
		}
	}
	time.Sleep(warmup)

	var probe *layerProbe
	if tr != nil {
		if probe, err = startLayerProbe(s, tr); err != nil {
			return run, err
		}
	}
	heap := startHeapSampler()
	run.goPre = readGoStats()
	g.start = time.Now()
	marks := []windowMark{{at: g.start, cpu: cpuSeconds()}}
	g.phase.Store(phaseMeasure)
	for k := 1; k <= seconds; k++ {
		time.Sleep(time.Until(g.start.Add(time.Duration(k) * window)))
		marks = append(marks, windowMark{at: time.Now(), grants: g.grantsTotal(), cpu: cpuSeconds()})
	}
	run.goPost = readGoStats()
	run.heapMB = heap.stop()
	if probe != nil {
		probe.stop()
	}
	stopErr := g.stop(&workers, drainLimit)
	if err := g.err(); err != nil {
		return run, err
	}
	if stopErr != nil {
		return run, stopErr
	}
	if st := svc.Stats(); st.Assigned != 0 || st.Pending != 0 {
		return run, checkf("after every release: %d names assigned, %d acquires pending", st.Assigned, st.Pending)
	}
	closeConns(conns)
	if err := checkReplicas(s); err != nil {
		return run, err
	}
	digest := svc.Digest()
	closed := s
	s = nil
	defer closed.removeData()
	if err := closed.close(); err != nil {
		return run, err
	}
	if spec.Durable {
		if err := closed.verifyRecovery(seed, digest); err != nil {
			return run, err
		}
	}

	var all latHist
	for k := 1; k < len(marks); k++ {
		a, b := marks[k-1], marks[k]
		grants := float64(b.grants - a.grants)
		run.rates = append(run.rates, grants/b.at.Sub(a.at).Seconds())
		run.cpus = append(run.cpus, div((b.cpu-a.cpu)*1e6, grants))
		var lat latHist
		for _, d := range g.loads {
			lat.merge(&d.lat[k-1])
		}
		run.p50s = append(run.p50s, lat.quantile(0.50)/1e3)
		run.p90s = append(run.p90s, lat.quantile(0.90)/1e3)
		run.p99s = append(run.p99s, lat.quantile(0.99)/1e3)
		all.merge(&lat)
	}
	run.meanLatUS = all.mean() / 1e3
	fmt.Fprintf(os.Stderr, "perfbench: per-window acquires/s %.0f\n", run.rates)
	fmt.Fprintf(os.Stderr, "perfbench: per-window p50 us %.1f\n", run.p50s)
	fmt.Fprintf(os.Stderr, "perfbench: per-window p90 us %.0f\n", run.p90s)
	fmt.Fprintf(os.Stderr, "perfbench: per-window p99 us %.0f\n", run.p99s)
	fmt.Fprintf(os.Stderr, "perfbench: per-window cpu us/acquire %.3f\n", run.cpus)
	run.grants = marks[len(marks)-1].grants
	run.failed = g.failed.Load()
	run.attempted = run.grants + run.failed
	if probe != nil {
		run.layers, err = probe.report(run.grants, run.meanLatUS)
	}
	return run, err
}

// checkReplicas requires every replica of a cluster to reach the leader's
// position and digest once the load has stopped.
func checkReplicas(s *sut) error {
	if len(s.svcs) < 2 {
		return nil
	}
	deadline := time.Now().Add(drainLimit)
	for {
		pos, dig := s.svc().Position(), s.svc().Digest()
		same := true
		for _, r := range s.svcs {
			same = same && r.Position() == pos && r.Digest() == dig
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			var got []string
			for i, r := range s.svcs {
				got = append(got, fmt.Sprintf("node %d: position %d digest %#x", i, r.Position(), r.Digest()))
			}
			return checkf("replicas did not converge within %v: %v", drainLimit, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
