package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"ballsintoleaves/internal/namesvc"
)

// layerProbe brackets a traced service window: it opens the tracer's
// recording, starts the CPU profile, samples the leader's namespace and
// the replicas' positions from outside, and turns it all into per-layer
// metrics when the window closes.
type layerProbe struct {
	s       *sut
	tr      *tracer
	start   time.Time
	elapsed time.Duration
	svcPre  namesvc.Stats
	svcPost namesvc.Stats
	termPre uint64
	termNow uint64
	prof    *bytes.Buffer

	stopc chan struct{}
	done  sync.WaitGroup
	// Written by the sampler goroutine until done.
	freeFrac []float64
	lag      []float64
}

// sampleEvery is the probe's sampling period for namespace occupancy and
// follower lag.
const sampleEvery = 5 * time.Millisecond

func startLayerProbe(s *sut, tr *tracer) (*layerProbe, error) {
	p := &layerProbe{s: s, tr: tr, stopc: make(chan struct{})}
	p.svcPre = s.svc().Stats()
	p.termPre = p.term()
	var err error
	if p.prof, err = startCPUProfile(); err != nil {
		return nil, err
	}
	p.start = time.Now()
	tr.rec.Store(true)
	p.done.Add(1)
	go p.sample()
	return p, nil
}

// term is the leader's replication term (0 on a standalone server).
func (p *layerProbe) term() uint64 {
	if len(p.s.nodes) == 0 {
		return 0
	}
	_, term, _ := p.s.nodes[p.s.leader].Status()
	return term
}

func (p *layerProbe) sample() {
	defer p.done.Done()
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	svc := p.s.svc()
	capacity := float64(svc.Capacity())
	for {
		select {
		case <-p.stopc:
			return
		case <-tick.C:
		}
		lead := svc.Position()
		st := svc.Stats()
		p.freeFrac = append(p.freeFrac, float64(st.Free)/capacity)
		for i, r := range p.s.svcs {
			if i != p.s.leader {
				p.lag = append(p.lag, float64(lead)-float64(r.Position()))
			}
		}
	}
}

// stop closes the window.
func (p *layerProbe) stop() {
	p.tr.rec.Store(false)
	p.elapsed = time.Since(p.start)
	pprof.StopCPUProfile()
	close(p.stopc)
	p.done.Wait()
	p.svcPost = p.s.svc().Stats()
	p.termNow = p.term()
}

// report computes the per-layer metrics of the window; grants is the
// number of acquires granted in it and meanLatUS their mean latency.
func (p *layerProbe) report(grants uint64, meanLatUS float64) (metricSet, error) {
	m := metricSet{}
	n := &p.tr.n
	acq := float64(grants)
	secs := p.elapsed.Seconds()
	per := func(v uint64) float64 { return div(float64(v), acq) }

	epochs := float64(p.svcPost.Epochs - p.svcPre.Epochs)
	svcGrants := float64(p.svcPost.Grants - p.svcPre.Grants)
	m.set("service.grants_per_epoch", div(svcGrants, epochs), "count")
	m.set("service.epochs_per_s", epochs/secs, "1/s")
	m.set("service.absorbed_frac", div(float64(p.svcPost.Absorbed-p.svcPre.Absorbed), svcGrants), "frac")
	m.set("service.free_frac_mean", mean(p.freeFrac), "frac")

	m.set("net.server_reads_per_acquire", per(n.srvReads.Load()), "count")
	m.set("net.server_writes_per_acquire", per(n.srvWrites.Load()), "count")
	m.set("net.bytes_in_per_acquire", per(n.srvBytesIn.Load()), "B")
	m.set("net.bytes_out_per_acquire", per(n.srvBytesOut.Load()), "B")
	m.set("net.write_us_mean", div(float64(n.srvWriteNs.Load())/1e3, float64(n.srvWrites.Load())), "us")
	m.set("client.acquire_call_us_mean", div(float64(n.acqCallNs.Load())/1e3, float64(n.acqCalls.Load())), "us")
	m.set("client.release_call_us_mean", div(float64(n.relCallNs.Load())/1e3, float64(n.relCalls.Load())), "us")

	p.tr.mu.Lock()
	waits := slices.Clone(p.tr.gateWait)
	fsyncs := slices.Clone(p.tr.fsync)
	p.tr.mu.Unlock()
	slices.Sort(waits)
	slices.Sort(fsyncs)
	m.set("gate.wait_p50_us", float64(quantile(waits, 0.50))/1e3, "us")
	m.set("gate.wait_p99_us", float64(quantile(waits, 0.99))/1e3, "us")
	meanWaitUS := div(float64(n.gateWaitNs.Load())/1e3, float64(len(waits)))
	m.set("gate.wait_share", div(meanWaitUS, meanLatUS), "frac")

	m.set("durable.fsyncs_per_acquire", per(n.fsyncs.Load()), "count")
	m.set("durable.fsync_p50_us", float64(quantile(fsyncs, 0.50))/1e3, "us")
	m.set("durable.fsync_p99_us", float64(quantile(fsyncs, 0.99))/1e3, "us")
	m.set("durable.appends_per_acquire", per(n.walAppends.Load()), "count")
	m.set("durable.bytes_per_acquire", per(n.walBytes.Load()), "B")
	m.set("durable.write_us_mean", div(float64(n.walWriteNs.Load())/1e3, float64(n.walAppends.Load())), "us")
	m.set("durable.checkpoints", float64(n.checkpoints.Load()), "count")
	m.set("durable.dir_syncs", float64(n.dirSyncs.Load()), "count")

	m.set("repl.peer_bytes_per_acquire", per(n.peerBytes.Load()), "B")
	m.set("repl.peer_reads_per_acquire", per(n.peerReads.Load()), "count")
	slices.Sort(p.lag)
	m.set("repl.follower_lag_p99_records", quantile(p.lag, 0.99), "count")
	m.set("repl.elections", float64(p.termNow-p.termPre), "count")

	return m, setCPUShares(m, p.prof)
}

// setGoMetrics reports the Go runtime's window: scheduling latency, GC
// pauses and cycles, and allocation per operation (ops acquires or names).
func setGoMetrics(m metricSet, pre, post goStats, ops float64) {
	secs := post.at.Sub(pre.at).Seconds()
	m.set("go.sched_latency_p99_us", histQuantile(pre.sched, post.sched, 0.99)*1e6, "us")
	m.set("go.gc_pause_p99_us", histQuantile(pre.gcPause, post.gcPause, 0.99)*1e6, "us")
	m.set("go.gc_cycles_per_s", float64(post.gcCycles-pre.gcCycles)/secs, "1/s")
	m.set("go.alloc_bytes_per_acquire", div(float64(post.allocBytes-pre.allocBytes), ops), "B")
	m.set("go.allocs_per_acquire", div(float64(post.allocObjects-pre.allocObjects), ops), "count")
}

// startCPUProfile records a CPU profile into memory until
// pprof.StopCPUProfile.
func startCPUProfile() (*bytes.Buffer, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	return &buf, nil
}

// setCPUShares attributes a stopped CPU profile to layers; epoch is the
// renaming run inside each service epoch (runner, core, tree, bitset).
func setCPUShares(m metricSet, prof *bytes.Buffer) error {
	shares, _, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for l, v := range shares {
		m.set("cpu_share."+l, v, "frac")
	}
	m.set("cpu_share.epoch", shares["runner"]+shares["core"]+shares["tree"]+shares["bitset"], "frac")
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return div(s, float64(len(xs)))
}
