package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
)

// Tracing from outside. Every layer is measured by wrapping the public
// interface the next layer up calls it through: the CommitGate the Server
// waits on, the durable.Sink/File the WAL writes to, the net.Listener and
// net.Conn of the client and replication listeners, and the Client or
// Session the load generator drives. Each wrapper forwards every method
// unchanged and, while the measurement window is open, counts the calls,
// times them and logs spans. Nothing inside the program is instrumented:
// stage timers inside namesvc.Server (ingest, queue wait, epoch compute,
// WAL encode, grant staging) are a later in-program change, so the spans
// written here stop at the boundaries a caller can see.

// spansPerName bounds the spans kept per span name, so a traced run holds
// a bounded log however fast the system runs; counters and duration
// samples keep covering every call.
const spansPerName = 20000

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's origin; Shard and Conn are -1 where unknown, and Req
// is the request ID the service assigned (client spans only).
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Shard int32  `json:"shard"`
	Conn  int32  `json:"conn"`
	Req   uint64 `json:"req,omitempty"`
}

// layerCounts are the per-boundary counters of one traced window.
type layerCounts struct {
	srvReads, srvWrites, srvBytesIn, srvBytesOut, srvWriteNs atomic.Uint64
	peerReads, peerBytes                                     atomic.Uint64
	walAppends, walBytes, walWriteNs                         atomic.Uint64
	fsyncs, dirSyncs, checkpoints                            atomic.Uint64
	acqCalls, acqCallNs, relCalls, relCallNs                 atomic.Uint64
	gateWaitNs                                               atomic.Uint64
}

// tracer collects one traced run's measurements. Recording is on only
// while the measurement window is open (rec), so warmup and teardown
// traffic never reach the counters.
type tracer struct {
	origin time.Time
	rec    atomic.Bool
	n      layerCounts
	conns  atomic.Int32 // accepted-connection sequence

	mu       sync.Mutex
	gateWait []int64 // WaitCommitted durations, ns
	fsync    []int64 // File.Sync durations, ns
	spans    []span
	kept     map[string]int
	dropped  int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), kept: make(map[string]int)}
}

// on reports whether the measurement window is open; a nil tracer is an
// untraced run.
func (t *tracer) on() bool { return t != nil && t.rec.Load() }

// span logs one span, keeping at most spansPerName per name.
func (t *tracer) span(name string, start, end time.Time, shard, conn int, req uint64) {
	t.mu.Lock()
	if t.kept[name] < spansPerName {
		t.kept[name]++
		t.spans = append(t.spans, span{
			Name:  name,
			Start: start.Sub(t.origin).Nanoseconds(),
			End:   end.Sub(t.origin).Nanoseconds(),
			Shard: int32(shard),
			Conn:  int32(conn),
			Req:   req,
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// sample appends one duration to a sample set under the tracer lock.
func (t *tracer) sample(dst *[]int64, d time.Duration) {
	t.mu.Lock()
	*dst = append(*dst, d.Nanoseconds())
	t.mu.Unlock()
}

// writeSpans writes the span log as JSON lines: a header with the run's
// provenance and span accounting, then one span per line.
func (t *tracer) writeSpans(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	enc.Encode(map[string]any{
		"provenance":     prov,
		"spans":          len(t.spans),
		"spans_dropped":  t.dropped,
		"spans_per_name": spansPerName,
		"note":           "spans are taken at public layer boundaries from outside the program; stage timers inside namesvc.Server are a later in-program change",
	})
	for i := range t.spans {
		enc.Encode(&t.spans[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- CommitGate --------------------------------------------------------

// tracedGate times WaitCommitted, the wait every grant's delivery takes
// behind its epoch's commit (group fsync or replication quorum).
type tracedGate struct {
	inner namesvc.CommitGate
	t     *tracer
}

func (g tracedGate) AdmitWrites() (bool, string) { return g.inner.AdmitWrites() }

func (g tracedGate) WaitCommitted(shard int) error {
	if !g.t.on() {
		return g.inner.WaitCommitted(shard)
	}
	start := time.Now()
	err := g.inner.WaitCommitted(shard)
	end := time.Now()
	d := end.Sub(start)
	g.t.n.gateWaitNs.Add(uint64(d))
	g.t.sample(&g.t.gateWait, d)
	g.t.span("gate.wait_committed", start, end, shard, -1, 0)
	return err
}

// replGate is the extension set a replication node adds to CommitGate;
// the Server discovers each method by type assertion, so the wrapper of a
// gate that has them must have them too.
type replGate interface {
	namesvc.CommitGate
	WireRole() (namesvc.Role, string)
	ReadLeaseValid() bool
	WireReplStats() (term uint64, role namesvc.Role, reason string, compactFloor uint64)
}

type tracedReplGate struct {
	tracedGate
	ext replGate
}

func (g tracedReplGate) WireRole() (namesvc.Role, string) { return g.ext.WireRole() }
func (g tracedReplGate) ReadLeaseValid() bool             { return g.ext.ReadLeaseValid() }
func (g tracedReplGate) WireReplStats() (uint64, namesvc.Role, string, uint64) {
	return g.ext.WireReplStats()
}

// traceGate wraps g. The gates in this repository implement either none
// of the optional extensions (GroupGate) or all of them (repl.Node).
func traceGate(g namesvc.CommitGate, t *tracer) namesvc.CommitGate {
	tg := tracedGate{inner: g, t: t}
	if ext, ok := g.(replGate); ok {
		return tracedReplGate{tracedGate: tg, ext: ext}
	}
	return tg
}

// --- durable.Sink / durable.File ---------------------------------------

// tracedSink counts the storage boundary beneath one shard's WAL store:
// file creations (a snap- file is a checkpoint), directory syncs, and
// through tracedFile every append and fsync.
type tracedSink struct {
	inner durable.Sink
	t     *tracer
	shard int
}

func traceSinks(sinks []durable.Sink, t *tracer) []durable.Sink {
	out := make([]durable.Sink, len(sinks))
	for i, s := range sinks {
		out[i] = &tracedSink{inner: s, t: t, shard: i}
	}
	return out
}

func (s *tracedSink) Create(name string) (durable.File, error) {
	if s.t.on() && strings.HasPrefix(name, "snap-") {
		s.t.n.checkpoints.Add(1)
	}
	f, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: f, t: s.t, shard: s.shard}, nil
}

func (s *tracedSink) ReadAll(name string) ([]byte, error) { return s.inner.ReadAll(name) }
func (s *tracedSink) List() ([]string, error)             { return s.inner.List() }
func (s *tracedSink) Remove(name string) error            { return s.inner.Remove(name) }

func (s *tracedSink) Sync() error {
	if s.t.on() {
		s.t.n.dirSyncs.Add(1)
	}
	return s.inner.Sync()
}

type tracedFile struct {
	inner durable.File
	t     *tracer
	shard int
}

func (f *tracedFile) Write(p []byte) (int, error) {
	if !f.t.on() {
		return f.inner.Write(p)
	}
	start := time.Now()
	n, err := f.inner.Write(p)
	f.t.n.walWriteNs.Add(uint64(time.Since(start)))
	f.t.n.walAppends.Add(1)
	f.t.n.walBytes.Add(uint64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	if !f.t.on() {
		return f.inner.Sync()
	}
	start := time.Now()
	err := f.inner.Sync()
	end := time.Now()
	f.t.n.fsyncs.Add(1)
	f.t.sample(&f.t.fsync, end.Sub(start))
	f.t.span("durable.fsync", start, end, f.shard, -1, 0)
	return err
}

func (f *tracedFile) Close() error { return f.inner.Close() }

// --- net.Listener / net.Conn -------------------------------------------

// tracedListener wraps every accepted connection. peer marks the
// replication listener; its counters are kept apart from client traffic.
// Every replication link is accepted by exactly one node, so the accepted
// ends together see all peer bytes in both directions.
type tracedListener struct {
	net.Listener
	t    *tracer
	peer bool
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, peer: l.peer, id: l.t.conns.Add(1)}, nil
}

// tracedConn counts reads, writes and bytes; the embedded Conn forwards
// deadlines, addresses and Close. (Wrapping hides *net.TCPConn from a type
// assertion; the only such assertion sets TCP_NODELAY, which Go already
// enables on every TCP connection.)
type tracedConn struct {
	net.Conn
	t    *tracer
	peer bool
	id   int32
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.on() {
		if c.peer {
			c.t.n.peerReads.Add(1)
			c.t.n.peerBytes.Add(uint64(n))
		} else {
			c.t.n.srvReads.Add(1)
			c.t.n.srvBytesIn.Add(uint64(n))
		}
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.t.on() {
		return c.Conn.Write(p)
	}
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	if c.peer {
		c.t.n.peerBytes.Add(uint64(n))
		return n, err
	}
	c.t.n.srvWrites.Add(1)
	c.t.n.srvBytesOut.Add(uint64(n))
	c.t.n.srvWriteNs.Add(uint64(end.Sub(start)))
	c.t.span("net.server_write", start, end, -1, int(c.id), 0)
	return n, err
}

// --- namesvc.Client / namesvc.Session ----------------------------------

// tracedClient times the client calls themselves (encode and buffer) and
// logs one span per acquire from the call to its grant callback, tagged
// with the connection and the request ID the service assigned.
type tracedClient struct {
	loadConn
	t    *tracer
	conn int
}

func (c tracedClient) Acquire(client uint64, cb func(namesvc.Grant, error)) error {
	if !c.t.on() {
		return c.loadConn.Acquire(client, cb)
	}
	start := time.Now()
	err := c.loadConn.Acquire(client, func(g namesvc.Grant, err error) {
		if err == nil {
			c.t.span("client.acquire", start, time.Now(), g.Shard, c.conn, g.ReqID)
		}
		cb(g, err)
	})
	c.t.n.acqCallNs.Add(uint64(time.Since(start)))
	c.t.n.acqCalls.Add(1)
	return err
}

func (c tracedClient) Release(name int, cb func(error)) error {
	if !c.t.on() {
		return c.loadConn.Release(name, cb)
	}
	start := time.Now()
	err := c.loadConn.Release(name, cb)
	c.t.n.relCallNs.Add(uint64(time.Since(start)))
	c.t.n.relCalls.Add(1)
	return err
}

// spanPath names a traced run's span file under the build directory.
func spanPath(o benchOptions) string {
	return filepath.Join(workRoot, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}
