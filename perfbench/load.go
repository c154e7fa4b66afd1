package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/rng"
)

// loadConn is the client surface the load generator drives: a raw
// *namesvc.Client or a self-healing *namesvc.Session.
type loadConn interface {
	Acquire(client uint64, cb func(namesvc.Grant, error)) error
	Release(name int, cb func(error)) error
	Flush() error
	Close() error
	Wait()
}

// Load phases. Operations completing in phaseMeasure count; an acquire's
// latency counts only when it was also issued in phaseMeasure, so warmup
// operations are excluded.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// generator is the closed-loop load of one service run: one connLoad per
// connection, all sharing the active-name table that proves no name is
// granted twice.
type generator struct {
	capacity int
	active   []atomic.Uint32 // name -> 1 while granted and not yet released
	phase    atomic.Int32
	start    time.Time // measurement start; written before phase turns phaseMeasure
	window   time.Duration
	windows  int
	loads    []*connLoad

	failed   atomic.Uint64 // failed operations in the window
	failOnce sync.Once
	releases sync.WaitGroup
	mu       sync.Mutex
	violate  error // first correctness violation
}

// connLoad is one connection's share of the load. Grant callbacks run on
// the connection's read goroutine and hand each grant to the connLoad's
// worker goroutine, which releases and re-acquires off the read path.
type connLoad struct {
	g      *generator
	id     int
	c      loadConn
	seed   uint64
	nextID atomic.Uint64

	comp     chan completion // capacity InFlight: one per outstanding acquire
	inflight atomic.Int64
	done     chan struct{} // closed when stopping and the last acquire completed
	doneOnce sync.Once
	relCB    func(error)

	// Owned by the read goroutine until the run stops.
	lat    []latHist // per-window acquire latencies
	grants atomic.Uint64

	// Owned by the worker goroutine.
	held       []int // FIFO of held names, oldest first
	holdTarget int
	filled     chan struct{} // closed once held reaches holdTarget
	rnd        *rng.Source
}

func newGenerator(capacity int, windows int, window time.Duration) *generator {
	return &generator{
		capacity: capacity,
		active:   make([]atomic.Uint32, capacity+1),
		window:   window,
		windows:  windows,
	}
}

// addLoad attaches one connection. holdTarget 0 is the churn mix.
func (g *generator) addLoad(c loadConn, inflight, holdTarget int, seed uint64) *connLoad {
	d := &connLoad{
		g:          g,
		id:         len(g.loads),
		c:          c,
		seed:       rng.DeriveSeed(seed, uint64(len(g.loads))),
		comp:       make(chan completion, inflight),
		done:       make(chan struct{}),
		lat:        make([]latHist, g.windows),
		holdTarget: holdTarget,
		filled:     make(chan struct{}),
	}
	d.rnd = rng.New(rng.DeriveSeed(d.seed, 0x401d))
	d.relCB = func(err error) {
		if err != nil {
			g.violation(fmt.Errorf("release failed: %w", err))
		}
		g.releases.Done()
	}
	if holdTarget == 0 {
		close(d.filled)
	}
	g.loads = append(g.loads, d)
	return d
}

// logFailure reports the first failed operation on stderr.
func (g *generator) logFailure(conn int, err error) {
	g.failOnce.Do(func() { fmt.Fprintf(os.Stderr, "perfbench: conn %d: acquire failed: %v\n", conn, err) })
}

// violation records the first failed correctness check.
func (g *generator) violation(err error) {
	g.mu.Lock()
	if g.violate == nil {
		g.violate = err
	}
	g.mu.Unlock()
}

func (g *generator) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.violate != nil {
		return checkf("%v", g.violate)
	}
	return nil
}

// slot is one outstanding-acquire position of a connLoad. Its grant
// callback is bound once, so issuing an acquire allocates nothing and the
// load generator adds no garbage of its own to the heap it measures.
type slot struct {
	d  *connLoad
	t0 time.Time
	cb func(namesvc.Grant, error)
}

// completion is one grant handed from the read goroutine to the worker.
type completion struct {
	s  *slot
	gr namesvc.Grant
}

// clientID is the next client identity of this connection: a seeded
// stream, so the shard each acquire routes to follows from the seed.
func (d *connLoad) clientID() uint64 {
	return rng.DeriveSeed(d.seed, d.nextID.Add(1)) | 1
}

// start launches the worker and the connection's first InFlight acquires.
func (d *connLoad) start(inflight int, wg *sync.WaitGroup) {
	wg.Add(1)
	go d.work(wg)
	for range inflight {
		s := &slot{d: d}
		s.cb = s.granted
		d.inflight.Add(1)
		d.fire(s)
	}
	d.c.Flush()
}

func (d *connLoad) fire(s *slot) {
	s.t0 = time.Now()
	if err := d.c.Acquire(d.clientID(), s.cb); err != nil {
		d.failed(err)
		d.finish()
	}
}

// failed counts an acquire that was rejected, errored or timed out in the
// measurement window. The slot retires, so the load runs one short.
func (d *connLoad) failed(err error) {
	if d.g.phase.Load() == phaseMeasure {
		d.g.failed.Add(1)
	}
	d.g.logFailure(d.id, err)
}

// granted runs on the read goroutine: account, check, hand off.
func (s *slot) granted(gr namesvc.Grant, err error) {
	d := s.d
	if err != nil {
		d.failed(err)
		d.finish()
		return
	}
	g := d.g
	if g.phase.Load() == phaseMeasure {
		now := time.Now()
		d.grants.Add(1)
		if !s.t0.Before(g.start) {
			if w := int(now.Sub(g.start) / g.window); w < len(d.lat) {
				d.lat[w].record(now.Sub(s.t0).Nanoseconds())
			}
		}
	}
	if gr.Name < 1 || gr.Name > g.capacity {
		g.violation(fmt.Errorf("grant of name %d outside 1..%d", gr.Name, g.capacity))
	} else if !g.active[gr.Name].CompareAndSwap(0, 1) {
		g.violation(fmt.Errorf("name %d granted while still held", gr.Name))
	}
	d.comp <- completion{s, gr} // never blocks: one slot per outstanding acquire
}

// work drains grants: keep or release the name, then re-acquire. It
// flushes once the channel runs dry so a burst leaves as one write.
func (d *connLoad) work(wg *sync.WaitGroup) {
	defer wg.Done()
	for c := range d.comp {
		for more := true; more; {
			d.handle(c)
			select {
			case c, more = <-d.comp:
				if !more {
					d.c.Flush()
					return
				}
			default:
				more = false
			}
		}
		d.c.Flush()
		runtime.Gosched()
	}
}

func (d *connLoad) handle(c completion) {
	gr := c.gr
	stopping := d.g.phase.Load() == phaseStop
	if d.holdTarget == 0 {
		d.release(gr.Name)
	} else {
		d.held = append(d.held, gr.Name)
		select {
		case <-d.filled:
			if !stopping {
				d.release(d.held[0])
				d.held = d.held[1:]
			}
		default:
			if len(d.held) >= d.holdTarget {
				// The hold order: the standing set is shuffled once with
				// the seed, so the first releases scatter free names across
				// the namespace; after that the oldest name goes first.
				for i := len(d.held) - 1; i > 0; i-- {
					j := int(d.rnd.Uint64() % uint64(i+1))
					d.held[i], d.held[j] = d.held[j], d.held[i]
				}
				close(d.filled)
			}
		}
	}
	if stopping {
		d.finish()
		return
	}
	d.fire(c.s)
}

// release returns one name. The table marks it free before the frame is
// sent: once the server processes it the name may be granted again.
func (d *connLoad) release(name int) {
	d.g.active[name].Store(0)
	d.g.releases.Add(1)
	if err := d.c.Release(name, d.relCB); err != nil {
		d.g.releases.Done()
		d.g.violation(fmt.Errorf("release of %d failed: %w", name, err))
	}
}

func (d *connLoad) finish() {
	if d.inflight.Add(-1) == 0 && d.g.phase.Load() == phaseStop {
		d.doneOnce.Do(func() { close(d.done) })
	}
}

// stop ends the load and waits, within limit, for every outstanding
// acquire to complete, then stops the workers and releases every held
// name, waiting for each release to be acknowledged.
func (g *generator) stop(workers *sync.WaitGroup, limit time.Duration) error {
	g.phase.Store(phaseStop)
	deadline := time.After(limit)
	for _, d := range g.loads {
		d.c.Flush()
		if d.inflight.Load() == 0 {
			d.doneOnce.Do(func() { close(d.done) })
		}
		select {
		case <-d.done:
		case <-deadline:
			return fmt.Errorf("conn %d: %d acquires still outstanding after %v", d.id, d.inflight.Load(), limit)
		}
	}
	for _, d := range g.loads {
		close(d.comp)
	}
	workers.Wait()
	for _, d := range g.loads {
		for _, name := range d.held {
			d.release(name)
		}
		d.held = nil
		d.c.Flush()
	}
	released := make(chan struct{})
	go func() {
		g.releases.Wait()
		close(released)
	}()
	select {
	case <-released:
		return nil
	case <-time.After(limit):
		return fmt.Errorf("releases not acknowledged within %v", limit)
	}
}

// grantsTotal sums the grants counted in the measurement window so far.
func (g *generator) grantsTotal() uint64 {
	var n uint64
	for _, d := range g.loads {
		n += d.grants.Load()
	}
	return n
}
