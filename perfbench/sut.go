package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/namesvc/repl"
	"ballsintoleaves/internal/rng"
)

// workRoot holds everything a run writes: the durable workload's data
// directories and the traced runs' span files. It is relative to the
// directory the benchmark runs from (the checkout root), next to the
// build output.
const workRoot = ".bench_build"

// svcSpec configures one service workload's system under test and load.
type svcSpec struct {
	Shards   int `json:"shards"`
	ShardCap int `json:"shard_cap"`
	// Durable puts each shard's WAL on a durable.DirSink under workRoot
	// with group fsync behind a GroupGate.
	Durable bool `json:"durable_dirsink"`
	// Nodes is 1 for a standalone server; more runs a replicated cluster:
	// repl.Start + Server per node, FsyncGroup on a durable.MemSink,
	// automatic elections.
	Nodes int `json:"nodes"`
	// Each of the loadConns connections (Sessions on a cluster) keeps
	// InFlight acquires outstanding (closed loop).
	InFlight int `json:"in_flight_per_conn"`
	// Hold is the traffic mix: 0 is churn (every grant released at once);
	// otherwise each connection keeps a standing set of held names that
	// fills Hold of the namespace and releases its oldest per grant.
	Hold float64 `json:"hold_occupancy"`
	// Setups is how many times a run sets the system up to time setup_s;
	// the last one serves the measurement.
	Setups int `json:"setups"`
}

// loadConns is how many connections drive a service workload: the load
// shares the reference host's two vCPUs with the system under test.
const loadConns = 2

// warmup is how long the load runs after the hold set is full and before
// measurement.
const warmup = time.Second

// sut is one running system under test.
type sut struct {
	spec    svcSpec
	dir     string
	svcs    []*namesvc.Service
	nodes   []*repl.Node
	srvs    []*namesvc.Server
	lns     []net.Listener
	addrs   []string // client addresses, one per node
	sinks   [][]durable.Sink
	leader  int
	serving sync.WaitGroup
}

// svcConfig is the allocation configuration every node of a run shares.
func (spec svcSpec) svcConfig(seed uint64) namesvc.Config {
	return namesvc.Config{
		Shards:   spec.Shards,
		ShardCap: spec.ShardCap,
		Seed:     rng.DeriveSeed(seed, 0x5e41ce),
	}
}

// startSUT builds and starts the system through its public constructors.
// A non-nil tracer wraps every layer boundary.
func startSUT(spec svcSpec, seed uint64, tr *tracer) (s *sut, err error) {
	s = &sut{spec: spec, leader: -1}
	defer func() {
		if err != nil {
			s.close()
			s.removeData()
			s = nil
		}
	}()
	nodes := spec.Nodes
	clientLns := make([]net.Listener, nodes)
	replLns := make([]net.Listener, nodes)
	var peers []repl.PeerSpec
	for i := range nodes {
		if clientLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return s, err
		}
		s.lns = append(s.lns, clientLns[i])
		s.addrs = append(s.addrs, clientLns[i].Addr().String())
		if nodes > 1 {
			if replLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				return s, err
			}
			s.lns = append(s.lns, replLns[i])
			peers = append(peers, repl.PeerSpec{
				ReplAddr:   replLns[i].Addr().String(),
				ClientAddr: s.addrs[i],
			})
		}
	}
	if spec.Durable {
		if err = os.MkdirAll(workRoot, 0o755); err != nil {
			return s, err
		}
		if s.dir, err = os.MkdirTemp(workRoot, "wal-"); err != nil {
			return s, err
		}
	}
	for i := range nodes {
		cfg := spec.svcConfig(seed)
		var sinks []durable.Sink
		switch {
		case spec.Durable:
			if sinks, err = durable.ShardSinks(s.dir, spec.Shards); err != nil {
				return s, err
			}
		case nodes > 1:
			for range spec.Shards {
				sinks = append(sinks, durable.NewMemSink())
			}
		}
		if sinks != nil {
			s.sinks = append(s.sinks, sinks)
			if tr != nil {
				sinks = traceSinks(sinks, tr)
			}
			cfg.Durable = &namesvc.Durability{Sinks: sinks, Fsync: namesvc.FsyncGroup}
		}
		svc, err := namesvc.Open(cfg)
		if err != nil {
			return s, err
		}
		s.svcs = append(s.svcs, svc)
		var gate namesvc.CommitGate
		switch {
		case nodes > 1:
			ln := replLns[i]
			if tr != nil {
				ln = tracedListener{Listener: ln, t: tr, peer: true}
			}
			node, err := repl.Start(repl.Config{NodeID: i, Peers: peers, Service: svc, Listener: ln})
			if err != nil {
				return s, err
			}
			s.nodes = append(s.nodes, node)
			gate = node
		case spec.Durable:
			gate = namesvc.GroupGate(svc)
		}
		if gate != nil && tr != nil {
			gate = traceGate(gate, tr)
		}
		srv, err := namesvc.NewServer(namesvc.ServerConfig{Service: svc, Gate: gate})
		if err != nil {
			return s, err
		}
		s.srvs = append(s.srvs, srv)
		if nodes > 1 {
			s.nodes[i].SetServer(srv)
		}
		ln := clientLns[i]
		if tr != nil {
			ln = tracedListener{Listener: ln, t: tr}
		}
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			srv.Serve(ln)
		}()
	}
	if nodes == 1 {
		s.leader = 0
		return s, nil
	}
	s.leader, err = s.waitLeader(30 * time.Second)
	return s, err
}

// waitLeader polls until one node leads.
func (s *sut) waitLeader(limit time.Duration) (int, error) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		for i, n := range s.nodes {
			if n.IsLeader() {
				return i, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return -1, errors.New("no leader elected")
}

// svc is the service clients write to.
func (s *sut) svc() *namesvc.Service { return s.svcs[s.leader] }

// dialAddrs lists the client addresses with the leader's first, so a
// session connects to the leader directly.
func (s *sut) dialAddrs() []string {
	addrs := []string{s.addrs[s.leader]}
	for i, a := range s.addrs {
		if i != s.leader {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// close stops everything in dependency order. It returns the first Close
// error of a durable service.
func (s *sut) close() error {
	for _, ln := range s.lns {
		ln.Close()
	}
	for _, srv := range s.srvs {
		srv.Close()
	}
	s.serving.Wait()
	for _, n := range s.nodes {
		n.Close()
	}
	var first error
	for _, svc := range s.svcs {
		if err := svc.Close(); err != nil && first == nil {
			first = fmt.Errorf("closing service: %w", err)
		}
	}
	return first
}

// removeData deletes the durable workload's data directory.
func (s *sut) removeData() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// verifyRecovery reopens the durable workload's closed WAL directory and
// requires the recovered ledger to carry the digest the live service
// ended with.
func (s *sut) verifyRecovery(seed uint64, want uint64) error {
	cfg := s.spec.svcConfig(seed)
	cfg.Durable = &namesvc.Durability{Sinks: s.sinks[0], Fsync: namesvc.FsyncGroup}
	svc, err := namesvc.Open(cfg)
	if err != nil {
		return checkf("reopening the WAL: %v", err)
	}
	got := svc.Digest()
	if err := svc.Close(); err != nil {
		return fmt.Errorf("closing recovered service: %w", err)
	}
	if got != want {
		return checkf("recovered digest %#x, live service ended at %#x", got, want)
	}
	return nil
}
