package namesvc

import (
	"errors"
	"testing"
	"time"

	"ballsintoleaves/internal/faultnet"
)

// sessionTestConfig returns a SessionConfig tuned for fast fault
// detection in tests.
func sessionTestConfig(addrs ...string) SessionConfig {
	return SessionConfig{
		Addrs:          addrs,
		Client:         ClientConfig{Timeout: 300 * time.Millisecond},
		OpTimeout:      500 * time.Millisecond,
		ConnectTimeout: 5 * time.Second,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     100 * time.Millisecond,
		Seed:           42,
	}
}

func TestSessionBasicOps(t *testing.T) {
	t.Parallel()
	svc, addr := startServer(t, Config{ShardCap: 32})
	cfg := sessionTestConfig(addr)
	cfg.OpTimeout = 5 * time.Second
	s, err := DialSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); s.Wait() }()

	if got, want := s.Capacity(), 32; got != want {
		t.Fatalf("capacity %d, want %d", got, want)
	}
	g, err := s.AcquireSync(7)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if held := s.Held(); len(held) != 1 || held[g.Name] != 7 {
		t.Fatalf("held %v after acquire of %d", held, g.Name)
	}
	st, err := s.StatsSync()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Assigned != 1 {
		t.Fatalf("assigned %d, want 1", st.Assigned)
	}
	if err := s.ReleaseSync(g.Name); err != nil {
		t.Fatalf("release: %v", err)
	}
	if held := s.Held(); len(held) != 0 {
		t.Fatalf("held %v after release", held)
	}
	waitFor(t, "release visible", func() bool {
		return svc.Stats().Assigned == 0
	})
}

func TestSessionClosedRejectsOps(t *testing.T) {
	t.Parallel()
	_, addr := startServer(t, Config{ShardCap: 8})
	s, err := DialSession(sessionTestConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Wait()
	if _, err := s.AcquireSync(1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("acquire on closed session: %v", err)
	}
}

func TestSessionDialFailsWhenUnreachable(t *testing.T) {
	t.Parallel()
	cfg := sessionTestConfig("127.0.0.1:1") // nothing listens there
	cfg.ConnectTimeout = 300 * time.Millisecond
	if _, err := DialSession(cfg); err == nil {
		t.Fatal("DialSession reached a dead address")
	}
}

func TestSessionOpTimeoutUnderPartition(t *testing.T) {
	t.Parallel()
	_, addr := startServer(t, Config{ShardCap: 16})
	link := faultnet.NewLink("c0")
	p, err := faultnet.NewProxy("127.0.0.1:0", addr, link)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	s, err := DialSession(sessionTestConfig(p.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); s.Wait() }()
	if _, err := s.AcquireSync(1); err != nil {
		t.Fatalf("warm acquire: %v", err)
	}
	link.Partition(false)
	start := time.Now()
	if _, err := s.AcquireSync(2); !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("acquire under partition: %v, want ErrOpTimeout", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("timeout took %v, want ~OpTimeout", d)
	}
}

// TestSessionReconnectsAfterReset pins the self-healing loop: a reset
// connection is replaced without any caller re-dial, and the next op
// succeeds.
func TestSessionReconnectsAfterReset(t *testing.T) {
	t.Parallel()
	_, addr := startServer(t, Config{ShardCap: 16})
	link := faultnet.NewLink("c0")
	p, err := faultnet.NewProxy("127.0.0.1:0", addr, link)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	s, err := DialSession(sessionTestConfig(p.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); s.Wait() }()
	g, err := s.AcquireSync(1)
	if err != nil {
		t.Fatalf("warm acquire: %v", err)
	}
	if err := s.ReleaseSync(g.Name); err != nil {
		t.Fatalf("warm release: %v", err)
	}
	link.ResetConns()
	// The next op may race the reset notice; ride through with retries.
	waitFor(t, "post-reset acquire", func() bool {
		g, err := s.AcquireSync(2)
		if err != nil {
			return false
		}
		s.ReleaseSync(g.Name)
		return true
	})
	if c := s.Counters(); c.Reconnects == 0 {
		t.Fatalf("counters %+v: no reconnect recorded", c)
	}
}

// TestSessionReclaimStealBeatsTeardown pins the binding-authority fix:
// a session that reconnects (via a second route to the same server) and
// reclaims its grants while the old connection's FIN is still stalled in
// a partition must keep every grant when the old connection's teardown
// finally runs — the teardown must not release stolen names.
func TestSessionReclaimStealBeatsTeardown(t *testing.T) {
	t.Parallel()
	svc, addr := startServer(t, Config{ShardCap: 32})
	link1 := faultnet.NewLink("route1")
	p1, err := faultnet.NewProxy("127.0.0.1:0", addr, link1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p1.Close() })
	link2 := faultnet.NewLink("route2")
	p2, err := faultnet.NewProxy("127.0.0.1:0", addr, link2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p2.Close() })

	s, err := DialSession(sessionTestConfig(p1.Addr(), p2.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); s.Wait() }()

	const holders = 4
	names := make([]int, 0, holders)
	for i := 0; i < holders; i++ {
		g, err := s.AcquireSync(uint64(101 + i))
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		names = append(names, g.Name)
	}

	// Partition route 1 completely: the server cannot learn the old
	// connection died (the FIN is stalled), so its teardown is pending
	// while the session reconnects via route 2 and reclaims.
	link1.Partition(false)
	if _, err := s.AcquireSync(105); !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("acquire during partition: %v, want ErrOpTimeout", err)
	}
	waitFor(t, "reconnect via route 2", func() bool {
		return s.Counters().Reconnects >= 1
	})
	c := s.Counters()
	if c.Lost != 0 || c.Reclaimed != holders {
		t.Fatalf("counters %+v: want %d reclaimed, 0 lost", c, holders)
	}
	if held := s.Held(); len(held) != holders {
		t.Fatalf("held %v, want the %d pre-partition grants", held, holders)
	}
	g5, err := s.AcquireSync(106)
	if err != nil {
		t.Fatalf("post-reconnect acquire: %v", err)
	}

	// Heal: the stalled FIN arrives, the old connection's teardown runs —
	// and must skip every stolen name.
	link1.Heal()
	time.Sleep(500 * time.Millisecond)

	for _, name := range append(names, g5.Name) {
		if err := s.ReleaseSync(name); err != nil {
			t.Fatalf("release of %d after teardown: %v (teardown released a stolen grant?)", name, err)
		}
	}
	waitFor(t, "all names free", func() bool {
		return svc.Stats().Assigned == 0
	})
	if c := s.Counters(); c.Lost != 0 {
		t.Fatalf("counters %+v: grants lost", c)
	}
}

// TestSessionGrantLostReporting pins the other side of the coin: when
// the server's teardown legitimately wins (it revoked the grants before
// the session could reclaim), the session reports each lost grant via
// OnGrantLost and drops it from Held — exact accounting either way.
func TestSessionGrantLostReporting(t *testing.T) {
	t.Parallel()
	svc, addr := startServer(t, Config{ShardCap: 16})
	link := faultnet.NewLink("c0")
	p, err := faultnet.NewProxy("127.0.0.1:0", addr, link)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	lost := make(chan int, 16)
	cfg := sessionTestConfig(p.Addr())
	cfg.OnGrantLost = func(client uint64, name int) { lost <- name }
	s, err := DialSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); s.Wait() }()

	g, err := s.AcquireSync(7)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// Reset both sides: the server sees the death immediately and its
	// teardown revokes the grant before the session can reclaim. The
	// session only notices a dead connection when an op fails, so wait
	// for the revocation first, then drive ops until the reconnect (and
	// with it the reclaim pass) has happened.
	link.ResetConns()
	waitFor(t, "teardown revoked the grant", func() bool {
		return svc.Stats().Assigned == 0
	})
	waitFor(t, "session reconnected", func() bool {
		s.StatsSync()
		return s.Counters().Reconnects >= 1
	})
	select {
	case name := <-lost:
		if name != g.Name {
			t.Fatalf("lost %d, want %d", name, g.Name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnGrantLost never fired")
	}
	if held := s.Held(); len(held) != 0 {
		t.Fatalf("held %v after revocation", held)
	}
	if c := s.Counters(); c.Lost != 1 {
		t.Fatalf("counters %+v: want Lost=1", c)
	}
	// A release of the lost grant — issued by a caller who had not yet
	// seen OnGrantLost — reaches its goal: the name is not held here.
	if err := s.ReleaseSync(g.Name); err != nil {
		t.Fatalf("release of a lost grant: %v", err)
	}
	// The release settled the lost name: releasing it again answers NotHeld.
	var rej *RejectError
	if err := s.ReleaseSync(g.Name); !errors.As(err, &rej) || rej.Code != RejectNotHeld {
		t.Fatalf("second release of a lost grant: %v, want NotHeld", err)
	}
}
