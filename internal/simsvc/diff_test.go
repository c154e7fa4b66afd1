package simsvc

import (
	"net"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc"
)

// TestDifferentialSimVsRealServer is the PR's proof obligation: the same
// scenario trace, replayed through a real manual-epoch blnamed-style server
// over loopback TCP, must land on the simulator's exact per-shard digests,
// grant stream, and journals. The simulator thereby becomes a trusted
// oracle for the whole service stack — wire protocol, burst ingestion,
// batched submission, epoch machinery, grant delivery.
func TestDifferentialSimVsRealServer(t *testing.T) {
	for _, name := range []string{"zipf-shards", "thundering-herd", "exhaustion"} {
		name := name
		t.Run(name, func(t *testing.T) {
			scn, err := Lookup(name, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := NewSim(scn, 7)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Trace.Ops) == 0 {
				t.Fatal("empty trace")
			}

			svc, err := namesvc.New(namesvc.Config{
				Shards:   scn.Shards,
				ShardCap: scn.ShardCap,
				MaxBatch: scn.MaxBatch,
				Journal:  true,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := namesvc.NewServer(namesvc.ServerConfig{Service: svc, ManualEpochs: true})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Close()

			rep, err := res.Trace.ReplayWire(ln.Addr().String(), 10*time.Second)
			if err != nil {
				t.Fatalf("wire replay: %v", err)
			}
			if d := res.Trace.Diff(rep); d != "" {
				t.Fatalf("sim and real server diverged: %s", d)
			}
		})
	}
}

// TestManualEpochRejectedOnOrdinaryServer pins the protocol boundary: a
// server without ManualEpochs refuses the epoch op with RejectUnsupported
// rather than perturbing its autonomous epoch loops.
func TestManualEpochRejectedOnOrdinaryServer(t *testing.T) {
	svc, err := namesvc.New(namesvc.Config{Shards: 1, ShardCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := namesvc.NewServer(namesvc.ServerConfig{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := namesvc.Dial(ln.Addr().String(), namesvc.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.EpochSync(0)
	rej, ok := err.(*namesvc.RejectError)
	if !ok || rej.Code != namesvc.RejectUnsupported {
		t.Fatalf("EpochSync on ordinary server: %v, want RejectUnsupported", err)
	}
}
