package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc"
)

// buildDaemon compiles the blnamed binary once into dir and returns its path.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	bin := filepath.Join(dir, "blnamed")
	out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running blnamed process plus the address it reported.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *strings.Builder
}

// startDaemon launches bin with args plus -listen 127.0.0.1:0 and parses
// the bound address out of the startup banner.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	// Banner: "blnamed: serving N shard(s) x M names on ADDR (...)".
	sc := bufio.NewScanner(stdout)
	addr := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, " names on "); ok {
				if a, _, ok := strings.Cut(rest, " ("); ok {
					addr <- a
					break
				}
			}
		}
		close(addr)
		// Drain the rest so the daemon never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("daemon exited before banner; stderr:\n%s", errBuf.String())
		}
		return &daemon{cmd: cmd, addr: a, stderr: &errBuf}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon banner timeout")
	}
	panic("unreachable")
}

// TestKillNineRecovery is the restart gate from the issue: a blnamed
// kill-9'd mid-life and restarted from its -data-dir must come back with
// identical per-shard digests and still serve releases for names granted
// before the crash — via the reclaim handshake, since the new process has
// no connection that holds them.
func TestKillNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	t.Parallel()
	scratch := t.TempDir()
	bin := buildDaemon(t, scratch)
	dataDir := filepath.Join(scratch, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	durableArgs := []string{"-shards", "2", "-shard-cap", "64",
		"-quiet", "-data-dir", dataDir, "-fsync", "epoch", "-snapshot-every", "8"}

	// Generation 1: grant names, release a few, then die without warning.
	d1 := startDaemon(t, bin, durableArgs...)
	c1, err := namesvc.Dial(d1.addr, namesvc.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	held := map[uint64]int{} // client -> name still held at the crash
	for client := uint64(1); client <= 12; client++ {
		g, err := c1.AcquireSync(client)
		if err != nil {
			t.Fatal(err)
		}
		held[client] = g.Name
	}
	for client := uint64(1); client <= 3; client++ {
		if err := c1.ReleaseSync(held[client]); err != nil {
			t.Fatal(err)
		}
		delete(held, client)
	}
	before, err := c1.StatsSync()
	if err != nil {
		t.Fatal(err)
	}
	if before.Assigned != len(held) {
		t.Fatalf("pre-crash assigned = %d, held %d", before.Assigned, len(held))
	}
	if len(before.Digests) != 2 || before.WALRecords == 0 {
		t.Fatalf("pre-crash stats not durable-shaped: %+v", before)
	}
	// Kill while the connection is still open: closing it first would
	// trigger the server's disconnect cleanup, which releases held names.
	if err := d1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no checkpoint
		t.Fatal(err)
	}
	d1.cmd.Wait()
	c1.Close()

	// Generation 2: recover from the same data dir.
	d2 := startDaemon(t, bin, durableArgs...)
	c2, err := namesvc.Dial(d2.addr, namesvc.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := c2.StatsSync()
	if err != nil {
		t.Fatal(err)
	}
	if after.Assigned != before.Assigned {
		t.Fatalf("recovered assigned = %d, want %d", after.Assigned, before.Assigned)
	}
	if len(after.Digests) != len(before.Digests) {
		t.Fatalf("recovered %d digests, want %d", len(after.Digests), len(before.Digests))
	}
	for i := range before.Digests {
		if after.Digests[i] != before.Digests[i] {
			t.Fatalf("shard %d digest %016x after crash, want %016x",
				i, after.Digests[i], before.Digests[i])
		}
	}

	// The restart gate proper: every pre-crash grant must be releasable.
	// Releasing without reclaiming must be refused — this connection does
	// not hold the name — and reclaiming with the wrong client must fail.
	for client, name := range held {
		if err := c2.ReleaseSync(name); err == nil {
			t.Fatalf("release of un-reclaimed name %d accepted", name)
		}
		if err := c2.ReclaimSync(client+1000, name); err == nil {
			t.Fatalf("reclaim of name %d by wrong client accepted", name)
		}
		if err := c2.ReclaimSync(client, name); err != nil {
			t.Fatalf("reclaim client %d name %d: %v", client, name, err)
		}
		if err := c2.ReleaseSync(name); err != nil {
			t.Fatalf("release of reclaimed name %d: %v", name, err)
		}
	}
	final, err := c2.StatsSync()
	if err != nil {
		t.Fatal(err)
	}
	if final.Assigned != 0 {
		t.Fatalf("after releasing every pre-crash grant, assigned = %d", final.Assigned)
	}
	// Released capacity must be re-grantable by the recovered process.
	if _, err := c2.AcquireSync(7777); err != nil {
		t.Fatalf("acquire after recovery: %v", err)
	}
	c2.Close()

	// SIGTERM drain: exit 0 and a final per-shard checkpoint line, so the
	// next boot recovers from a snapshot rather than a log replay. Closing
	// the connection first releases client 7777's name via the disconnect
	// cleanup; the drain checkpoint captures that empty state.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v; stderr:\n%s", err, d2.stderr.String())
	}
	drained := make([]uint64, 2)
	for shard := range drained {
		prefix := fmt.Sprintf("shard %d: final checkpoint at epoch", shard)
		line := ""
		for _, l := range strings.Split(d2.stderr.String(), "\n") {
			if strings.Contains(l, prefix) {
				line = l
				break
			}
		}
		if line == "" {
			t.Fatalf("drain log missing %q; stderr:\n%s", prefix, d2.stderr.String())
		}
		_, hex, ok := strings.Cut(line, "digest ")
		if !ok {
			t.Fatalf("drain line %q has no digest", line)
		}
		if _, err := fmt.Sscanf(hex, "%x", &drained[shard]); err != nil {
			t.Fatalf("drain line %q: %v", line, err)
		}
	}

	// Generation 3: a clean-shutdown data dir restores exactly the state
	// the drain logged.
	d3 := startDaemon(t, bin, durableArgs...)
	c3, err := namesvc.Dial(d3.addr, namesvc.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	third, err := c3.StatsSync()
	if err != nil {
		t.Fatal(err)
	}
	if third.Assigned != 0 {
		t.Fatalf("generation-3 assigned = %d, want 0", third.Assigned)
	}
	for i, want := range drained {
		if third.Digests[i] != want {
			t.Fatalf("generation-3 shard %d digest %016x, drain logged %016x",
				i, third.Digests[i], want)
		}
	}
	c3.Close()
}
