package namesvc

import (
	"reflect"
	"slices"
	"testing"
)

func TestLedgerAssignRelease(t *testing.T) {
	t.Parallel()
	l := newLedger(4, true, 0)
	if got := l.freeCount(); got != 4 {
		t.Fatalf("freeCount = %d, want 4", got)
	}
	l.assign(1, 10, 7, 2)
	l.assign(1, 11, 8, 1)
	if got := l.freeCount(); got != 2 {
		t.Fatalf("freeCount = %d, want 2", got)
	}
	if got := l.peekFree(2); got[0] != 3 || got[1] != 4 {
		t.Fatalf("free = %v, want [3 4]", got)
	}
	if err := l.release(1, 7, 2); err != nil {
		t.Fatal(err)
	}
	// Released names rejoin in sorted position.
	if got := l.peekFree(3); got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("free = %v, want [2 3 4]", got)
	}
	want := []Entry{
		{Epoch: 1, Op: OpAssign, Client: 7, ReqID: 10, Name: 2},
		{Epoch: 1, Op: OpAssign, Client: 8, ReqID: 11, Name: 1},
		{Epoch: 1, Op: OpRelease, Client: 7, Name: 2},
	}
	if len(l.entries) != len(want) {
		t.Fatalf("journal has %d entries, want %d", len(l.entries), len(want))
	}
	for i, e := range want {
		if l.entries[i] != e {
			t.Fatalf("journal[%d] = %+v, want %+v", i, l.entries[i], e)
		}
	}
}

func TestLedgerReleaseValidation(t *testing.T) {
	t.Parallel()
	l := newLedger(4, false, 0)
	l.assign(1, 10, 7, 1)
	for name, client := range map[int]uint64{
		0: 7, // out of range low
		5: 7, // out of range high
		2: 7, // not assigned
		1: 9, // wrong holder
	} {
		if err := l.release(1, client, name); err == nil {
			t.Errorf("release(client=%d, name=%d) succeeded, want error", client, name)
		}
	}
	if err := l.release(1, 7, 1); err != nil {
		t.Fatalf("valid release failed: %v", err)
	}
	if err := l.release(1, 7, 1); err == nil {
		t.Fatal("double release succeeded, want error")
	}
}

func TestLedgerAssignNonFreePanics(t *testing.T) {
	t.Parallel()
	l := newLedger(2, false, 0)
	l.assign(1, 10, 7, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("assigning a held name did not panic")
		}
	}()
	l.assign(1, 11, 8, 1)
}

func TestLedgerDigestTracksHistory(t *testing.T) {
	t.Parallel()
	a, b := newLedger(4, false, 0), newLedger(4, false, 0)
	if a.digest != b.digest {
		t.Fatal("fresh ledgers differ")
	}
	a.assign(1, 10, 7, 1)
	b.assign(1, 10, 7, 1)
	if a.digest != b.digest {
		t.Fatal("identical histories produced different digests")
	}
	// Same multiset of events in a different order must differ: the
	// digest is a history hash, not a state hash.
	c, d := newLedger(4, false, 0), newLedger(4, false, 0)
	c.assign(1, 10, 7, 1)
	c.assign(1, 11, 8, 2)
	d.assign(1, 11, 8, 2)
	d.assign(1, 10, 7, 1)
	if c.digest == d.digest {
		t.Fatal("different histories collided")
	}
}

// TestLedgerPermutedBatchReplay keeps non-identity assignment orders under
// replay test. The service always gives batch position i the i-th smallest
// free name; here one batch instead takes the free names through an
// explicit permutation, over a free pool fragmented by earlier releases.
// Two replays of the permuted batch must agree entry for entry and digest
// for digest, and both must differ from the identity assignment of the
// same batch — the same names handed to different holders — so the digest
// and the journal really do see the assignment order.
func TestLedgerPermutedBatchReplay(t *testing.T) {
	t.Parallel()
	// run builds a 64-name ledger, grants names 1..40 in epoch 1 and
	// releases every third, then assigns a batch of len(perm) requests in
	// epoch 2: position i takes the perm[i]-th smallest free name.
	run := func(perm []int) *ledger {
		l := newLedger(64, true, 0)
		for name := 1; name <= 40; name++ {
			l.assign(1, uint64(name), uint64(1000+name), name)
		}
		l.epoch = 1
		for name := 1; name <= 40; name += 3 {
			if err := l.release(1, uint64(1000+name), name); err != nil {
				t.Fatal(err)
			}
		}
		free := l.peekFree(len(perm))
		l.epoch = 2
		for i, p := range perm {
			l.assign(2, uint64(100+i), uint64(2000+i), free[p])
		}
		return l
	}
	const n = 20
	identity := make([]int, n)
	perm := make([]int, n)
	for i := range perm {
		identity[i] = i
		perm[i] = (7*i + 3) % n // a permutation with no fixed point
	}
	a, b, id := run(perm), run(perm), run(identity)
	if a.digest != b.digest || !reflect.DeepEqual(a.journalWindow(), b.journalWindow()) {
		t.Fatalf("two replays of the permuted batch diverged: digests %x vs %x", a.digest, b.digest)
	}
	if a.digest == id.digest {
		t.Fatal("permuted and identity assignments share a digest")
	}
	if reflect.DeepEqual(a.journalWindow(), id.journalWindow()) {
		t.Fatal("permuted and identity assignments share a journal")
	}
	// Same names left the pool; only their holders differ.
	if !reflect.DeepEqual(a.words, id.words) || a.freeCount() != id.freeCount() {
		t.Fatal("permuted batch drew different names than the identity batch")
	}
	if slices.Equal(a.holder, id.holder) {
		t.Fatal("permuted batch gave every name the same holder as the identity batch")
	}
}
