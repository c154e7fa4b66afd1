// Example namesvc: the long-lived name-allocation service in-process —
// epoch-batched acquires, a sharded namespace ledger with release and
// reuse, and the determinism guarantee (replaying the same trace
// reproduces the same ledger digest).
//
// Run with: go run ./examples/namesvc
package main

import (
	"fmt"
	"log"

	"ballsintoleaves/internal/namesvc"
)

func main() {
	// Two independent shards of 8 names each; every epoch gives its batch,
	// in arrival order, the smallest free names of the shard.
	run := func() (*namesvc.Service, uint64) {
		svc, err := namesvc.New(namesvc.Config{Shards: 2, ShardCap: 8, Journal: true})
		if err != nil {
			log.Fatal(err)
		}

		// Ten clients arrive; closing the epochs grants each a unique name
		// from its shard's free pool.
		for client := uint64(1); client <= 10; client++ {
			if _, err := svc.Acquire(client, nil); err != nil {
				log.Fatal(err)
			}
		}
		grants, err := svc.CloseEpochs()
		if err != nil {
			log.Fatal(err)
		}
		byClient := make(map[uint64]namesvc.Grant, len(grants))
		for _, g := range grants {
			byClient[g.Client] = g
		}

		// Long-lived behaviour: releases return names for reuse; the next
		// epoch's batch draws on the freed slice of the namespace.
		for client := uint64(1); client <= 4; client++ {
			g := byClient[client]
			if err := svc.Release(g.Client, g.Name); err != nil {
				log.Fatal(err)
			}
		}
		for client := uint64(100); client <= 103; client++ {
			if _, err := svc.Acquire(client, nil); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := svc.CloseEpochs(); err != nil {
			log.Fatal(err)
		}
		return svc, svc.Digest()
	}

	svc, digest := run()
	st := svc.Stats()
	fmt.Printf("after two epoch waves: %d assigned, %d free, %d epochs, %d grants, %d releases\n",
		st.Assigned, st.Free, st.Epochs, st.Grants, st.Releases)
	for s := 0; s < svc.Shards(); s++ {
		fmt.Printf("shard %d journal:\n", s)
		for _, e := range svc.ShardJournal(s) {
			fmt.Printf("  epoch %d: %-7v client %-3d -> local name %d\n", e.Epoch, e.Op, e.Client, e.Name)
		}
	}

	// Determinism: an identical (trace, shards) replay reproduces the
	// assignment ledger bit for bit.
	_, again := run()
	fmt.Printf("ledger digest %016x, replay %016x, identical: %v\n", digest, again, digest == again)
}
