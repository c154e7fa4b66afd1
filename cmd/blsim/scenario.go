package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/simsvc"
)

// scenarioMain is blsim's service-simulation mode: it runs named scenarios
// from the simsvc library under virtual time, optionally sweeps a seed
// matrix (-seeds), emits deterministic JSON artifacts (-json), and can pin
// each wire-replayable scenario against a real in-process server over
// loopback TCP (-diff) — the CI scenario-smoke entry point.
func scenarioMain(scenario string, seed uint64, seeds int, scale float64, jsonOut, diff bool) {
	var scenarios []simsvc.Scenario
	if scenario == "all" {
		scenarios = simsvc.Library(scale)
	} else {
		scn, err := simsvc.Lookup(scenario, scale)
		if err != nil {
			fatal(err)
		}
		scenarios = []simsvc.Scenario{scn}
	}
	if seeds < 1 {
		seeds = 1
	}

	failures := 0
	artifacts := 0
	if jsonOut && len(scenarios)*seeds > 1 {
		fmt.Println("[")
	}
	for _, scn := range scenarios {
		for s := 0; s < seeds; s++ {
			res, err := runOne(scn, seed+uint64(s))
			if err != nil {
				fatal(err)
			}
			if res.Duplicates != 0 {
				fmt.Fprintf(os.Stderr, "blsim: %s seed %d: %d DUPLICATE grants\n", scn.Name, res.Seed, res.Duplicates)
				failures++
			}
			if jsonOut {
				b, err := res.Artifact()
				if err != nil {
					fatal(err)
				}
				if artifacts > 0 {
					fmt.Println(",")
				}
				os.Stdout.Write(b)
				artifacts++
			} else {
				fmt.Printf("%-16s seed %-3d  %7d acquires  %6d epochs  p50 %5dus  p99 %5dus  pending %4d  crashes %3d  digest %016x...\n",
					scn.Name, res.Seed, res.Acquires, res.Epochs,
					res.LatencyP50/1000, res.LatencyP99/1000, res.PendingEnd, res.Crashes, res.Digests[0])
			}
			if diff {
				switch {
				case !scn.WireReplayable:
					if !jsonOut {
						fmt.Printf("%-16s seed %-3d  diff skipped (sim-only scenario)\n", scn.Name, res.Seed)
					}
				default:
					if err := diffAgainstRealServer(scn, res); err != nil {
						fmt.Fprintf(os.Stderr, "blsim: %s seed %d: DIFFERENTIAL FAILED: %v\n", scn.Name, res.Seed, err)
						failures++
					} else if !jsonOut {
						fmt.Printf("%-16s seed %-3d  diff ok: sim == real server (digests, grants, journals)\n", scn.Name, res.Seed)
					}
				}
			}
		}
	}
	if jsonOut && len(scenarios)*seeds > 1 {
		fmt.Println("]")
	}
	if failures > 0 {
		os.Exit(1)
	}
}

func runOne(scn simsvc.Scenario, seed uint64) (*simsvc.Result, error) {
	sim, err := simsvc.NewSim(scn, seed)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// diffAgainstRealServer replays the recorded trace through a real
// manual-epoch server over loopback TCP and compares digests, the grant
// stream, and journals against the simulator's.
func diffAgainstRealServer(scn simsvc.Scenario, res *simsvc.Result) error {
	svc, err := namesvc.New(namesvc.Config{
		Shards:   scn.Shards,
		ShardCap: scn.ShardCap,
		MaxBatch: scn.MaxBatch,
		Journal:  true,
	})
	if err != nil {
		return err
	}
	srv, err := namesvc.NewServer(namesvc.ServerConfig{Service: svc, ManualEpochs: true})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	defer srv.Close()
	rep, err := res.Trace.ReplayWire(ln.Addr().String(), 30*time.Second)
	if err != nil {
		return err
	}
	if d := res.Trace.Diff(rep); d != "" {
		return fmt.Errorf("%s", d)
	}
	return nil
}

func listScenarios() {
	for _, scn := range simsvc.Library(1) {
		mode := "sim+wire"
		if !scn.WireReplayable {
			mode = "sim-only"
		}
		fmt.Printf("%-16s %-8s %d clients on %dx%d, %dms virtual\n    %s\n",
			scn.Name, mode, scn.Clients, scn.Shards, scn.ShardCap, scn.Duration/1_000_000, scn.Description)
	}
}
