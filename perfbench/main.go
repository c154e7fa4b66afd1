// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the name service (or the paper's one-shot
// renaming engine), checks that every output is correct, and prints the
// workload's metrics by name with their units.
//
//	bash perfbench/run.sh --workload wire-volatile --seed 1 --seconds 10 --trace 0
//
// The system under test runs inside this process, built through its public
// constructors (namesvc.Open, namesvc.NewServer, repl.Start,
// ballsintoleaves.Rename) on loopback listeners, and the load comes from
// the same process over at most two connections. With --trace 0 the run
// reports the end-to-end metrics; with --trace 1 it runs the workload
// twice, untraced and then traced, and reports the per-layer metrics
// measured from outside each layer (see trace.go) plus the tracing
// overhead. Workloads, metrics and the predictions they test are described
// in README.md.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// prints no result and exits non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// benchOptions is the parsed command line.
type benchOptions struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func parseArgs(args []string) (benchOptions, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o benchOptions
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case lookupWorkload(o.workload) == nil:
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be >= 1, got %d", o.seconds)
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name to value.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// errCheck marks a failed correctness check: the run's outputs are wrong,
// so it reports no metrics.
var errCheck = errors.New("correctness check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

func main() {
	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	w := lookupWorkload(opts.workload)
	start := time.Now()
	res, err := w.run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opts.workload, err)
		os.Exit(1)
	}
	prov := collectProvenance(opts, w.config)
	prov.WallSeconds = time.Since(start).Seconds()
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = true
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloadNames lists the workloads for usage text.
func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names)
	return string(b)
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
