package main

import "fmt"

// metricDef names one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json (TestMetricListsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports on every workload. On
// oneshot-rename an "acquire" is one process deciding its name, and each
// metric is the geometric mean over the three instance kinds (README.md).
var endToEnd = []metricDef{
	{"acquires_per_s", "1/s", "higher"},
	{"acquire_p50_us", "us", "lower"},
	{"acquire_p90_us", "us", "lower"},
	{"cpu_us_per_acquire", "us", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer a workload does not reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_rate", "frac", "lower"},
		{"trace.overhead_p50", "frac", "lower"},
		{"trace.overhead_cpu", "frac", "lower"},

		{"service.grants_per_epoch", "count", "higher"},
		{"service.epochs_per_s", "1/s", "lower"},
		{"service.absorbed_frac", "frac", "lower"},
		{"service.free_frac_mean", "frac", "higher"},

		{"net.server_reads_per_acquire", "count", "lower"},
		{"net.server_writes_per_acquire", "count", "lower"},
		{"net.bytes_in_per_acquire", "B", "lower"},
		{"net.bytes_out_per_acquire", "B", "lower"},
		{"net.write_us_mean", "us", "lower"},
		{"client.acquire_call_us_mean", "us", "lower"},
		{"client.release_call_us_mean", "us", "lower"},
		{"client.acquire_p99_us", "us", "lower"},

		{"gate.wait_p50_us", "us", "lower"},
		{"gate.wait_p99_us", "us", "lower"},
		{"gate.wait_share", "frac", "lower"},

		{"durable.fsyncs_per_acquire", "count", "lower"},
		{"durable.fsync_p50_us", "us", "lower"},
		{"durable.fsync_p99_us", "us", "lower"},
		{"durable.appends_per_acquire", "count", "lower"},
		{"durable.bytes_per_acquire", "B", "lower"},
		{"durable.write_us_mean", "us", "lower"},
		{"durable.checkpoints", "count", "lower"},
		{"durable.dir_syncs", "count", "lower"},

		{"repl.peer_bytes_per_acquire", "B", "lower"},
		{"repl.peer_reads_per_acquire", "count", "lower"},
		{"repl.follower_lag_p99_records", "count", "lower"},
		{"repl.elections", "count", "lower"},

		{"go.sched_latency_p99_us", "us", "lower"},
		{"go.gc_pause_p99_us", "us", "lower"},
		{"go.gc_cycles_per_s", "1/s", "lower"},
		{"go.alloc_bytes_per_acquire", "B", "lower"},
		{"go.allocs_per_acquire", "count", "lower"},

		{"rename.ff_names_per_s", "1/s", "higher"},
		{"rename.crash_names_per_s", "1/s", "higher"},
		{"rename.goroutine_names_per_s", "1/s", "higher"},
		{"rename.rounds_ff", "count", "lower"},
		{"rename.rounds_crash", "count", "lower"},
		{"rename.messages_per_name_ff", "count", "lower"},
		{"rename.bytes_per_name_ff", "B", "lower"},
		{"rename.allocs_per_name_ff", "count", "lower"},
		{"rename.allocs_per_name_crash", "count", "lower"},
		{"rename.call_ms_goroutine", "ms", "lower"},

		{"cpu_share.epoch", "frac", "lower"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "frac", "lower"})
	}
	return defs
}()

// finish checks a run's metrics against defs: every value under its
// declared unit and no undeclared name. With zeroFill a metric the run
// left unset reports 0 (a layer the workload never reached); without it
// a missing metric is an error.
func finish(m metricSet, defs []metricDef, zeroFill bool) (metricSet, error) {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		switch {
		case !ok && !zeroFill:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case !ok:
			v = metric{0, d.unit}
		case v.Unit != d.unit:
			return nil, fmt.Errorf("metric %s reported in %s, want %s", d.name, v.Unit, d.unit)
		}
		out[d.name] = v
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}
