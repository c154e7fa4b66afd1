package main

// workload is one named benchmark input. The names are stable: later
// changes cite them. Why each exists is recorded in BENCHMARK.json and
// README.md.
type workload struct {
	name   string
	config any
	run    func(benchOptions) (result, error)
}

// Shared namespace of the service workloads: 2 shards x 8192 names.
const (
	svcShards   = 2
	svcShardCap = 8192
)

var (
	wireVolatile = svcSpec{
		Shards: svcShards, ShardCap: svcShardCap, Nodes: 1,
		InFlight: 64,
		Setups:   1001,
	}
	wireDurable = svcSpec{
		Shards: svcShards, ShardCap: svcShardCap, Nodes: 1, Durable: true,
		InFlight: 64, Hold: 0.75,
		Setups: 21,
	}
	cluster3 = svcSpec{
		Shards: svcShards, ShardCap: svcShardCap, Nodes: 3,
		InFlight: 32,
		Setups:   31,
	}
	oneshot = renameSpec{
		Kinds: []renameKind{
			{Name: "ff", N: 65536, Pool: 4},
			{Name: "crash", N: 1024, Crashes: 0.5, Pool: 32},
			{Name: "goroutine", N: 256, Concurrent: true, Pool: 32},
		},
		Setups: 1001,
	}
)

var workloads = []workload{
	{"wire-volatile", wireVolatile, func(o benchOptions) (result, error) { return runService(o, wireVolatile) }},
	{"wire-durable", wireDurable, func(o benchOptions) (result, error) { return runService(o, wireDurable) }},
	{"cluster3", cluster3, func(o benchOptions) (result, error) { return runService(o, cluster3) }},
	{"oneshot-rename", oneshot, func(o benchOptions) (result, error) { return runRename(o, oneshot) }},
}
