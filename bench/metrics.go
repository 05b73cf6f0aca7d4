package main

// The benchmark's declared surface: workloads, end-to-end metrics with
// their regression bounds, per-layer metrics with the end-to-end metric
// each is expected to move. BENCHMARK.json at the repository root repeats
// the names, units, directions and bounds; bench_test.go holds the two in
// step.

import (
	"fmt"
	"math"
)

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
	// RefRate is the step rate on the reference box (2 vCPU, go1.24), which
	// turns -seconds into a fixed amount of work: a run does sixteen segments
	// of round(RefRate × seconds / 16) steps, two on each of eight set-ups,
	// whatever the host's speed (planFor).
	RefRate float64
	// New builds the workload at full or tiny scale.
	New func(tiny bool) workload
}

var workloads = []workloadDef{
	{"seq-bulk-tcp",
		"warm-cache gets of 31.5 MB/step from two codsnode processes: tcpnet wire and cods clip/scatter do the work; zero DHT queries", 30,
		func(tiny bool) workload { return newSeqBulk(tiny) }},
	{"seq-lookup-tcp",
		"16 never-repeated small gets/step: each pays span walk, DHT query over TCP and gob for ~4.8 KB; payload bytes are negligible", 90,
		func(tiny bool) workload { return newSeqLookup(tiny) }},
	{"stream-lockstep-tcp",
		"publish, windowed get, advance of a 4-producer stream: writes beside reads (expose, DHT insert/remove, discard, notify ops)", 13,
		func(tiny bool) workload { return newStreamLockstep(tiny) }},
	{"workflow-inproc",
		"cods.New + RunWorkflow of a bundle and a sequential child, in-process: mapping, runtime, local transport; no socket; program decides insitu", 230,
		func(tiny bool) workload { return newWorkflowInproc(tiny) }},
}

// metricDef declares one metric. Bound applies to end-to-end metrics: the
// share of the parent's median by which the metric may worsen. Layer and
// Moves apply to per-layer metrics: the package measured and the
// workload/metric a change to it should show up in.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "coupled_gbps", Unit: "GB/s", Better: "higher", Bound: 0.25},
	{Name: "step_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_step", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "success_ratio", Unit: "ratio", Better: "higher", Bound: 0},
	{Name: "insitu_fraction", Unit: "ratio", Better: "higher", Bound: 0.01},
}

var perLayer = []metricDef{
	{Name: "sfc.spans_us", Unit: "us", Better: "lower", Layer: "sfc", Moves: "seq-lookup-tcp/step_p50_ms"},
	{Name: "sfc.spans_per_query", Unit: "count", Better: "lower", Layer: "sfc", Moves: "seq-lookup-tcp/step_p50_ms"},
	{Name: "sfc.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "sfc", Moves: "seq-lookup-tcp/step_p50_ms"},

	{Name: "dht.query_us", Unit: "us", Better: "lower", Layer: "dht", Moves: "seq-lookup-tcp/steps_per_s"},
	{Name: "dht.entries_per_query", Unit: "count", Better: "lower", Layer: "dht", Moves: "seq-lookup-tcp/steps_per_s"},
	{Name: "dht.insert_us", Unit: "us", Better: "lower", Layer: "dht", Moves: "stream-lockstep-tcp/steps_per_s"},
	{Name: "dht.remove_us", Unit: "us", Better: "lower", Layer: "dht", Moves: "stream-lockstep-tcp/steps_per_s"},

	{Name: "cods.get_hit_us", Unit: "us", Better: "lower", Layer: "cods", Moves: "seq-bulk-tcp/step_p50_ms"},
	{Name: "cods.get_miss_us", Unit: "us", Better: "lower", Layer: "cods", Moves: "seq-lookup-tcp/step_p50_ms"},
	{Name: "cods.lookup_share", Unit: "ratio", Better: "lower", Layer: "cods", Moves: "seq-lookup-tcp/step_p50_ms"},
	{Name: "cods.put_us", Unit: "us", Better: "lower", Layer: "cods", Moves: "stream-lockstep-tcp/step_p50_ms"},
	{Name: "cods.discard_us", Unit: "us", Better: "lower", Layer: "cods", Moves: "stream-lockstep-tcp/step_p50_ms"},
	{Name: "cods.clip_gbps", Unit: "GB/s", Better: "higher", Layer: "cods", Moves: "seq-bulk-tcp/coupled_gbps"},
	{Name: "cods.scatter_us", Unit: "us", Better: "lower", Layer: "cods", Moves: "seq-bulk-tcp/cpu_ms_per_step"},
	{Name: "cods.publish_us", Unit: "us", Better: "lower", Layer: "cods", Moves: "stream-lockstep-tcp/step_p50_ms"},
	{Name: "cods.window_us", Unit: "us", Better: "lower", Layer: "cods", Moves: "stream-lockstep-tcp/step_p50_ms"},
	{Name: "cods.advance_us", Unit: "us", Better: "lower", Layer: "cods", Moves: "stream-lockstep-tcp/step_p50_ms"},

	{Name: "transport.encode_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "seq-lookup-tcp/cpu_ms_per_step"},
	{Name: "transport.encode_allocs", Unit: "count", Better: "lower", Layer: "transport", Moves: "seq-lookup-tcp/cpu_ms_per_step"},
	{Name: "transport.local_read_gbps", Unit: "GB/s", Better: "higher", Layer: "transport", Moves: "workflow-inproc/coupled_gbps"},

	{Name: "tcpnet.rtt_us", Unit: "us", Better: "lower", Layer: "tcpnet", Moves: "seq-lookup-tcp/step_p50_ms"},
	{Name: "tcpnet.readmulti_us", Unit: "us", Better: "lower", Layer: "tcpnet", Moves: "seq-bulk-tcp/coupled_gbps"},
	{Name: "tcpnet.readmulti_gbps", Unit: "GB/s", Better: "higher", Layer: "tcpnet", Moves: "seq-bulk-tcp/coupled_gbps"},
	{Name: "tcpnet.wire_bytes_per_step", Unit: "count", Better: "lower", Layer: "tcpnet", Moves: "seq-bulk-tcp/coupled_gbps"},
	{Name: "tcpnet.frames_per_step", Unit: "count", Better: "lower", Layer: "tcpnet", Moves: "seq-lookup-tcp/step_p50_ms"},
	{Name: "tcpnet.wire_amplification", Unit: "ratio", Better: "lower", Layer: "tcpnet", Moves: "seq-bulk-tcp/coupled_gbps"},
	{Name: "tcpnet.loopback_efficiency", Unit: "ratio", Better: "higher", Layer: "tcpnet", Moves: "seq-bulk-tcp/coupled_gbps"},

	{Name: "cluster.record_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: "workflow-inproc/steps_per_s"},
	{Name: "cluster.record2_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: "workflow-inproc/steps_per_s"},
	{Name: "cluster.flows_per_step", Unit: "count", Better: "lower", Layer: "cluster", Moves: "workflow-inproc/steps_per_s"},

	{Name: "mapping.server_ms", Unit: "ms", Better: "lower", Layer: "mapping", Moves: "workflow-inproc/step_p50_ms"},
	{Name: "mapping.client_ms", Unit: "ms", Better: "lower", Layer: "mapping", Moves: "workflow-inproc/step_p50_ms"},
	{Name: "mapping.net_fraction", Unit: "ratio", Better: "lower", Layer: "mapping", Moves: "workflow-inproc/insitu_fraction"},

	{Name: "runtime.empty_run_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "workflow-inproc/steps_per_s"},
	{Name: "runtime.tasks_per_step", Unit: "count", Better: "lower", Layer: "runtime", Moves: "workflow-inproc/steps_per_s"},

	{Name: "driver.cpu_ms_per_step", Unit: "ms", Better: "lower", Layer: "driver", Moves: "*/cpu_ms_per_step"},
	{Name: "codsnode.cpu_ms_per_step", Unit: "ms", Better: "lower", Layer: "codsnode", Moves: "*/cpu_ms_per_step"},
	{Name: "driver.allocs_per_step", Unit: "count", Better: "lower", Layer: "driver", Moves: "workflow-inproc/steps_per_s"},
	{Name: "driver.alloc_kb_per_step", Unit: "KB", Better: "lower", Layer: "driver", Moves: "seq-lookup-tcp/steps_per_s"},
	{Name: "driver.gc_per_kstep", Unit: "count", Better: "lower", Layer: "driver", Moves: "workflow-inproc/steps_per_s"},
	{Name: "driver.rss_peak_mb", Unit: "MB", Better: "lower", Layer: "driver", Moves: "*/setup_s"},
	{Name: "codsnode.rss_peak_mb", Unit: "MB", Better: "lower", Layer: "codsnode", Moves: "*/setup_s"},
	{Name: "driver.step_p90_ms", Unit: "ms", Better: "lower", Layer: "driver", Moves: "*/step_p50_ms"},
	{Name: "driver.step_p99_ms", Unit: "ms", Better: "lower", Layer: "driver", Moves: "*/step_p50_ms"},
	{Name: "driver.seg_spread", Unit: "ratio", Better: "lower", Layer: "driver", Moves: "*/steps_per_s"},

	{Name: "host.memcpy_gbps", Unit: "GB/s", Better: "higher", Layer: "host", Moves: "none"},
	{Name: "host.loopback_rtt_us", Unit: "us", Better: "lower", Layer: "host", Moves: "none"},
	{Name: "host.loopback_gbps", Unit: "GB/s", Better: "higher", Layer: "host", Moves: "none"},
	{Name: "host.speed_index", Unit: "ratio", Better: "lower", Layer: "host", Moves: "none"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", Layer: "trace", Moves: "none"},
	{Name: "trace.layers_sum_ratio", Unit: "ratio", Better: "higher", Layer: "trace", Moves: "none"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick builds the metric map of a result from measured numbers. A declared
// metric without a measurement — a layer that is not on the workload's path
// — reads 0. A measurement that is not a finite number is a broken probe,
// not an absent layer: it is returned as a problem, which makes the run
// incorrect, and reads 0 only because JSON has no way to write it.
func pick(defs []metricDef, measured map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var broken []string
	for _, d := range defs {
		v := measured[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			broken = append(broken, fmt.Sprintf("metric %s measured %v", d.Name, v))
			v = 0
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, broken
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
