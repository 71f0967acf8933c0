package main

// metricDef names one reported metric and its unit. The end-to-end and
// per-layer lists mirror BENCHMARK.json: an untraced run reports exactly the
// end-to-end list, a traced run exactly the per-layer list.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"first_row_s", "s"},
	{"sim_mfrags_per_s", "Mfrag/s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"scene.synth_ms", "ms"},
	{"raster.frags", "count"},
	{"raster.ns_per_frag", "ns"},
	{"distrib.routes", "count"},
	{"distrib.ns_per_segment", "ns"},
	{"distrib.useful_route_ratio", "ratio"},
	{"texture.footprints", "count"},
	{"texture.ns_per_footprint", "ns"},
	{"cache.accesses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.ns_per_access", "ns"},
	{"memory.lines_fetched", "count"},
	{"memory.ns_per_fetch", "ns"},
	{"engine.ns_per_frag", "ns"},
	{"engine.replay_ns_per_frag", "ns"},
	{"core.parallel_kernel_ms", "ms"},
	{"core.node_par_speedup", "x"},
	{"core.event_kernel_ms", "ms"},
	{"core.artifact_build_ms", "ms"},
	{"core.replay_ms", "ms"},
	{"core.replay_par_speedup", "x"},
	{"core.coupled_replay_ms", "ms"},
	{"sweep.simulations", "count"},
	{"sweep.rasterized", "count"},
	{"sweep.memo_saved_ratio", "ratio"},
	{"sweep.encode_ms", "ms"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.get_us", "us"},
	{"resultcache.put_us", "us"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.overhead_ms_p50", "ms"},
	{"service.rejected", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// extraUnits are the units of metrics printed as text lines only: each
// applies to some workloads, and the result line must carry the same
// metrics on every workload.
var extraUnits = map[string]string{
	"fail_frac":       "ratio",
	"cold_job_ms_p50": "ms",
	"cold_job_ms_p90": "ms",
	"hot_job_ms_p50":  "ms",
	"hot_job_ms_p90":  "ms",
	"jobs_per_s":      "1/s",
}

// units returns every metric's unit, for the host record.
func units() map[string]string {
	out := make(map[string]string)
	for _, d := range endToEnd {
		out[d.name] = d.unit
	}
	for _, d := range perLayer {
		out[d.name] = d.unit
	}
	for k, v := range extraUnits {
		out[k] = v
	}
	return out
}
