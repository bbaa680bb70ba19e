package main

import (
	"fmt"
	"strings"
	"time"

	"terradir/internal/core"
	"terradir/internal/overlay"
	"terradir/internal/telemetry"
)

// regTotals sums every scalar series of the registries by family name
// (labels dropped), so per-server series of one metric add up.
func regTotals(regs ...*telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, r := range regs {
		for k, v := range r.Snapshot() {
			name, _, _ := strings.Cut(k, "{")
			out[name] += v
		}
	}
	return out
}

// regDelta is the change of every summed series between two snapshots.
func regDelta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func nodeRegistries(nodes []*overlay.Node) []*telemetry.Registry {
	regs := make([]*telemetry.Registry, len(nodes))
	for i, n := range nodes {
		regs[i] = n.Registry()
	}
	return regs
}

// overlayCounters fills the overlay and core metrics that registry deltas
// give, per lookup.
func overlayCounters(m map[string]float64, d map[string]float64, lookups float64) {
	m["overlay.fastpath_resolved_ratio"] = ratio(d["terradir_fastpath_resolved_total"], lookups)
	m["overlay.fastpath_fallbacks_per_lookup"] = ratio(d["terradir_fastpath_fallbacks_total"], lookups)
	m["overlay.batch_depth_mean"] = ratio(d["terradir_shard_batch_depth_sum"], d["terradir_shard_batch_depth_count"])
	m["core.cache_hit_ratio"] = ratio(d["terradir_cache_hits_total"], d["terradir_cache_hits_total"]+d["terradir_cache_misses_total"])
	m["core.digest_shortcuts_per_lookup"] = ratio(d["terradir_digest_shortcuts_total"], lookups)
}

// coreState times one PublishSnapshot per node on its state at the end of
// the run (through Node.Inspect, on the event loop) and counts the entries
// a publish copies: resident hosted entries and cache entries.
func coreState(m map[string]float64, nodes []*overlay.Node, repeats int) error {
	var pubs []float64
	var hosted, cached int
	for _, n := range nodes {
		for r := 0; r < repeats; r++ {
			var d time.Duration
			if !n.Inspect(func(p *core.Peer) {
				t := time.Now()
				p.PublishSnapshot()
				d += time.Since(t)
			}) {
				return fmt.Errorf("server %d stopped before inspection", n.ID())
			}
			pubs = append(pubs, float64(d)/1e3)
		}
		n.Inspect(func(p *core.Peer) {
			hosted += p.ResidentCount()
			cached += p.CacheLen()
		})
	}
	m["core.publish_us"] = medianOf(pubs)
	m["core.hosted_entries"] = float64(hosted)
	m["core.cache_entries"] = float64(cached)
	return nil
}

// hopMetrics fills the per-hop queue-wait and service percentiles from the
// hop spans of traced lookups.
func hopMetrics(m map[string]float64, tr *tracer) {
	q, s := tr.hopTimesUs()
	m["overlay.queue_wait_p50_us"], _ = windowedQuantile(q, 0.50, 1)
	m["overlay.queue_wait_p99_us"], _ = windowedQuantile(q, 0.99, 1)
	m["overlay.service_p50_us"], _ = windowedQuantile(s, 0.50, 1)
}

// profiled runs fn under the CPU profiler and adds the module shares.
func profiled(m map[string]float64, fn func()) error {
	samples, err := cpuProfile(fn)
	if err != nil {
		return err
	}
	for k, v := range cpuShares(samples) {
		m[k] = v
	}
	return nil
}
