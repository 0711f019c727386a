package main

// Per-layer metrics of a traced window.

import (
	"fmt"
	"math"
)

// metricSpec is one reported metric's name and unit.
type metricSpec struct{ name, unit string }

// layerMetrics are the traced run's metrics, in report order.

var layerMetrics = func() []metricSpec {
	var ms []metricSpec
	for _, l := range tracedLangs {
		p := "lang." + l + "."
		ms = append(ms,
			metricSpec{p + "evals", "count"},
			metricSpec{p + "eval_ms", "ms"},
			metricSpec{p + "eval_p50_us", "us"},
			metricSpec{p + "engines_new", "count"},
			metricSpec{p + "new_ms", "ms"},
			metricSpec{p + "resets", "count"})
	}
	ms = append(ms,
		metricSpec{"lang.blob_kb_in", "kB"},
		metricSpec{"lang.blob_kb_out", "kB"},
		metricSpec{"nativelib.calls", "count"},
		metricSpec{"nativelib.ms", "ms"},
		metricSpec{"stc.compile_ms", "ms"},
		metricSpec{"core.engine_cover_frac", "ratio"},
		metricSpec{"core.uncovered_ms", "ms"},
		metricSpec{"turbine.control_tasks", "count"},
		metricSpec{"turbine.leaf_tasks", "count"},
		metricSpec{"turbine.rules_created", "count"},
		metricSpec{"adlb.puts", "count"},
		metricSpec{"adlb.gets", "count"},
		metricSpec{"adlb.gets_parked_frac", "ratio"},
		metricSpec{"adlb.notifications", "count"},
		metricSpec{"adlb.data_ops", "count"},
		metricSpec{"adlb.steal_hit_frac", "ratio"},
		metricSpec{"adlb.token_rounds", "count"},
		metricSpec{"adlb.leases", "count"},
		metricSpec{"adlb.requeued", "count"},
		metricSpec{"serve.handler_p50_ms", "ms"},
		metricSpec{"serve.handler_p90_ms", "ms"},
		metricSpec{"serve.pool_creates", "count"},
		metricSpec{"serve.pool_resets", "count"},
		metricSpec{"serve.tenant_switches", "count"},
		metricSpec{"serve.parse_hit_frac", "ratio"},
		metricSpec{"serve.program_cache_hit_frac", "ratio"},
		metricSpec{"serve.rejected_frac", "ratio"},
		metricSpec{"pack.latency_slope", "ratio"},
		metricSpec{"pack.ms_per_kelem_min_n", "ms"},
		metricSpec{"pack.ms_per_kelem_max_n", "ms"},
		metricSpec{"go.gc_cycles", "count"},
		metricSpec{"go.gc_cpu_frac", "ratio"},
		metricSpec{"go.sched_wait_p90_us", "us"},
		metricSpec{"go.heap_live_peak_mb", "MB"})
	for _, m := range cpuModules {
		ms = append(ms, metricSpec{"cpu." + m + ".frac", "ratio"})
	}
	return ms
}()

// traced is everything one traced window recorded.
type traced struct {
	w        *window
	tr       *tracer
	before   counters
	after    counters
	compile  float64 // ms
	gcCycles float64
	gcFrac   float64
	schedP90 float64 // µs
	peakMB   float64
	cpu      map[string]float64
}

// perLayer computes every per-layer metric; counts and times are per op
// unless the name says fraction, and stc.compile_ms is per set-up.
func perLayer(t *traced) (map[string]metric, error) {
	n := float64(t.w.attempted)
	v := map[string]float64{}
	tr := t.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()

	for _, l := range tracedLangs {
		lt := tr.langs[l]
		p := "lang." + l + "."
		v[p+"evals"] = float64(lt.evals) / n
		v[p+"eval_ms"] = float64(lt.evalNs) / 1e6 / n
		v[p+"engines_new"] = float64(lt.news) / n
		v[p+"new_ms"] = float64(lt.newNs) / 1e6 / n
		v[p+"resets"] = float64(lt.resets) / n
		p50, err := percentileOrZero(lt.evalDurs, 0.5)
		if err != nil {
			return nil, fmt.Errorf("%s eval: %w", l, err)
		}
		v[p+"eval_p50_us"] = p50
	}
	v["lang.blob_kb_in"] = float64(tr.blobIn) / 1e3 / n
	v["lang.blob_kb_out"] = float64(tr.blobOut) / 1e3 / n
	v["nativelib.calls"] = float64(tr.nativeCalls) / n
	v["nativelib.ms"] = float64(tr.nativeNs) / 1e6 / n
	v["stc.compile_ms"] = t.compile

	cover, total := covered(t.w.ops, tr.spans)
	v["core.engine_cover_frac"] = ratio(float64(cover), float64(total))
	v["core.uncovered_ms"] = float64(total-cover) / 1e6 / n

	b, a := t.before, t.after
	v["turbine.control_tasks"] = float64(a.control-b.control) / n
	v["turbine.leaf_tasks"] = float64(a.leaf-b.leaf) / n
	v["turbine.rules_created"] = float64(a.rules-b.rules) / n

	ab, aa := b.adlb, a.adlb
	d := func(x, y int64) float64 { return float64(y - x) }
	v["adlb.puts"] = d(ab.PutsLocal, aa.PutsLocal) / n
	v["adlb.gets"] = d(ab.GetsServed, aa.GetsServed) / n
	// A parked Get is either served later (and counted in GetsServed too)
	// or ended by shutdown, so parked over served can pass 1; parked over
	// served+parked stays a share.
	parked := d(ab.GetsParked, aa.GetsParked)
	v["adlb.gets_parked_frac"] = ratio(parked, parked+d(ab.GetsServed, aa.GetsServed))
	v["adlb.notifications"] = d(ab.Notifications, aa.Notifications) / n
	v["adlb.data_ops"] = d(ab.DataOps, aa.DataOps) / n
	v["adlb.steal_hit_frac"] = ratio(d(ab.StealHits, aa.StealHits), d(ab.StealReqs, aa.StealReqs))
	v["adlb.token_rounds"] = d(ab.TokenRounds, aa.TokenRounds) / n
	v["adlb.leases"] = d(ab.LeasesIssued, aa.LeasesIssued) / n
	v["adlb.requeued"] = d(ab.Requeued, aa.Requeued) / n

	var err error
	if v["serve.handler_p50_ms"], err = percentileOrZero(tr.handlerDurs, 0.5); err != nil {
		return nil, fmt.Errorf("handler: %w", err)
	}
	if v["serve.handler_p90_ms"], err = percentileOrZero(tr.handlerDurs, 0.9); err != nil {
		return nil, fmt.Errorf("handler: %w", err)
	}
	sb, sa := b.serve, a.serve
	v["serve.pool_creates"] = d(sb.Pool.Creates, sa.Pool.Creates) / n
	v["serve.pool_resets"] = d(sb.Pool.Resets, sa.Pool.Resets) / n
	v["serve.tenant_switches"] = d(sb.Pool.TenantSwitches, sa.Pool.TenantSwitches) / n
	hits := d(sb.Pool.ParseHits, sa.Pool.ParseHits)
	v["serve.parse_hit_frac"] = ratio(hits, hits+d(sb.Pool.ParseMisses, sa.Pool.ParseMisses))
	hits = d(sb.ProgramCache.Hits, sa.ProgramCache.Hits)
	v["serve.program_cache_hit_frac"] = ratio(hits, hits+d(sb.ProgramCache.Misses, sa.ProgramCache.Misses))
	var rejected, admitted float64
	for name, ts := range sa.Tenants {
		rejected += d(sb.Tenants[name].Rejected, ts.Rejected)
		admitted += d(sb.Tenants[name].Admitted, ts.Admitted)
	}
	v["serve.rejected_frac"] = ratio(rejected, rejected+admitted)

	v["pack.latency_slope"], v["pack.ms_per_kelem_min_n"], v["pack.ms_per_kelem_max_n"] = sizeScaling(t.w)

	v["go.gc_cycles"] = t.gcCycles / n
	v["go.gc_cpu_frac"] = t.gcFrac
	v["go.sched_wait_p90_us"] = t.schedP90
	v["go.heap_live_peak_mb"] = t.peakMB
	for m, f := range t.cpu {
		v["cpu."+m+".frac"] = f
	}

	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		x, ok := v[lm.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", lm.name)
		}
		out[lm.name] = metric{x, lm.unit}
	}
	return out, nil
}

// percentileOrZero is percentile, except that no samples at all (a layer
// the workload does not use) reads 0.
func percentileOrZero(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	return percentile(xs, p)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sizeScaling fits log(latency) = slope*log(size) + c over the ops that
// have a size, and returns the slope with the median time per thousand
// elements at the smallest and the largest size. All are 0 when no op
// has a size.
func sizeScaling(w *window) (slope, minPerK, maxPerK float64) {
	var xs, ys []float64
	lo, hi := 0, 0
	for i, s := range w.sizes {
		if s <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(s)))
		ys = append(ys, math.Log(w.lat[i]))
		if lo == 0 || s < lo {
			lo = s
		}
		hi = max(hi, s)
	}
	if len(xs) < 2 || lo == hi {
		return 0, 0, 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(xs))
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	perK := func(size int) float64 {
		var ls []float64
		for i, s := range w.sizes {
			if s == size {
				ls = append(ls, w.lat[i])
			}
		}
		return median(ls) / (float64(size) / 1000)
	}
	return sxy / sxx, perK(lo), perK(hi)
}
