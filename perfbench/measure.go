package main

// Measurement windows and the statistics taken from them.

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/lang"
)

// bench is one set-up workload instance, ready to run ops.
type bench struct {
	passLen int // ops per pass; a window runs whole passes
	clients int // closed-loop clients, each with one op in flight
	// prepare builds pass p's inputs before the pass is timed (optional).
	prepare func(p int)
	// op runs op i of pass p and checks its output against the oracle.
	// It returns the op's input size where the workload has one (pack's
	// n), else 0.
	op func(p, i int) (size int, err error)
	// afterPass runs after pass p, outside the timing (optional).
	afterPass func(p int) error
	close     func() error // optional

	compile  time.Duration   // stc.Compile time during set-up
	counters func() counters // the program's own counters, read around a window

	// Pass 0's outputs and, for serve, the pool counters after it: what
	// traced and untraced runs of one seed must agree on.
	mu             sync.Mutex
	first          map[int]string
	poolAfterFirst lang.PoolStatsSnapshot
}

// keep records op i's output if it belongs to pass 0.
func (b *bench) keep(p, i int, out string) {
	if p != 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.first == nil {
		b.first = map[int]string{}
	}
	b.first[i] = out
}

func (b *bench) shutdown() error {
	if b.close == nil {
		return nil
	}
	return b.close()
}

// window is what one measured stretch of whole passes recorded.
type window struct {
	lat       []float64 // op latencies, ms
	ops       []span    // op intervals, ns since the window's epoch
	sizes     []int     // op input sizes, in op order
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration // summed pass durations
	mallocs   uint64
	bytes     uint64
	// Per pass: ops per second and CPU ms per op. Every pass holds the
	// whole mix, so their medians shrug off bursts of interference from
	// outside the process that last less than half the run.
	passRate  []float64
	passCPUms []float64
}

// measure runs whole passes of b until at least seconds have been
// measured and at least minOps ops attempted. Op intervals are recorded
// relative to epoch.
func measure(b *bench, seconds float64, minOps int, epoch time.Time) (*window, error) {
	w := &window{}
	for p := 0; ; p++ {
		if b.prepare != nil {
			b.prepare(p)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		t0 := time.Now()
		runPass(b, p, w, epoch)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		w.wall += wall
		w.passRate = append(w.passRate, float64(b.passLen)/wall.Seconds())
		w.passCPUms = append(w.passCPUms, float64(cpu)/1e6/float64(b.passLen))
		runtime.ReadMemStats(&ms1)
		w.mallocs += ms1.Mallocs - ms0.Mallocs
		w.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		if b.afterPass != nil {
			if err := b.afterPass(p); err != nil {
				return nil, err
			}
		}
		if w.wall.Seconds() >= seconds && w.attempted >= minOps {
			return w, nil
		}
	}
}

// runPass runs one pass with b.clients closed-loop clients sharing the
// pass's op list.
func runPass(b *bench, p int, w *window, epoch time.Time) {
	type rec struct {
		i, size    int
		start, end time.Time
		err        error
	}
	recs := make([]rec, b.passLen)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= b.passLen {
					return
				}
				start := time.Now()
				size, err := b.op(p, i)
				recs[i] = rec{i, size, start, time.Now(), err}
			}
		}()
	}
	wg.Wait()
	for _, r := range recs {
		w.attempted++
		if r.err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("pass %d op %d: %w", p, r.i, r.err)
			}
		}
		w.lat = append(w.lat, float64(r.end.Sub(r.start))/1e6)
		w.ops = append(w.ops, span{int64(r.start.Sub(epoch)), int64(r.end.Sub(epoch))})
		w.sizes = append(w.sizes, r.size)
	}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses unless at least ten samples lie beyond the quantile, so a p90
// needs at least 100 samples and a median at least 20.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v out of (0,1)", p)
	}
	if need := int(math.Ceil(10/(1-p) - 1e-9)); len(xs) < need {
		return 0, fmt.Errorf("p%g of %d samples: need at least %d", p*100, len(xs), need)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(math.Ceil(p*float64(len(s))))-1], nil
}

// median is the middle of xs (mean of the middle two for even length),
// for small sample sets such as repeated set-ups; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of w other than setup_s, plus
// error_rate. Both percentiles are taken over all len(w.lat) ops;
// throughput and CPU per op are medians over passes.
func endToEnd(w *window) (map[string]float64, error) {
	p50, err := percentile(w.lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(w.lat, 0.9)
	if err != nil {
		return nil, err
	}
	n := float64(w.attempted)
	return map[string]float64{
		"throughput_ops_s": median(w.passRate),
		"latency_p50_ms":   p50,
		"latency_p90_ms":   p90,
		"cpu_ms_per_op":    median(w.passCPUms),
		"allocs_per_op":    float64(w.mallocs) / n,
		"alloc_mb_per_op":  float64(w.bytes) / 1e6 / n,
		"error_rate":       float64(w.failed) / n,
	}, nil
}

// goSampler reads the runtime's own metrics over a traced window: GC
// cycles and CPU, scheduling latency, and the peak live heap (sampled
// every few milliseconds, since the runtime updates it once per GC).
type goSampler struct {
	start    []metrics.Sample
	peakLive atomic.Uint64
	stop     chan struct{}
	done     chan struct{}
}

var goMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readGoMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startGoSampler() *goSampler {
	g := &goSampler{start: readGoMetrics(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(live)
			if v := live[0].Value.Uint64(); v > g.peakLive.Load() {
				g.peakLive.Store(v)
			}
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

// finish stops the sampler and returns GC cycles, the GC share of CPU,
// the p90 scheduling latency in µs, and the peak live heap in MB.
func (g *goSampler) finish() (gcCycles, gcFrac, schedP90us, peakMB float64) {
	end := readGoMetrics()
	close(g.stop)
	<-g.done
	gcCycles = float64(end[0].Value.Uint64() - g.start[0].Value.Uint64())
	if tot := end[2].Value.Float64() - g.start[2].Value.Float64(); tot > 0 {
		gcFrac = (end[1].Value.Float64() - g.start[1].Value.Float64()) / tot
	}
	schedP90us = histQuantile(g.start[3].Value.Float64Histogram(), end[3].Value.Float64Histogram(), 0.9) * 1e6
	return gcCycles, gcFrac, schedP90us, float64(g.peakLive.Load()) / 1e6
}

// histQuantile is the q-quantile of the difference between two readings
// of one cumulative runtime histogram, taken at the upper edge of the
// bucket it falls in (the lower edge for the open top bucket).
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var acc uint64
	for i := range b.Counts {
		acc += b.Counts[i] - a.Counts[i]
		if acc >= target {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}
