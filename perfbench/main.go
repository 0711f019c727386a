package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/lang"
)

// endToEndMetrics are the end-to-end metrics an untraced run prints, in
// report order.
var endToEndMetrics = []metricSpec{
	{"throughput_ops_s", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"}, {"allocs_per_op", "count"}, {"alloc_mb_per_op", "MB"},
	{"setup_s", "s"}, {"error_rate", "ratio"},
}

// gatedMetrics are the ones the result line carries, BENCHMARK.json's
// end_to_end list. Wall-clock throughput and latency are printed but not
// gated: on a shared host, CPU steal moves them by more than any usable
// bound between runs, while process CPU time excludes steal. error_rate
// travels as the result's attempted and failed counts.
var gatedMetrics = []string{"cpu_ms_per_op", "allocs_per_op", "alloc_mb_per_op", "setup_s"}

// setups is how many times an untraced run sets its workload up; it
// reports the median.
const setups = 7

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ensemble, pack, serve or elastic")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	fp, _ := json.Marshal(fingerprint(*seed)) // strings and ints always encode
	fmt.Printf("fingerprint %s\n", fp)

	var res *result
	var err error
	if *trace == 0 {
		res, err = runUntraced(w, *seed, *seconds)
	} else {
		res, err = runTraced(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// setupTimed sets the workload up, returning the bench and how long it
// took.
func setupTimed(w workload, seed int64, tr *tracer) (*bench, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	b, err := w.setup(seed, tr)
	return b, time.Since(t0), err
}

func runUntraced(w workload, seed int64, seconds float64) (*result, error) {
	var setupS []float64
	var b *bench
	for range setups {
		if b != nil {
			if err := b.shutdown(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if b, d, err = setupTimed(w, seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	win, err := measure(b, seconds, minOpsEndToEnd, time.Now())
	if cerr := b.shutdown(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	v, err := endToEnd(win)
	if err != nil {
		return nil, err
	}
	v["setup_s"] = median(setupS)
	fmt.Printf("workload %s seed %d: %d ops in %.2f s, %d failed\n", w.name, seed, win.attempted, win.wall.Seconds(), win.failed)
	for _, spec := range endToEndMetrics {
		fmt.Printf("  %-18s %14.6g %-5s", spec.name, v[spec.name], spec.unit)
		switch spec.name {
		case "latency_p50_ms", "latency_p90_ms":
			fmt.Printf(" (n=%d)", len(win.lat))
		case "setup_s":
			fmt.Printf(" (median of %d set-ups)", setups)
		case "error_rate":
			fmt.Printf(" (%d of %d)", win.failed, win.attempted)
		}
		fmt.Println()
	}
	if win.firstErr != nil {
		fmt.Fprintf(os.Stderr, "first failure: %v\n", win.firstErr)
	}
	m := map[string]metric{}
	for _, spec := range endToEndMetrics {
		if slices.Contains(gatedMetrics, spec.name) {
			m[spec.name] = metric{v[spec.name], spec.unit}
		}
	}
	return &result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: m}, nil
}

const (
	// minOpsEndToEnd leaves ten samples beyond the p90.
	minOpsEndToEnd = 100
	// minOpsTraced leaves ten samples beyond the median, which is all the
	// tracing-overhead comparison uses.
	minOpsTraced = 20
)

// runTraced measures half the time untraced and half traced, on fresh
// set-ups of the same seed. The traced half gives the per-layer metrics;
// the pair gives the tracing overhead and the parity checks.
func runTraced(w workload, seed int64, seconds float64) (*result, error) {
	half := seconds / 2

	b, _, err := setupTimed(w, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := measure(b, half, minOpsTraced, time.Now())
	if cerr := b.shutdown(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	regBefore := registrySnapshot()
	tr := newTracer()
	restore := tr.installLangs()
	t, tb, err := tracedWindow(w, seed, half, tr)
	restore()
	if err != nil {
		return nil, err
	}
	if regAfter := registrySnapshot(); !reflect.DeepEqual(regBefore, regAfter) {
		return nil, fmt.Errorf("lang registry changed by tracing: %v -> %v", regBefore, regAfter)
	}

	correct := plain.failed == 0 && t.w.failed == 0
	for _, win := range []*window{plain, t.w} {
		if win.firstErr != nil {
			fmt.Fprintf(os.Stderr, "first failure: %v\n", win.firstErr)
		}
	}
	if !reflect.DeepEqual(b.first, tb.first) {
		correct = false
		fmt.Fprintf(os.Stderr, "parity: first-pass outputs differ between untraced and traced runs\n")
	}
	if b.poolAfterFirst != tb.poolAfterFirst {
		correct = false
		fmt.Fprintf(os.Stderr, "parity: pool counters after the first pass differ: untraced %+v, traced %+v\n",
			b.poolAfterFirst, tb.poolAfterFirst)
	}

	m, err := perLayer(t)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d traced: %d ops in %.2f s (untraced half: %d ops in %.2f s)\n",
		w.name, seed, t.w.attempted, t.w.wall.Seconds(), plain.attempted, plain.wall.Seconds())
	if err := printOverhead(plain, t.w); err != nil {
		return nil, err
	}
	for _, lm := range layerMetrics {
		fmt.Printf("  %-30s %14.6g %s\n", lm.name, m[lm.name].Value, lm.unit)
	}
	return &result{
		Correct:   correct,
		Attempted: plain.attempted + t.w.attempted,
		Failed:    plain.failed + t.w.failed,
		Metrics:   m,
	}, nil
}

// tracedWindow sets up under tr (already installed) and measures one
// traced window with a CPU profile and the runtime's metrics.
func tracedWindow(w workload, seed int64, seconds float64, tr *tracer) (*traced, *bench, error) {
	b, _, err := setupTimed(w, seed, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	t := &traced{tr: tr, compile: float64(b.compile) / 1e6}
	tr.reset()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.shutdown()
		return nil, nil, err
	}
	sampler := startGoSampler()
	t.before = b.counters()
	t.w, err = measure(b, seconds, minOpsTraced, tr.epoch)
	t.after = b.counters()
	t.gcCycles, t.gcFrac, t.schedP90, t.peakMB = sampler.finish()
	pprof.StopCPUProfile()
	if cerr := b.shutdown(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	if t.cpu, err = cpuFractions(prof.Bytes()); err != nil {
		return nil, nil, err
	}
	return t, b, nil
}

// printOverhead prints how the traced window's end-to-end figures differ
// from the untraced one's.
func printOverhead(plain, traced *window) error {
	row := func(w *window) (p50, tput, cpu float64, err error) {
		p50, err = percentile(w.lat, 0.5)
		return p50, median(w.passRate), median(w.passCPUms), err
	}
	p0, t0, c0, err := row(plain)
	if err != nil {
		return err
	}
	p1, t1, c1, err := row(traced)
	if err != nil {
		return err
	}
	pct := func(a, b float64) float64 { return 100 * (b - a) / a }
	fmt.Printf("tracing overhead: latency_p50_ms %.4g -> %.4g (%+.1f%%), throughput_ops_s %.4g -> %.4g (%+.1f%%), cpu_ms_per_op %.4g -> %.4g (%+.1f%%)\n",
		p0, p1, pct(p0, p1), t0, t1, pct(t0, t1), c0, c1, pct(c0, c1))
	return nil
}

// regEntry is what identifies one language registration.
type regEntry struct {
	Name string
	Sig  lang.Signature
	New  uintptr
}

func registrySnapshot() []regEntry {
	var out []regEntry
	for _, r := range lang.Registered() {
		out = append(out, regEntry{r.Name, r.Sig, reflect.ValueOf(r.New).Pointer()})
	}
	return out
}

// machine identifies where and on what a result was measured.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
	Seed       int64  `json:"seed"`
}

func fingerprint(seed int64) machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
		Seed:       seed,
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := git("rev-parse", "HEAD"); err == nil {
		m.Commit = strings.TrimSpace(out)
		if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
			m.Dirty = fmt.Sprint(strings.TrimSpace(st) != "")
		}
	}
	return m
}

// git runs one git query in the working directory; outside a git
// checkout it fails and the fingerprint says "unknown".
func git(args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", args...).Output()
	return string(out), err
}
