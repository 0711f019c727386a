package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/lang"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{1, 7, 12345} {
		if !reflect.DeepEqual(genEnsemble(seed), genEnsemble(seed)) {
			t.Errorf("seed %d: ensemble inputs differ between generations", seed)
		}
		if !reflect.DeepEqual(genPack(seed), genPack(seed)) {
			t.Errorf("seed %d: pack inputs differ between generations", seed)
		}
		a, b := genServeMix(seed), genServeMix(seed)
		if !reflect.DeepEqual(a.pass(seed, 3), b.pass(seed, 3)) || !reflect.DeepEqual(a.warmup(), b.warmup()) {
			t.Errorf("seed %d: serve inputs differ between generations", seed)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	if reflect.DeepEqual(genEnsemble(1), genEnsemble(2)) {
		t.Error("ensemble inputs identical for seeds 1 and 2")
	}
	if reflect.DeepEqual(genPack(1), genPack(2)) {
		t.Error("pack inputs identical for seeds 1 and 2")
	}
	if reflect.DeepEqual(genServeMix(1).pass(1, 0), genServeMix(2).pass(2, 0)) {
		t.Error("serve inputs identical for seeds 1 and 2")
	}
	// Passes of one seed share the mix but not the unique fragments.
	m := genServeMix(1)
	if reflect.DeepEqual(m.pass(1, 0), m.pass(1, 1)) {
		t.Error("serve passes 0 and 1 identical: unique fragments would turn into cache hits")
	}
}

func TestServeMixShares(t *testing.T) {
	m := genServeMix(1)
	var runs, hot, unique int
	for _, s := range m.slots {
		switch {
		case s.run:
			runs++
		case s.hot >= 0:
			hot++
		default:
			unique++
		}
	}
	frags := float64(hot + unique)
	if r := float64(runs) / servePass; r < 0.03 || r > 0.07 {
		t.Errorf("program-run share %.3f, want about 0.05", r)
	}
	if h := float64(hot) / frags; h < 0.75 || h > 0.85 {
		t.Errorf("hot-fragment share %.3f, want about 0.8", h)
	}
}

func TestPackSizesSpanTheRange(t *testing.T) {
	ops := genPack(3)
	lo, hi := packMaxN, 0
	for _, o := range ops {
		if o.N < packMinN || o.N >= packMaxN {
			t.Fatalf("n=%d outside [%d, %d)", o.N, packMinN, packMaxN)
		}
		lo, hi = min(lo, o.N), max(hi, o.N)
	}
	if lo > packMinN*3/2 || hi < packMaxN*3/4 {
		t.Errorf("sizes %d..%d do not span the range", lo, hi)
	}
}

func TestOraclesRejectWrongOutputs(t *testing.T) {
	op := genEnsemble(1)[0]
	good := "total=" + fmtFloat(op.Total) + "\n"
	if err := checkTotal(good, op.Total); err != nil {
		t.Fatalf("correct total rejected: %v", err)
	}
	off := math.Float64frombits(math.Float64bits(op.Total) + 1)
	if checkTotal("total="+fmtFloat(off), op.Total) == nil {
		t.Error("total one ulp off accepted")
	}
	if err := checkPack("size=100 sum=5050.0\n", 100); err != nil {
		t.Fatalf("correct pack output rejected: %v", err)
	}
	for _, bad := range []string{"size=99 sum=5050.0", "size=100 sum=5051.0", "oops"} {
		if checkPack(bad, 100) == nil {
			t.Errorf("pack output %q accepted for n=100", bad)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples accepted")
	}
	xs = append(xs, 100)
	p90, err := percentile(xs, 0.9)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p90, err)
	}
	if p50, err := percentile(xs, 0.5); err != nil || p50 != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", p50, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("median of 19 samples accepted")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/tcl.(*Interp).Eval", "repro/internal/turbine.Run"}, "tcl"},
		{[]string{"repro/internal/faultinject.At", "repro/internal/lang.evalContained"}, "lang"},
		{[]string{"repro/internal/swift.Parse", "repro/internal/stc.Compile"}, "stc"},
		{[]string{"encoding/json.Marshal", "repro/internal/serve.writeJSON", "net/http.serverHandler.ServeHTTP"}, "serve"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop"}, "net_http"},
		{[]string{"encoding/json.Unmarshal", "main.(*serveClient).do"}, "encoding_json"},
		{[]string{"runtime.gcBgMarkWorker"}, "go_runtime"},
		{nil, "go_runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// Synthetic profile.proto encoding, enough for the decoder.
func pbVarint(b []byte, field int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, field int, body []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

func pbPacked(b []byte, field int, vs ...uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return pbBytes(b, field, body)
}

func TestCPUFractionsFromSyntheticProfile(t *testing.T) {
	strs := []string{"", "runtime.mallocgc", "repro/internal/tcl.(*Interp).Eval",
		"repro/internal/adlb.(*Server).loop", "net/http.(*conn).serve"}
	var p []byte
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		p = pbBytes(p, 5, pbVarint(pbVarint(nil, 1, id), 2, id))
	}
	// Location 1 holds mallocgc inlined into Interp.Eval; locations 2 and
	// 3 are single frames; location 4 is the adlb loop.
	loc := func(id uint64, fns ...uint64) []byte {
		b := pbVarint(nil, 1, id)
		for _, f := range fns {
			b = pbBytes(b, 4, pbVarint(nil, 1, f))
		}
		return b
	}
	p = pbBytes(p, 4, loc(1, 1, 2))
	p = pbBytes(p, 4, loc(2, 1))
	p = pbBytes(p, 4, loc(3, 4))
	p = pbBytes(p, 4, loc(4, 3))
	// Samples: tcl x3 (packed ids), net_http x1 (unpacked ids), adlb x4,
	// runtime only x2.
	p = pbBytes(p, 2, pbPacked(pbPacked(nil, 1, 1, 4, 3), 2, 3, 30000000))
	p = pbBytes(p, 2, pbPacked(pbVarint(pbVarint(nil, 1, 2), 1, 3), 2, 1, 10000000))
	p = pbBytes(p, 2, pbPacked(pbVarint(nil, 1, 4), 2, 4, 40000000))
	p = pbBytes(p, 2, pbPacked(pbVarint(nil, 1, 2), 2, 2, 20000000))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	frac, err := cpuFractions(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"tcl": 0.3, "net_http": 0.1, "adlb": 0.4, "go_runtime": 0.2}
	for _, m := range cpuModules {
		if math.Abs(frac[m]-want[m]) > 1e-12 {
			t.Errorf("cpu.%s.frac = %v, want %v", m, frac[m], want[m])
		}
	}
}

func TestCovered(t *testing.T) {
	ops := []span{{0, 100}, {100, 200}, {300, 400}}
	spans := []span{{10, 20}, {15, 30}, {90, 110}, {250, 320}, {390, 500}}
	cover, total := covered(ops, spans)
	// [10,30) + [90,110) + [300,320) + [390,400)
	if cover != 20+20+20+10 || total != 300 {
		t.Fatalf("covered = %d of %d, want 70 of 300", cover, total)
	}
}

func TestSizeScaling(t *testing.T) {
	w := &window{}
	for _, n := range []int{512, 1024, 2048, 4096, 8192, 512, 8192} {
		w.sizes = append(w.sizes, n)
		w.lat = append(w.lat, 0.01*math.Pow(float64(n), 1.3))
	}
	slope, lo, hi := sizeScaling(w)
	if math.Abs(slope-1.3) > 1e-9 {
		t.Errorf("slope = %v, want 1.3", slope)
	}
	if want := 0.01 * math.Pow(512, 1.3) / 0.512; math.Abs(lo-want) > 1e-9 {
		t.Errorf("ms per kelem at min n = %v, want %v", lo, want)
	}
	if want := 0.01 * math.Pow(8192, 1.3) / 8.192; math.Abs(hi-want) > 1e-9 {
		t.Errorf("ms per kelem at max n = %v, want %v", hi, want)
	}
}

func TestTracingRestoresRegistry(t *testing.T) {
	before := registrySnapshot()
	tr := newTracer()
	restore := tr.installLangs()
	during := registrySnapshot()
	eng := mustNew(t, "python")
	if _, ok := eng.(lang.ParseCacheStatser); !ok {
		t.Error("wrapped python engine lost ParseCacheStats")
	}
	if _, ok := mustNew(t, "r").(lang.ParseCacheStatser); ok {
		t.Error("wrapped r engine gained ParseCacheStats")
	}
	v, err := eng.Eval(lang.Call{Code: "x = 6 * 7", Expr: "x", Want: lang.KindInt})
	if err != nil || v.Render() != "42" || eng.Evals() != 1 || eng.Name() != "python" {
		t.Fatalf("wrapped eval = %v, %v (evals %d, name %s)", v.Render(), err, eng.Evals(), eng.Name())
	}
	eng.Reset()
	restore()
	if reflect.DeepEqual(before, during) {
		t.Fatal("installLangs did not replace any registration")
	}
	if after := registrySnapshot(); !reflect.DeepEqual(before, after) {
		t.Fatalf("registry not restored:\nbefore %v\nafter  %v", before, after)
	}
	if lt := tr.langs["python"]; lt.news != 1 || lt.evals != 1 || lt.resets != 1 {
		t.Fatalf("python trace = %+v, want one creation, eval and reset", lt)
	}
}

func mustNew(t *testing.T, name string) lang.Engine {
	reg, ok := lang.Lookup(name)
	if !ok {
		t.Fatalf("language %s not registered", name)
	}
	return reg.New(lang.Host{})
}

// TestTracedMatchesUntraced runs pass 0 of each workload untraced and
// traced on one seed: outputs, and serve's pool counters, must agree.
func TestTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, w := range workloads {
		if w.name == "pack" {
			continue // a pass is 32 cold worlds up to n=8192; covered by the traced run itself
		}
		t.Run(w.name, func(t *testing.T) {
			plain := onePass(t, w, nil)
			tr := newTracer()
			restore := tr.installLangs()
			traced := onePass(t, w, tr)
			restore()
			if !reflect.DeepEqual(plain.first, traced.first) {
				t.Error("pass 0 outputs differ between untraced and traced runs")
			}
			if plain.poolAfterFirst != traced.poolAfterFirst {
				t.Errorf("pool counters differ: untraced %+v, traced %+v", plain.poolAfterFirst, traced.poolAfterFirst)
			}
			if len(plain.first) != plain.passLen {
				t.Errorf("kept %d outputs of %d", len(plain.first), plain.passLen)
			}
		})
	}
}

func onePass(t *testing.T, w workload, tr *tracer) *bench {
	b, err := w.setup(5, tr)
	if err != nil {
		t.Fatal(err)
	}
	win, err := measure(b, 0, 1, time.Now())
	if cerr := b.shutdown(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if win.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", win.failed, win.attempted, win.firstErr)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps the metric lists in BENCHMARK.json
// and the ones this program prints the same.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, code)
	}
	check := func(list string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code prints %d", list, len(got), len(want))
			return
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit {
				t.Errorf("%s[%d] = %s %s, code prints %s %s", list, i, m.Name, m.Unit, w.name, w.unit)
			}
		}
	}
	var gated []metricSpec
	for _, m := range endToEndMetrics {
		if slices.Contains(gatedMetrics, m.name) {
			gated = append(gated, m)
		}
	}
	if len(gated) != len(gatedMetrics) {
		t.Errorf("gated metrics %v not all printed", gatedMetrics)
	}
	check("end_to_end", spec.EndToEnd, gated)
	check("per_layer", spec.PerLayer, layerMetrics)
}
