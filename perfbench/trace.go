package main

// The traced run's instrumentation, all from outside the program: spans
// and counts recorded around calls into public layer functions. Engines
// are wrapped by swapping each lang.Registration's New for one that
// wraps what it creates (restored afterwards), native kernels by
// redefining each libsim symbol over its resolved original, and swiftd
// by wrapping its HTTP handler.

import (
	"cmp"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/lang"
	"repro/internal/memo"
	"repro/internal/nativelib"
)

// tracedLangs are the languages whose engines the traced run wraps.
var tracedLangs = []string{"python", "r", "julia", "tcl"}

// span is one timed call into a layer, in nanoseconds since the tracer
// started.
type span struct {
	start, end int64
}

type langTrace struct {
	evals, news, resets int64
	evalNs, newNs       int64
	evalDurs            []float64 // µs
}

// tracer collects spans and counts for one traced window; untraced
// runs have none.
type tracer struct {
	epoch time.Time

	mu          sync.Mutex
	spans       []span // engine creations and evals, native kernel calls
	langs       map[string]*langTrace
	nativeCalls int64
	nativeNs    int64
	blobIn      int64
	blobOut     int64
	handlerDurs []float64 // ms
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), langs: map[string]*langTrace{}}
	for _, l := range tracedLangs {
		t.langs[l] = &langTrace{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset drops everything recorded so far (set-up and warm-up work), so
// the window holds only measured ops.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	for l := range t.langs {
		t.langs[l] = &langTrace{}
	}
	t.nativeCalls, t.nativeNs, t.blobIn, t.blobOut = 0, 0, 0, 0
	t.handlerDurs = t.handlerDurs[:0]
}

// installLangs replaces each traced language's registration with one
// whose engines are wrapped, and returns the function that puts the
// original registrations back. No world may be running across either
// call: a Lookup between Unregister and Register would miss.
func (t *tracer) installLangs() (restore func()) {
	var orig []lang.Registration
	for _, name := range tracedLangs {
		reg, ok := lang.Lookup(name)
		if !ok {
			continue
		}
		orig = append(orig, reg)
		wrapped := reg
		wrapped.New = func(h lang.Host) lang.Engine {
			t0 := t.now()
			eng := reg.New(h)
			t1 := t.now()
			t.mu.Lock()
			lt := t.langs[reg.Name]
			lt.news++
			lt.newNs += t1 - t0
			t.spans = append(t.spans, span{t0, t1})
			t.mu.Unlock()
			return wrapEngine(t, reg.Name, eng)
		}
		lang.Unregister(name)
		lang.Register(wrapped)
	}
	return func() {
		for _, reg := range orig {
			lang.Unregister(reg.Name)
			lang.Register(reg)
		}
	}
}

// tracedEngine forwards the lang.Engine contract, timing Eval and
// counting Reset.
type tracedEngine struct {
	inner lang.Engine
	lang  string
	t     *tracer
}

// tracedCachingEngine additionally forwards ParseCacheStats, so pools
// keep reporting parse-cache counters through the wrapper.
type tracedCachingEngine struct {
	*tracedEngine
	pc lang.ParseCacheStatser
}

func (e tracedCachingEngine) ParseCacheStats() memo.BudgetStats { return e.pc.ParseCacheStats() }

func wrapEngine(t *tracer, name string, eng lang.Engine) lang.Engine {
	te := &tracedEngine{inner: eng, lang: name, t: t}
	if pc, ok := eng.(lang.ParseCacheStatser); ok {
		return tracedCachingEngine{te, pc}
	}
	return te
}

func (e *tracedEngine) Name() string { return e.inner.Name() }
func (e *tracedEngine) Evals() int64 { return e.inner.Evals() }
func (e *tracedEngine) Reset()       { e.t.countReset(e.lang); e.inner.Reset() }

func (e *tracedEngine) Eval(c lang.Call) (lang.Value, error) {
	in := int64(0)
	for _, a := range c.Args {
		if a.Kind() == lang.KindBlob {
			in += int64(len(a.AsBlob().Data))
		}
	}
	t0 := e.t.now()
	v, err := e.inner.Eval(c)
	t1 := e.t.now()
	out := int64(0)
	if err == nil && v.Kind() == lang.KindBlob {
		out = int64(len(v.AsBlob().Data))
	}
	e.t.mu.Lock()
	lt := e.t.langs[e.lang]
	lt.evals++
	lt.evalNs += t1 - t0
	lt.evalDurs = append(lt.evalDurs, float64(t1-t0)/1e3)
	e.t.blobIn += in
	e.t.blobOut += out
	e.t.spans = append(e.t.spans, span{t0, t1})
	e.t.mu.Unlock()
	return v, err
}

func (t *tracer) countReset(name string) {
	t.mu.Lock()
	t.langs[name].resets++
	t.mu.Unlock()
}

// wrapLibrary redefines every symbol of l as a timed call to its
// original kernel. swig.Bind resolves symbols when it binds, so this
// must run before the library is handed to a run.
func (t *tracer) wrapLibrary(l *nativelib.Library) {
	for _, name := range l.Symbols() {
		k, err := l.Resolve(name)
		if err != nil {
			panic(err)
		}
		l.Define(name, func(args []any) (any, error) {
			t0 := t.now()
			v, err := k(args)
			t1 := t.now()
			t.mu.Lock()
			t.nativeCalls++
			t.nativeNs += t1 - t0
			t.spans = append(t.spans, span{t0, t1})
			t.mu.Unlock()
			return v, err
		})
	}
}

// wrapHandler times every request through h.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := float64(time.Since(t0)) / 1e6
		t.mu.Lock()
		t.handlerDurs = append(t.handlerDurs, d)
		t.mu.Unlock()
	})
}

// covered returns how much of the union of ops is covered by at least
// one span, and the length of that union, in nanoseconds.
func covered(ops, spans []span) (cover, total int64) {
	ops, spans = union(ops), union(spans)
	for _, o := range ops {
		total += o.end - o.start
	}
	i, j := 0, 0
	for i < len(ops) && j < len(spans) {
		lo, hi := max(ops[i].start, spans[j].start), min(ops[i].end, spans[j].end)
		if hi > lo {
			cover += hi - lo
		}
		if ops[i].end < spans[j].end {
			i++
		} else {
			j++
		}
	}
	return cover, total
}

// union merges overlapping intervals into a sorted disjoint list.
func union(in []span) []span {
	s := append([]span(nil), in...)
	slices.SortFunc(s, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var out []span
	for _, x := range s {
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, x.end)
			continue
		}
		out = append(out, x)
	}
	return out
}
