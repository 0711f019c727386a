package main

// The four workloads: set-up (inputs, compiled programs, listeners) and
// the op each runs, through the program's public entry points only.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/adlb"
	"repro/internal/core"
	"repro/internal/nativelib"
	"repro/internal/serve"
	"repro/internal/stc"
	"repro/internal/turbine"
)

type workload struct {
	name  string
	setup func(seed int64, tr *tracer) (*bench, error)
}

var workloads = []workload{
	{"ensemble", setupEnsemble},
	{"pack", setupPack},
	{"serve", setupServe},
	{"elastic", setupElastic},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// counters is one reading of the program's own counters.
type counters struct {
	adlb                 adlb.StatsSnapshot
	control, leaf, rules int64
	serve                serve.Snapshot // serve only; adlb is its warm world's
}

// compileAll compiles every source with stc.Compile and returns the
// total compile time.
func compileAll(srcs []string) ([]*stc.Output, time.Duration, error) {
	outs := make([]*stc.Output, len(srcs))
	t0 := time.Now()
	for i, s := range srcs {
		out, err := stc.Compile(s)
		if err != nil {
			return nil, 0, err
		}
		outs[i] = out
	}
	return outs, time.Since(t0), nil
}

// batchCounters reads the shared counter blocks of batch-world runs.
func batchCounters(st *adlb.Stats, ts *turbine.Stats) func() counters {
	return func() counters {
		return counters{
			adlb:    st.Snapshot(),
			control: ts.ControlTasks.Load(),
			leaf:    ts.LeafTasks.Load(),
			rules:   ts.RulesCreated.Load(),
		}
	}
}

// simLibs is the libsim native library, with its kernels timed when
// traced.
func simLibs(tr *tracer) []*nativelib.Library {
	lib := nativelib.NewSimLibrary()
	if tr != nil {
		tr.wrapLibrary(lib)
	}
	return []*nativelib.Library{lib}
}

func setupEnsemble(seed int64, tr *tracer) (*bench, error) {
	ops := genEnsemble(seed)
	srcs := make([]string, len(ops))
	for i, o := range ops {
		srcs[i] = o.Source
	}
	outs, dt, err := compileAll(srcs)
	if err != nil {
		return nil, err
	}
	libs := simLibs(tr)
	st, ts := &adlb.Stats{}, &turbine.Stats{}
	b := &bench{passLen: len(ops), clients: 1, compile: dt, counters: batchCounters(st, ts)}
	b.op = func(p, i int) (int, error) {
		res, err := core.RunCompiled(outs[i], core.Config{
			Engines: 1, Workers: 4, Servers: 1,
			NativeLibs: libs, Stats: st, TurbineStats: ts,
		})
		if err != nil {
			return 0, err
		}
		b.keep(p, i, res.Stdout)
		return 0, checkTotal(res.Stdout, ops[i].Total)
	}
	return b, nil
}

// setupElastic runs the ensemble programs as elastic hubs, each joined
// by two in-process workers over loopback TCP.
func setupElastic(seed int64, tr *tracer) (*bench, error) {
	ops := genEnsemble(seed)
	srcs := make([]string, len(ops))
	for i, o := range ops {
		srcs[i] = o.Source
	}
	outs, dt, err := compileAll(srcs)
	if err != nil {
		return nil, err
	}
	// Hub-local ranks bind this library; worker processes always bind
	// their own libsim, so their kernel calls are not traced.
	libs := simLibs(tr)
	st, ts := &adlb.Stats{}, &turbine.Stats{}
	b := &bench{passLen: len(ops), clients: 1, compile: dt, counters: batchCounters(st, ts)}
	const workers = 2
	b.op = func(p, i int) (int, error) {
		var wg sync.WaitGroup
		var wout [workers]bytes.Buffer
		var werr [workers]error
		res, err := core.ServeElastic(outs[i], core.ElasticConfig{
			Engines: 1, Servers: 1, WorkerSlots: workers, MinWorkers: workers,
			JoinTimeout: 30 * time.Second,
			NativeLibs:  libs, Stats: st, TurbineStats: ts,
			OnListen: func(addr string) {
				for w := range workers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						werr[w] = core.ElasticWorker(addr, &wout[w])
					}()
				}
			},
		})
		wg.Wait()
		if err != nil {
			return 0, err
		}
		for _, e := range werr {
			if e != nil {
				return 0, fmt.Errorf("elastic worker: %w", e)
			}
		}
		out := res.Stdout + wout[0].String() + wout[1].String()
		b.keep(p, i, out)
		return 0, checkTotal(out, ops[i].Total)
	}
	return b, nil
}

func setupPack(seed int64, tr *tracer) (*bench, error) {
	ops := genPack(seed)
	srcs := make([]string, len(ops))
	for i, o := range ops {
		srcs[i] = o.Source
	}
	outs, dt, err := compileAll(srcs)
	if err != nil {
		return nil, err
	}
	st, ts := &adlb.Stats{}, &turbine.Stats{}
	b := &bench{passLen: len(ops), clients: 1, compile: dt, counters: batchCounters(st, ts)}
	b.op = func(p, i int) (int, error) {
		res, err := core.RunCompiled(outs[i], core.Config{
			Engines: 1, Workers: 4, Servers: 1, Stats: st, TurbineStats: ts,
		})
		if err != nil {
			return ops[i].N, err
		}
		b.keep(p, i, res.Stdout)
		return ops[i].N, checkPack(res.Stdout, ops[i].N)
	}
	return b, nil
}

const serveClients = 2

// setupServe starts swiftd's service on a loopback listener, warms its
// engine pools and program cache, and drives it with closed-loop
// keep-alive clients.
func setupServe(seed int64, tr *tracer) (*bench, error) {
	mix := genServeMix(seed)
	srcs := make([]string, len(mix.progs))
	for i, p := range mix.progs {
		srcs[i] = p.Source
	}
	_, dt, err := compileAll(srcs)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tp := &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	c := &serveClient{http: &http.Client{Transport: tp}, base: "http://" + ln.Addr().String()}

	b := &bench{passLen: servePass, clients: serveClients, compile: dt}
	b.close = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		tp.CloseIdleConnections()
		if serr := <-served; serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		return err
	}
	for _, r := range mix.warmup() {
		if _, err := c.do(r); err != nil {
			b.close()
			return nil, fmt.Errorf("serve warm-up: %w", err)
		}
	}
	b.counters = func() counters {
		s := srv.Stats()
		return counters{adlb: s.ADLB, serve: s}
	}
	var reqs []serveReq
	b.prepare = func(p int) { reqs = mix.pass(seed, p) }
	b.op = func(p, i int) (int, error) {
		got, err := c.do(reqs[i])
		b.keep(p, i, got)
		return 0, err
	}
	// The pool counters after the first pass are what traced and untraced
	// runs of one seed must agree on.
	b.afterPass = func(p int) error {
		if p != 0 {
			return nil
		}
		var snap serve.Snapshot
		if err := c.get("/statsz", &snap); err != nil {
			return err
		}
		b.poolAfterFirst = snap.Pool
		return nil
	}
	return b, nil
}

type serveClient struct {
	http *http.Client
	base string
}

// do sends one request and checks the answer against the generator's
// value, exactly and in the language's natural kind. It returns the
// answer as text.
func (c *serveClient) do(r serveReq) (string, error) {
	resp, err := c.http.Post(c.base+r.Path, "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: status %d: %s", r.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	var got serve.WireValue
	if r.Path == "/api/v1/run" {
		var pr struct {
			Stdout string `json:"stdout"`
		}
		if err := json.Unmarshal(body, &pr); err != nil {
			return "", err
		}
		got = serve.WireValue{Kind: "string", Str: pr.Stdout}
	} else {
		var fr serve.FragmentResult
		if err := json.Unmarshal(body, &fr); err != nil {
			return "", err
		}
		got = fr.Value
	}
	text := fmt.Sprintf("%s:%s:%d:%x", got.Kind, got.Str, got.Int, math.Float64bits(got.Float))
	if got.Kind != r.Want.Kind || got.Str != r.Want.Str || got.Int != r.Want.Int ||
		math.Float64bits(got.Float) != math.Float64bits(r.Want.Float) {
		return text, fmt.Errorf("%s answered %+v, want %+v", r.Path, got, r.Want)
	}
	return text, nil
}

func (c *serveClient) get(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
