package main

// Seeded input generators and the oracles that check each op. Every
// expected value here is computed from the generated inputs alone —
// never from an earlier run of the program under test.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro/internal/nativelib"
	"repro/internal/serve"
)

// rng returns the generator for one stream of one seed, so that adding
// draws to one stream never shifts another.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// ---- ensemble (and elastic) ----

const (
	ensembleMembers = 64
	ensemblePass    = 8 // programs per pass; one op runs one program
)

// member is one ensemble member's parameters.
type member struct {
	Cells, Steps int64   // sim_lattice extents
	Coupling     float64 // sim_lattice coupling, a multiple of 1/1000
	A, B         float64 // the member's Python fragment: y = e*A + B
	K            int64   // the R fragment's offset: z = y/2 + K
}

// ensembleOp is one ensemble program and the aggregate it must print.
type ensembleOp struct {
	Source string
	Total  float64
}

const ensemblePrelude = `
(float e) lattice(int cells, int steps, float coupling)
    "libsim" "1.0"
    [ "set <<e>> [ sim_lattice <<cells>> <<steps>> <<coupling>> ]" ];

(float s) member(int cells, int steps, float coupling, string code, int k) {
    float e = lattice(cells, steps, coupling);
    float p = python(code, "y", e);
    float q = r("z <- argv1 / 2 + argv2", "z", p, k);
    if (q > 10.0) { s = q - 10.0; } else { s = q * 2.0; }
}

float xs[];
`

// genEnsemble builds one pass of ensemble programs. Every member's
// Python code text differs, so each is parsed afresh.
func genEnsemble(seed int64) []ensembleOp {
	r := rng(seed, 1)
	lattice := simKernel("sim_lattice")
	ops := make([]ensembleOp, ensemblePass)
	for o := range ops {
		var src strings.Builder
		src.WriteString(ensemblePrelude)
		total := 0.0
		for i := 0; i < ensembleMembers; i++ {
			m := member{
				Cells:    64 + r.Int64N(64),
				Steps:    16 + r.Int64N(32),
				Coupling: float64(50+r.IntN(200)) / 1000,
				A:        float64(1+r.IntN(16)) / 4,
				B:        float64(r.IntN(64)) / 8,
				K:        r.Int64N(10),
			}
			fmt.Fprintf(&src, "xs[%d] = member(%d, %d, %s, \"y = argv1 * %s + %s\", %d);\n",
				i, m.Cells, m.Steps, fmtFloat(m.Coupling), fmtFloat(m.A), fmtFloat(m.B), m.K)
			total += m.score(lattice)
		}
		src.WriteString(`blob v = vpack(xs);
string t = python("", "repr(sum(argv1))", v);
printf("total=%s", t);
`)
		ops[o] = ensembleOp{Source: src.String(), Total: total}
	}
	return ops
}

// score is the member's result computed in Go: the native kernel through
// the public nativelib symbol table, then the fragments' arithmetic with
// every product rounded before the add, as the interpreters do.
func (m member) score(lattice nativelib.Kernel) float64 {
	v, err := lattice([]any{m.Cells, m.Steps, m.Coupling})
	if err != nil {
		panic(err)
	}
	y := float64(v.(float64)*m.A) + m.B
	q := float64(y/2) + float64(m.K)
	if q > 10 {
		return q - 10
	}
	return q * 2
}

func simKernel(name string) nativelib.Kernel {
	k, err := nativelib.NewSimLibrary().Resolve(name)
	if err != nil {
		panic(err)
	}
	return k
}

// checkTotal checks that out is exactly "total=<x>" with x bit-identical
// to want.
func checkTotal(out string, want float64) error {
	s, ok := strings.CutPrefix(strings.TrimSpace(out), "total=")
	if !ok {
		return fmt.Errorf("ensemble output %q lacks total=", out)
	}
	got, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("ensemble output %q: %v", out, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("ensemble total %v, want %v", got, want)
	}
	return nil
}

func fmtFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s
}

// ---- pack ----

const (
	packPass = 15 // sizes per pass, each run once
	packMinN = 512
	packMaxN = 8192
)

// packOp is one container<->vector round trip over n elements.
type packOp struct {
	N      int
	Source string
}

// genPack draws one pass of sizes: one per equal-width stratum of log n
// over [packMinN, packMaxN), drawn log-uniformly from the middle quarter
// of its stratum, in seeded order. Every seed thus gets nearly the same
// spread of sizes, and with an odd number of strata the p50 and the p90
// of a run fall in the middle of one size's samples (strata 8 and 14 of
// 15), not on the edge between two sizes, so both are steady.
func genPack(seed int64) []packOp {
	r := rng(seed, 2)
	span := math.Log(float64(packMaxN) / packMinN)
	ops := make([]packOp, packPass)
	for i := range ops {
		u := (float64(i) + 0.375 + r.Float64()/4) / packPass
		n := int(packMinN * math.Exp(u*span))
		ops[i] = packOp{N: n, Source: packSource(n)}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// packSource builds 1..n in R, crosses the container<->vector bridge
// twice with an R map between, and sums in Python. The printed sum is
// (sum(2i+1) - n)/2 = n(n+1)/2.
func packSource(n int) string {
	return fmt.Sprintf(`blob v0 = r("x <- 1:%d", "x");
int a[] = vunpack(v0);
blob v1 = vpack(a);
blob v2 = r("y <- argv1 * 2 + 1", "y", v1);
float b[] = vunpack(v2);
blob v3 = vpack(b);
float s = python("", "(sum(argv1) - len(argv1)) / 2", v3);
printf("size=%%i sum=%%s", size(b), toString(s));
`, n)
}

func checkPack(out string, n int) error {
	var size int
	var sum string
	if _, err := fmt.Sscanf(strings.TrimSpace(out), "size=%d sum=%s", &size, &sum); err != nil {
		return fmt.Errorf("pack output %q: %v", out, err)
	}
	got, err := strconv.ParseFloat(sum, 64)
	if err != nil {
		return fmt.Errorf("pack output %q: %v", out, err)
	}
	if want := float64(n) * float64(n+1) / 2; size != n || got != want {
		return fmt.Errorf("pack n=%d: size=%d sum=%v, want size=%d sum=%v", n, size, got, n, want)
	}
	return nil
}

// ---- serve ----

const (
	servePass     = 1000
	serveTenants  = 4
	serveSessions = 2 // sticky sessions per tenant
	serveHot      = 8 // hot fragment texts per language
	servePrograms = 4
	serveRunShare = 0.05
	serveHotShare = 0.80
)

var serveLangs = []string{"python", "r", "julia", "tcl"}

// serveReq is one HTTP request and the answer it must get.
type serveReq struct {
	Path string
	Body []byte
	// Want is the expected value in the language's natural result kind:
	// python and julia answer int, R float, Tcl string. A program run
	// answers its stdout as a string.
	Want serve.WireValue
}

// fragment is one arithmetic fragment x = a*b + c in language lang.
type fragment struct {
	Lang    string
	A, B, C int64
}

func (f fragment) request(tenant, session string) serve.FragmentRequest {
	req := serve.FragmentRequest{Tenant: tenant, Session: session, Lang: f.Lang, Want: "int", Expr: "x"}
	switch f.Lang {
	case "r":
		req.Code = fmt.Sprintf("x <- %d * %d + %d", f.A, f.B, f.C)
	case "tcl":
		req.Code, req.Expr = fmt.Sprintf("expr {%d * %d + %d}", f.A, f.B, f.C), ""
	default:
		req.Code = fmt.Sprintf("x = %d * %d + %d", f.A, f.B, f.C)
	}
	return req
}

func (f fragment) want() serve.WireValue {
	v := f.A*f.B + f.C
	switch f.Lang {
	case "r":
		return serve.WireValue{Kind: "float", Float: float64(v)}
	case "tcl":
		return serve.WireValue{Kind: "string", Str: strconv.FormatInt(v, 10)}
	}
	return serve.WireValue{Kind: "int", Int: v}
}

func randFragment(r *rand.Rand, lang string) fragment {
	return fragment{Lang: lang, A: 1 + r.Int64N(999), B: 1 + r.Int64N(999), C: r.Int64N(1000)}
}

// serveProgram is one whole-program submission and its exact stdout.
type serveProgram struct {
	Source, Stdout string
}

func genServePrograms(seed int64) []serveProgram {
	r := rng(seed, 3)
	ps := make([]serveProgram, servePrograms)
	for i := range ps {
		a, b, c := 1+r.Int64N(999), 1+r.Int64N(999), r.Int64N(1000)
		ps[i] = serveProgram{
			Source: fmt.Sprintf(`int a = %d; int b = %d;
string p = python("v = argv1 * argv2 + %d", "repr(v)", a, b);
printf("prog=%%s", p);
`, a, b, c),
			Stdout: fmt.Sprintf("prog=%d\n", a*b+c),
		}
	}
	return ps
}

// serveMix is the seed's fixed traffic pattern: which slots of a pass are
// program runs, which fragments are hot, and who sends them.
type serveMix struct {
	progs []serveProgram
	hot   map[string][]fragment
	slots []serveSlot
}

type serveSlot struct {
	run     bool
	prog    int
	tenant  string
	session string
	lang    string
	hot     int // index into the hot set, or -1 for a unique fragment
}

// genServeMix lays out one pass with exact shares — program runs, hot
// and unique fragments, and tenants, sessions and languages in equal
// numbers — then shuffles it by seed. Seeds differ in order, fragment
// constants and hot-set picks, never in the mix itself.
func genServeMix(seed int64) *serveMix {
	r := rng(seed, 4)
	m := &serveMix{progs: genServePrograms(seed), hot: map[string][]fragment{}}
	for _, l := range serveLangs {
		for i := 0; i < serveHot; i++ {
			m.hot[l] = append(m.hot[l], randFragment(r, l))
		}
	}
	runs := int(math.Round(servePass * serveRunShare))
	hot := int(math.Round((servePass - float64(runs)) * serveHotShare))
	m.slots = make([]serveSlot, servePass)
	for i := range m.slots {
		s := serveSlot{
			tenant:  fmt.Sprintf("tenant%d", i%serveTenants),
			session: fmt.Sprintf("s%d", i/serveTenants%serveSessions),
			lang:    serveLangs[i/(serveTenants*serveSessions)%len(serveLangs)],
			hot:     -1,
		}
		switch {
		case i < runs:
			s.run, s.prog = true, i%servePrograms
		case i < runs+hot:
			s.hot = r.IntN(serveHot)
		}
		m.slots[i] = s
	}
	r.Shuffle(len(m.slots), func(i, j int) { m.slots[i], m.slots[j] = m.slots[j], m.slots[i] })
	return m
}

// pass builds the requests of one pass. The mix is the same every pass;
// the unique fragments are fresh per pass, so they stay parse-cache
// misses however many passes a run makes.
func (m *serveMix) pass(seed int64, pass int) []serveReq {
	r := rng(seed, 1000+uint64(pass))
	reqs := make([]serveReq, len(m.slots))
	for i, s := range m.slots {
		if s.run {
			p := m.progs[s.prog]
			reqs[i] = serveReq{
				Path: "/api/v1/run",
				Body: mustJSON(serve.ProgramRequest{Tenant: s.tenant, Source: p.Source}),
				Want: serve.WireValue{Kind: "string", Str: p.Stdout},
			}
			continue
		}
		f := randFragment(r, s.lang)
		if s.hot >= 0 {
			f = m.hot[s.lang][s.hot]
		}
		reqs[i] = serveReq{
			Path: "/api/v1/frag",
			Body: mustJSON(f.request(s.tenant, s.session)),
			Want: f.want(),
		}
	}
	return reqs
}

// warmup returns one request per (tenant, session, language) hot
// fragment and one per program: after it, the engine pools hold every
// engine the mix uses and the program cache holds every program.
func (m *serveMix) warmup() []serveReq {
	var reqs []serveReq
	for t := 0; t < serveTenants; t++ {
		tenant := fmt.Sprintf("tenant%d", t)
		for s := 0; s < serveSessions; s++ {
			for _, l := range serveLangs {
				for _, f := range m.hot[l] {
					reqs = append(reqs, serveReq{
						Path: "/api/v1/frag",
						Body: mustJSON(f.request(tenant, fmt.Sprintf("s%d", s))),
						Want: f.want(),
					})
				}
			}
		}
	}
	for _, p := range m.progs {
		reqs = append(reqs, serveReq{
			Path: "/api/v1/run",
			Body: mustJSON(serve.ProgramRequest{Tenant: "tenant0", Source: p.Source}),
			Want: serve.WireValue{Kind: "string", Str: p.Stdout},
		})
	}
	return reqs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
