package stc

// Closedness in stc, seen from the runtime: what a statement costs in
// rules, control tasks and data-store operations once stc knows which of
// its operands are closed, and that a fused condition picks the same
// branch, and the branch stores the same bits, as the operator evaluated
// in Go.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adlb"
	"repro/internal/turbine"
)

// incFunc declares inc, a Tcl-template leaf function: a worker runs it
// once its input is closed, so its output is never known closed to stc.
const incFunc = `(int o) inc(int i) "m" "1.0" [ "set <<o>> [ expr {<<i>> + 1} ]" ];
`

// TestRuleCounts pins what each snippet costs on one engine, one worker
// and one server. Every count is derived from the program stc emits for
// the snippet. Data ops are the data-store RPCs a server counts: create
// (so one per turbine::allocate and one per distinct literal on a rank;
// the id from Unique is not a data op), store, retrieve, subscribe,
// insert, enumerate and write_refcount. A rank answers a retrieve of its
// own literal without an RPC; a worker never holds the engine's
// literals, so it retrieves them. One rule subscribes to its unclosed
// inputs in one RPC.
func TestRuleCounts(t *testing.T) {
	cases := []struct {
		name                   string
		src                    string
		rules, control, dataOp int64
		want                   []string
	}{{
		// set x [allocate]                     create x          1
		// literal 4                            create            1
		// rule [4] "u:inc x 4" type work       rule 1; worker: retrieve 4, store x  2
		// literal 3                            create            1
		// rule [x 3] "sw:if [list > ...] ..."  rule 2; subscribe x  1
		// fires (control 1): sw:binval retrieves x (3 is local)  1
		// then-branch: literal 1               create            1
		//              sw:trace direct         literal is local  0
		name: "fused if",
		src: incFunc + `int x = inc(4);
			if (x > 3) { trace(1); } else { trace(0); }`,
		rules: 2, control: 1, dataOp: 8,
		want: []string{"trace: 1"},
	}, {
		// As "fused if" up to the firing (7 ops, no literal 1). The
		// branch's x is a condition operand, so it is known closed:
		// literal 3                            table hit         0
		// set t [allocate]                     create t          1
		// sw:binop t - x 3 direct              retrieve x, store t  2
		// sw:trace t direct (t known closed)   retrieve t        1
		name: "branch using a condition operand",
		src: incFunc + `int x = inc(4);
			if (x > 3) { trace(x - 3); }`,
		rules: 2, control: 1, dataOp: 11,
		want: []string{"trace: 2"},
	}, {
		// set a [allocate container]           create a          1
		// literal 5                            create            1
		// container_insert a 0 5               insert            1
		// set t [allocate]                     create t          1
		// rule [a] "sw:asize t a"              rule 1; subscribe a  1
		// rule [t] "sw:trace ..."              rule 2; subscribe t  1
		// write_refcount a -1 (block end)      closes a          1
		// sw:asize fires (control 1)           enumerate, store t  2
		// sw:trace fires (control 2)           retrieve t        1
		name: "literal-subscript insert",
		src: `int a[];
			a[0] = 5;
			trace(size(a));`,
		rules: 2, control: 2, dataOp: 10,
		want: []string{"trace: 1"},
	}, {
		// b = [5, 6]: create b, literals 5 and 6, two inserts,
		// write_refcount b -1                                    6
		// set a [allocate container]           create a          1
		// write_refcount a 1 (loop's reference)                  1
		// rule [b] "sw:asplit ..."             rule 1; subscribe b  1
		// write_refcount a -1 (block end)                        1
		// sw:asplit fires (control 1)          enumerate b       1
		// per member: literal index (0, 1)     create            2
		//   container_insert a [retrieve i] v  i is local; insert  2
		// sw:asplit drops the loop's reference write_refcount   1
		name: "foreach-index insert",
		src: `int b[] = [5, 6];
			int a[];
			foreach v, i in b { a[i] = v; }`,
		rules: 1, control: 1, dataOp: 16,
	}, {
		// set a [allocate]                     create a          1
		// literals 1.0, 2.0                    create            2
		// sw:binop a + 1.0 2.0 direct          store a           1
		// set b [allocate]                     create b          1
		// literal 3.0                          create            1
		// sw:binop b * a 3.0 direct            retrieve a, store b  2
		// sw:trace b direct                    retrieve b        1
		name: "chain of direct calls",
		src: `float a = 1.0 + 2.0;
			float b = a * 3.0;
			trace(b);`,
		rules: 0, control: 0, dataOp: 9,
		want: []string{"trace: 9.0"},
	}, {
		// set b [allocate]                     create b          1
		// literal 4                            create            1
		// rule [4] "u:inc b 4" type work       rule 1; worker: retrieve 4, store b  2
		// rule [b] "sw:if b ..."               rule 2; subscribe b  1
		// fires (control 1): retrieve_integer b                  1
		// then-branch: literal 1               create            1
		name: "bare boolean condition stays a rule",
		src: `(boolean o) pos(int i) "m" "1.0" [ "set <<o>> [ expr {<<i>> > 0} ]" ];
			boolean b = pos(4);
			if (b) { trace(1); }`,
		rules: 2, control: 1, dataOp: 7,
		want: []string{"trace: 1"},
	}, {
		// set x [allocate]                     create x          1
		// literal 4                            create            1
		// rule [4] "u:inc x 4" type work       rule 1, released at once (4 is
		//                                      closed); worker: retrieve 4, store x  2
		// rule [x] "sw:trace ..."              rule 2; subscribe x  1
		// fires (control 1)                    retrieve x        1
		name: "leaf call on literals stays a work rule",
		src: incFunc + `int x = inc(4);
			trace(x);`,
		rules: 2, control: 1, dataOp: 6,
		want: []string{"trace: 5"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats, ts := &adlb.Stats{}, &turbine.Stats{}
			lines, err := runWithConfig(tc.src, 3, &turbine.Config{
				Engines: 1, Servers: 1, Stats: stats, TurbineStats: ts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.want != nil {
				expectLines(t, lines, tc.want)
			}
			got := [3]int64{ts.RulesCreated.Load(), ts.ControlTasks.Load(), stats.DataOps.Load()}
			if want := [3]int64{tc.rules, tc.control, tc.dataOp}; got != want {
				out, _ := Compile(tc.src)
				t.Fatalf("rules, control tasks, data ops = %v, want %v\n%s",
					got, want, out.Program[len(Prelude):])
			}
		})
	}
}

// operand is one side of a fused condition: its Swift literal and the
// value it denotes.
type operand struct {
	src  string // Swift literal
	kind string // int, float, string or boolean
	i    int64
	f    float64
	s    string
	b    bool
}

func intOp(v int64) operand { return operand{src: strconv.FormatInt(v, 10), kind: "int", i: v} }

func floatOp(src string) operand {
	f, err := strconv.ParseFloat(src, 64) // keeps the sign of -0.0
	if err != nil {
		panic(err)
	}
	return operand{src: src, kind: "float", f: f}
}

func stringOp(s string) operand { return operand{src: strconv.Quote(s), kind: "string", s: s} }

func boolOp(b bool) operand { return operand{src: strconv.FormatBool(b), kind: "boolean", b: b} }

func (o operand) num() float64 {
	if o.kind == "int" {
		return float64(o.i)
	}
	return o.f
}

// fusedOracle evaluates l op r in Go, and the values the two branches
// of the oracle program store: l - r and l * r for numbers (float if
// either side is), l + r and r + l for strings, l == r and l != r for
// booleans. It also returns the Swift type of those values.
func fusedOracle(op string, l, r operand) (cond bool, typ string, then, els any) {
	switch {
	case l.kind == "boolean":
		cond = map[string]bool{"&&": l.b && r.b, "||": l.b || r.b}[op]
		return cond, "boolean", l.b == r.b, l.b != r.b
	case l.kind == "string":
		c := strings.Compare(l.s, r.s)
		return compare(op, c), "string", l.s + r.s, r.s + l.s
	case l.kind == "int" && r.kind == "int":
		c := 0
		if l.i < r.i {
			c = -1
		} else if l.i > r.i {
			c = 1
		}
		return compare(op, c), "int", l.i - r.i, l.i * r.i
	}
	a, b := l.num(), r.num() // int -> float promotion
	c := 0
	if a < b {
		c = -1
	} else if a > b {
		c = 1
	}
	return compare(op, c), "float", a - b, a * b
}

func compare(op string, c int) bool {
	switch op {
	case "==":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	panic("bad comparison " + op)
}

// sameValue reports whether got, as trace renders it, is want: floats
// bit for bit, so -0.0 differs from 0.0.
func sameValue(got string, want any) bool {
	switch w := want.(type) {
	case float64:
		f, err := strconv.ParseFloat(got, 64)
		return err == nil && math.Float64bits(f) == math.Float64bits(w)
	case int64:
		return got == strconv.FormatInt(w, 10)
	case bool:
		return got == map[bool]string{true: "1", false: "0"}[w]
	}
	return got == want
}

// TestFusedConditionOracle runs every comparison and logic operator on
// int, float, string and mixed int/float operands, and on -0.0 against
// 0.0, with both branch outcomes, through both forms of a fused
// condition: a direct sw:if call on operands stored from literals, and
// a rule on operands an identity function returns. Each case checks the
// branch taken, and the bits the branch stores from the condition's own
// operands, against Go.
func TestFusedConditionOracle(t *testing.T) {
	type pair struct{ l, r operand }
	var numeric []pair
	for _, p := range [][2]int64{{3, 5}, {5, 3}, {4, 4}, {-7, 2}} {
		numeric = append(numeric, pair{intOp(p[0]), intOp(p[1])})
	}
	for _, p := range [][2]string{{"2.5", "7.25"}, {"7.25", "2.5"}, {"1.5", "1.5"}, {"-0.0", "0.0"}, {"0.0", "-0.0"}} {
		numeric = append(numeric, pair{floatOp(p[0]), floatOp(p[1])})
	}
	for _, p := range []struct {
		i int64
		f string
	}{{3, "3.5"}, {4, "3.5"}, {3, "3.0"}} {
		numeric = append(numeric, pair{intOp(p.i), floatOp(p.f)}, pair{floatOp(p.f), intOp(p.i)})
	}
	// "10" < "9" and "1.0" != "1" as strings, not as numbers.
	for _, p := range [][2]string{{"abc", "abd"}, {"abd", "abc"}, {"x", "x"}, {"10", "9"}, {"1.0", "1"}} {
		numeric = append(numeric, pair{stringOp(p[0]), stringOp(p[1])})
	}
	type tcase struct {
		op   string
		l, r operand
	}
	var cases []tcase
	for _, op := range []string{"==", "!=", "<", "<=", ">", ">="} {
		for _, p := range numeric {
			cases = append(cases, tcase{op, p.l, p.r})
		}
	}
	for _, op := range []string{"&&", "||"} {
		for _, l := range []bool{false, true} {
			for _, r := range []bool{false, true} {
				cases = append(cases, tcase{op, boolOp(l), boolOp(r)})
			}
		}
	}

	ident := map[string]string{"int": "idi", "float": "idf", "string": "ids", "boolean": "idb"}
	var src strings.Builder
	for kind, f := range ident {
		fmt.Fprintf(&src, "(%s o) %s(%s x) { o = x; }\n", kind, f, kind)
	}
	type expect struct {
		branch string
		value  any
	}
	want := map[string]expect{}
	k := 0
	for _, direct := range []bool{true, false} {
		for _, tc := range cases {
			cond, typ, then, els := fusedOracle(tc.op, tc.l, tc.r)
			l, r := tc.l.src, tc.r.src
			if !direct {
				l, r = ident[tc.l.kind]+"("+l+")", ident[tc.r.kind]+"("+r+")"
			}
			thenX, elseX := "l%[1]d - r%[1]d", "l%[1]d * r%[1]d"
			switch typ {
			case "string":
				thenX, elseX = "l%[1]d + r%[1]d", "r%[1]d + l%[1]d"
			case "boolean":
				thenX, elseX = "l%[1]d == r%[1]d", "l%[1]d != r%[1]d"
			}
			fmt.Fprintf(&src, "%s l%d = %s; %s r%d = %s; %s s%d;\n", tc.l.kind, k, l, tc.r.kind, k, r, typ, k)
			fmt.Fprintf(&src, "if (l%[1]d %[2]s r%[1]d) { s%[1]d = %[3]s; trace(%[1]d, \"then\"); }"+
				" else { s%[1]d = %[4]s; trace(%[1]d, \"else\"); }\n",
				k, tc.op, fmt.Sprintf(thenX, k), fmt.Sprintf(elseX, k))
			fmt.Fprintf(&src, "trace(%d, \"=\", s%d);\n", k, k)
			e := expect{"else", els}
			if cond {
				e = expect{"then", then}
			}
			want[strconv.Itoa(k)] = e
			k++
		}
	}

	out, err := Compile(src.String())
	if err != nil {
		t.Fatal(err)
	}
	// Both forms of the fused condition are in the program, once per case.
	direct := strings.Count(out.Program, "\n    sw:if [list ")
	ruled := strings.Count(out.Program, `"sw:if [list [list `)
	if direct != len(cases) || ruled != len(cases) {
		t.Fatalf("%d direct and %d ruled fused conditions, want %d of each", direct, ruled, len(cases))
	}

	lines, err := runWithConfig(src.String(), 3, &turbine.Config{Engines: 1, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seenBranch, seenValue := map[string]bool{}, map[string]bool{}
	for _, line := range lines {
		f := strings.SplitN(strings.TrimPrefix(line, "trace: "), ",", 3)
		e, ok := want[f[0]]
		if !ok || len(f) < 2 {
			t.Fatalf("unexpected output line %q", line)
		}
		tc := cases[atoi(t, f[0])%len(cases)]
		switch {
		case len(f) == 2:
			seenBranch[f[0]] = true
			if f[1] != e.branch {
				t.Errorf("case %s (%s %s %s): took %s, want %s", f[0], tc.l.src, tc.op, tc.r.src, f[1], e.branch)
			}
		case f[1] == "=":
			seenValue[f[0]] = true
			if !sameValue(f[2], e.value) {
				t.Errorf("case %s (%s %s %s): stored %s, want %v from the %s branch", f[0], tc.l.src, tc.op, tc.r.src, f[2], e.value, e.branch)
			}
		default:
			t.Fatalf("unexpected output line %q", line)
		}
	}
	if len(seenBranch) != len(want) || len(seenValue) != len(want) {
		t.Fatalf("saw %d branches and %d values, want %d of each", len(seenBranch), len(seenValue), len(want))
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
