package core

// Literal interning seen from Swift: constants are created closed once
// per engine rank and shared by every use, so containers may hold the
// same member id at several subscripts, and ranges create more
// constants than one rank's literal table holds.

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The §IV ensemble costs a fixed number of data-store RPCs on one
// engine: 243. It was 578 when every literal cost Create + Store and the
// engine subscribed to data it had created or stored itself, and 323
// before stc knew which data are closed. Now, in each of the 16 range
// iterations, `params[i] = itof(i) * 0.5` runs as direct calls on the
// literal index: store itof's temporary, retrieve it, store the product,
// insert (4 ops). As rules it cost 7: a Subscribe on the temporary, and
// a write_refcount +1/-1 pair around sw:ainsert. In each of the 16
// array iterations, `sq[i] = python(...)` inserts at the literal index
// directly (1 op, not 3). 323 - 16*3 - 16*2 = 243.
func TestEnsembleDataOpsPinned(t *testing.T) {
	const want = 243
	res, err := Run(elasticEnsemble, Config{Engines: 1, Workers: 4, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	expectEnsembleOutput(t, res.Stdout)
	if got := res.ADLB.DataOps; got != want {
		t.Fatalf("adlb data ops = %d, want %d", got, want)
	}
}

// `a[0] = 5; a[1] = 5;` inserts one shared literal id at two subscripts.
// The array must still read back per subscript through foreach, pack
// into a vector, and unpack into an array of its own members.
func TestSharedLiteralMembersRoundTrip(t *testing.T) {
	res, err := Run(`
		int a[];
		a[0] = 5; a[1] = 5; a[2] = 7;
		foreach v, i in a { trace("a", i, v); }
		blob p = vpack(a);
		int b[] = vunpack(p);
		foreach v, i in b { trace("b", i, v); }
		int s = python("", "sum(argv1)", p);
		printf("n=%i s=%i", size(b), s);
	`, Config{Engines: 2, Workers: 2, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(res.Stdout), "\n") {
		lines = append(lines, strings.TrimSpace(l))
	}
	sort.Strings(lines)
	want := []string{"n=3 s=17",
		"trace: a,0,5", "trace: a,1,5", "trace: a,2,7",
		"trace: b,0,5", "trace: b,1,5", "trace: b,2,7"}
	if strings.Join(lines, "|") != strings.Join(want, "|") {
		t.Fatalf("output %q, want %q", lines, want)
	}
}

// A range of 10,000 creates more distinct literals than one rank's table
// holds (range_build makes the members, foreach the indexes), so the
// table clears while the run is using ids it has forgotten.
func TestRangePastLiteralTableCap(t *testing.T) {
	const n = 10000
	res, err := Run(fmt.Sprintf(`
		int A[] = [0:%d];
		int B[];
		foreach x, i in A { B[i] = x * 2 + i; }
		float s = python("", "sum(argv1)", vpack(B));
		printf("size=%%i sum=%%s", size(B), toString(s));
	`, n-1), Config{Engines: 1, Workers: 2, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var size int
	var sum float64
	want := float64(3 * n * (n - 1) / 2)
	if _, err := fmt.Sscanf(strings.TrimSpace(res.Stdout), "size=%d sum=%g", &size, &sum); err != nil ||
		size != n || sum != want {
		t.Fatalf("stdout %q, want size=%d sum=%g", res.Stdout, n, want)
	}
}
