package tcl

import (
	"runtime"
	"strings"
	"testing"
)

// lappend grows a scalar in place through its append buffer. These tests
// pin the value semantics that must survive that: every string already
// handed out stays unchanged, and any other assignment retires the buffer.

func TestLappendLeavesCopiesUnchanged(t *testing.T) {
	in := New()
	evalOK(t, in, "set a {}; lappend a x y")
	evalOK(t, in, "set b $a")
	expect(t, in, "lappend a z", "x y z")
	expect(t, in, "set b", "x y")
	// The copy grows independently of the original.
	expect(t, in, "lappend b w", "x y w")
	expect(t, in, "set a", "x y z")
	// A result captured from lappend itself is a copy too.
	evalOK(t, in, "set r [lappend a q]")
	expect(t, in, "lappend a s", "x y z q s")
	expect(t, in, "set r", "x y z q")
}

func TestLappendAfterReassignment(t *testing.T) {
	in := New()
	evalOK(t, in, "set a {}; foreach e {a b c d} { lappend a $e }")
	// Truncate through set: the buffer still holds "a b c d", so lappend
	// must append to the new value, not the old buffer.
	evalOK(t, in, "set a [string range $a 0 2]")
	expect(t, in, "lappend a e", "a b e")
	expect(t, in, "lappend a f", "a b e f")

	// Restore an old value taken before later appends.
	evalOK(t, in, "set old $a")
	expect(t, in, "lappend a g h", "a b e f g h")
	evalOK(t, in, "set a $old")
	expect(t, in, "lappend a i", "a b e f i")
	expect(t, in, "set old", "a b e f")

	// Other writers: incr and append assign through SetVar.
	evalOK(t, in, "set n 1; lappend n 2")
	expect(t, in, "append n 3", "1 23")
	expect(t, in, "lappend n 4", "1 23 4")
}

func TestLappendThroughLinks(t *testing.T) {
	in := New()
	evalOK(t, in, `
		proc addup {name v} { upvar 1 $name l; lappend l $v }
		proc addglobal {v} { global g; lappend g $v }
	`)
	evalOK(t, in, "set l {}; set g start")
	expect(t, in, "addup l a", "a")
	expect(t, in, "addup l {b c}", "a {b c}")
	expect(t, in, "set l", "a {b c}")
	expect(t, in, "addglobal one", "start one")
	expect(t, in, "addglobal two", "start one two")
	expect(t, in, "set g", "start one two")
	// Local and linked appends interleave on one variable.
	expect(t, in, "lappend g three", "start one two three")
	expect(t, in, "addglobal four", "start one two three four")
	// A ::name from inside a proc reaches the global.
	evalOK(t, in, "proc addqual {v} { lappend ::g $v }")
	expect(t, in, "addqual five", "start one two three four five")
}

func TestLappendArrayElements(t *testing.T) {
	in := New()
	expect(t, in, "lappend arr(k) x", "x")
	expect(t, in, "lappend arr(k) {y z}", "x {y z}")
	expect(t, in, "lappend arr(j) w", "w")
	expect(t, in, "set arr(k)", "x {y z}")
	// An array variable itself is not a list.
	expectErr(t, in, "lappend arr v", "variable is array")
}

func TestLappendUnsetRecreate(t *testing.T) {
	in := New()
	evalOK(t, in, "lappend a x y")
	evalOK(t, in, "set keep $a")
	evalOK(t, in, "unset a")
	expect(t, in, "info exists a", "0")
	expect(t, in, "lappend a z", "z")
	expect(t, in, "lappend a w", "z w")
	expect(t, in, "set keep", "x y")
}

func TestLappendReturnsVariable(t *testing.T) {
	in := New()
	evalOK(t, in, "set a {}")
	for _, e := range []string{"p", "q r", "", "{", "s"} {
		got, err := in.EvalWords("lappend", "a", e)
		if err != nil {
			t.Fatal(err)
		}
		v, err := in.GetVar("a")
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("lappend returned %q, variable holds %q", got, v)
		}
	}
	elems, err := ParseList(evalOK(t, in, "set a"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"p", "q r", "", "{", "s"}; strings.Join(elems, "|") != strings.Join(want, "|") {
		t.Fatalf("list = %q, want %q", elems, want)
	}
}

// A loop of n single-element appends allocates bytes linear in the final
// length. Copying the list on each append costs about n × length / 2 —
// some 400 MB here — so the bound separates the two by three orders of
// magnitude.
func TestLappendGrowthIsLinear(t *testing.T) {
	const n = 20000
	in := New()
	args := []string{"lappend", "a", "x"}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := in.Call(args); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	final := 2*n - 1
	if v, _ := in.GetVar("a"); len(v) != final {
		t.Fatalf("final length %d, want %d", len(v), final)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(16*final) {
		t.Fatalf("%d appends allocated %d bytes for a %d-byte list; want <= %d",
			n, alloc, final, 16*final)
	}
}
