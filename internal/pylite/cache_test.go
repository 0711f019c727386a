package pylite

// Fragment-cache invariants, in the style of internal/tcl/cache_test.go:
// the compile-once cache stores parse results keyed by source text only,
// so cached fragments must observe every state mutation — redefined
// functions, rebound globals, Reset — exactly as uncached evaluation
// would, and the cache must stay bounded under unique-fragment floods.

import (
	"fmt"
	"testing"

	"repro/internal/memo"
)

func TestFragmentCacheHitIsParseFree(t *testing.T) {
	in := New()
	const code = "y = 0\nfor k in range(4):\n    y = y + k"
	if _, err := in.EvalFragment(code, "y"); err != nil {
		t.Fatal(err)
	}
	progs, exprs := in.CacheStats()
	if progs != 1 || exprs != 1 {
		t.Fatalf("cache = %d progs, %d exprs; want 1, 1", progs, exprs)
	}
	for i := 0; i < 10; i++ {
		out, err := in.EvalFragment(code, "y")
		if err != nil || out != "6" {
			t.Fatalf("out = %q, %v", out, err)
		}
	}
	progs, exprs = in.CacheStats()
	if progs != 1 || exprs != 1 {
		t.Fatalf("repeats grew the cache: %d progs, %d exprs", progs, exprs)
	}
}

func TestFragmentCacheSeesRedefinition(t *testing.T) {
	in := New()
	// The call-site fragment "f()" is cached once; redefining f through
	// another cached fragment must change what it returns.
	if err := in.Exec("def f():\n    return 1"); err != nil {
		t.Fatal(err)
	}
	if v, err := in.EvalExpr("f()"); err != nil || Str(v) != "1" {
		t.Fatalf("f() = %v, %v", v, err)
	}
	if err := in.Exec("def f():\n    return 2"); err != nil {
		t.Fatal(err)
	}
	if v, err := in.EvalExpr("f()"); err != nil || Str(v) != "2" {
		t.Fatalf("after redefinition f() = %v, %v", v, err)
	}
}

func TestFragmentCacheSeesRebinding(t *testing.T) {
	in := New()
	const read = "x * 10"
	for want, bind := range map[string]string{"70": "x = 7", "80": "x = 8"} {
		if err := in.Exec(bind); err != nil {
			t.Fatal(err)
		}
		if v, err := in.EvalExpr(read); err != nil || Str(v) != want {
			t.Fatalf("%s -> %v (want %s), %v", bind, v, want, err)
		}
	}
}

func TestFragmentCacheSurvivesResetButStateDoesNot(t *testing.T) {
	in := New()
	if _, err := in.EvalFragment("state = 1", "state"); err != nil {
		t.Fatal(err)
	}
	in.Reset()
	progs, _ := in.CacheStats()
	if progs != 1 {
		t.Fatalf("Reset dropped the parse cache (progs = %d)", progs)
	}
	if _, err := in.EvalExpr("state"); err == nil {
		t.Fatal("state survived Reset")
	}
	// The cached fragment replays against the fresh globals.
	if out, err := in.EvalFragment("state = 1", "state"); err != nil || out != "1" {
		t.Fatalf("replay after Reset: %q, %v", out, err)
	}
}

func TestFragmentCacheBoundedEviction(t *testing.T) {
	in := New()
	// ~70 bytes per entry at memo.FragCost (source + fixed overhead): a 288-byte
	// budget holds at most 4 of the fragments below.
	in.progs = memo.NewBudget(288, memo.FragCost[[]pstmt])
	for i := 0; i < 20; i++ {
		if err := in.Exec(fmt.Sprintf("v%d = %d", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	progs, _ := in.CacheStats()
	if progs > 4 {
		t.Fatalf("cache exceeded bound: %d", progs)
	}
	// An evicted fragment still evaluates correctly (re-parsed).
	if err := in.Exec("v0 = 99"); err != nil {
		t.Fatal(err)
	}
	if v, err := in.EvalExpr("v0"); err != nil || Str(v) != "99" {
		t.Fatalf("evicted fragment re-eval: %v, %v", v, err)
	}
}

func TestFragmentCacheParseErrorsNotCachedAsPrograms(t *testing.T) {
	in := New()
	if err := in.Exec("def ("); err == nil {
		t.Fatal("bad syntax accepted")
	}
	progs, _ := in.CacheStats()
	if progs != 0 {
		t.Fatalf("parse failure entered the cache (progs = %d)", progs)
	}
}
