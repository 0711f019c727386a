package turbine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/adlb"
	"repro/internal/tcl"
)

// dataOpsSetup registers test::dataops, which reads the run's adlb data
// op count, so a program can measure the RPCs one of its statements
// costs.
func dataOpsSetup(st *adlb.Stats) func(in *tcl.Interp, env *Env) error {
	return func(in *tcl.Interp, env *Env) error {
		in.RegisterCommand("test::dataops", func(in *tcl.Interp, args []string) (string, error) {
			return fmt.Sprint(st.DataOps.Load()), nil
		})
		return nil
	}
}

// Literals are interned by type and exact value: 1, 1.0 and "1" get
// three ids, -0.0 and 0.0 get two, and a repeated literal gets the id it
// got first, without an RPC.
func TestLiteralInterningKeys(t *testing.T) {
	st := &adlb.Stats{}
	cfg := &Config{
		Engines: 1, Servers: 1,
		Stats: st,
		Setup: dataOpsSetup(st),
		Program: `
			proc main {} {
				set ids [list [turbine::literal_integer 1] [turbine::literal_float 1.0] \
					[turbine::literal_string 1] [turbine::literal_float -0.0] \
					[turbine::literal_float 0.0]]
				set before [test::dataops]
				set again [list [turbine::literal_integer 1] [turbine::literal_float 1] \
					[turbine::literal_string 1] [turbine::literal_float -0.0] \
					[turbine::literal_float 0]]
				test::record "rpcs [expr {[test::dataops] - $before}]"
				test::record "distinct [llength [lsort -unique $ids]]"
				test::record "same [expr {$ids eq $again}]"
				test::record "values [turbine::retrieve_integer [lindex $ids 0]] [turbine::retrieve_float [lindex $ids 1]] [turbine::retrieve_string [lindex $ids 2]] [turbine::retrieve_float [lindex $ids 3]] [turbine::retrieve [lindex $ids 4]]"
			}
		`,
		Main: "main",
	}
	rows := runTurbine(t, 3, cfg).sorted()
	want := []string{"distinct 5", "rpcs 0", "same 1", "values 1 1.0 1 -0.0 0.0"}
	if strings.Join(rows, "|") != strings.Join(want, "|") {
		t.Fatalf("rows = %q, want %q", rows, want)
	}
}

// A rule whose inputs are literals and ids the engine stored itself is
// ready at once: registering it costs no Subscribe (no data op at all),
// and firing it reads the literals locally.
func TestRuleOnKnownClosedInputsNeedsNoRPC(t *testing.T) {
	st := &adlb.Stats{}
	cfg := &Config{
		Engines: 1, Servers: 1,
		Stats: st,
		Setup: dataOpsSetup(st),
		Program: `
			proc main {} {
				set a [turbine::literal_integer 5]
				set b [turbine::literal_float 0.5]
				set x [turbine::allocate integer]
				turbine::store_integer $x 3
				set before [test::dataops]
				turbine::rule [list $a $b $x $a] "fire $a $b $x $before"
				test::record "register [expr {[test::dataops] - $before}]"
			}
			proc fire {a b x before} {
				set v "[turbine::retrieve_integer $a] [turbine::retrieve_float $b]"
				test::record "fired $v [expr {[test::dataops] - $before}]"
			}
		`,
		Main: "main",
	}
	rows := runTurbine(t, 3, cfg).sorted()
	want := []string{"fired 5 0.5 0", "register 0"}
	if strings.Join(rows, "|") != strings.Join(want, "|") {
		t.Fatalf("rows = %q, want %q", rows, want)
	}
}

// Interning more distinct literals than the table holds clears it: every
// id handed out stays valid, and a constant the clear forgot gets a
// fresh id.
func TestLiteralTablePastCap(t *testing.T) {
	n := maxLiterals + 100
	cfg := &Config{
		Engines: 1, Servers: 1,
		Program: fmt.Sprintf(`
			proc main {} {
				set ids {}
				for {set i 0} {$i < %d} {incr i} {
					lappend ids [turbine::literal_integer $i]
				}
				set bad 0
				set i 0
				foreach id $ids {
					if {[turbine::retrieve_integer $id] != $i} { incr bad }
					incr i
				}
				test::record "bad $bad"
				test::record "distinct [llength [lsort -unique $ids]]"
				set z [turbine::literal_integer 0]
				test::record "zero [turbine::retrieve_integer $z] fresh [expr {$z ne [lindex $ids 0]}]"
			}
		`, n),
		Main: "main",
	}
	rows := runTurbine(t, 3, cfg).sorted()
	want := []string{"bad 0", fmt.Sprintf("distinct %d", n), "zero 0 fresh 1"}
	if strings.Join(rows, "|") != strings.Join(want, "|") {
		t.Fatalf("rows = %q, want %q", rows, want)
	}
}
