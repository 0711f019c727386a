package stc

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/swift"
	"repro/internal/tcl"
)

// Output is a compiled program: Turbine code to load on every rank plus
// the seed fragment for engine rank 0.
type Output struct {
	Program string // prelude + generated procs
	Main    string // seed invocation, e.g. "u:main"

	scriptOnce sync.Once
	script     *tcl.Script
	scriptErr  error
}

// Script returns the parsed form of Program, compiled exactly once per
// Output and shared by every rank's interpreter (and every repeated run
// of the same compiled program). Without this, each of N ranks re-parses
// the ~250-line prelude plus all generated procs at startup.
func (o *Output) Script() (*tcl.Script, error) {
	o.scriptOnce.Do(func() {
		o.script, o.scriptErr = tcl.CompileScript(o.Program)
	})
	return o.script, o.scriptErr
}

// Compile parses, type-checks, and compiles Swift source to Turbine code.
func Compile(src string) (*Output, error) {
	prog, err := swift.Parse(src)
	if err != nil {
		return nil, err
	}
	ck, err := swift.Check(prog)
	if err != nil {
		return nil, err
	}
	return CompileChecked(prog, ck)
}

// CompileChecked compiles an already-checked program.
func CompileChecked(prog *swift.Program, ck *swift.Checker) (*Output, error) {
	c := &compiler{prog: prog, ck: ck}
	var out strings.Builder
	out.WriteString(Prelude)

	// package requires for Tcl-template functions (paper §III-A: the
	// package is loaded on the assumption the proc is found there).
	pkgs := map[string]bool{}
	for _, f := range prog.Funcs {
		if f.Kind == swift.FuncTclTemplate && f.Package != "" && !pkgs[f.Package] {
			pkgs[f.Package] = true
			fmt.Fprintf(&out, "catch {package require %s}\n", f.Package)
		}
	}

	for _, f := range prog.Funcs {
		body, err := c.compileFunc(f)
		if err != nil {
			return nil, err
		}
		out.WriteString(body)
	}
	mainBody, err := c.compileProc("u:main", nil, nil, prog.Main)
	if err != nil {
		return nil, err
	}
	out.WriteString(mainBody)
	for _, p := range c.extraProcs {
		out.WriteString(p)
	}
	return &Output{Program: out.String(), Main: "u:main"}, nil
}

type compiler struct {
	prog       *swift.Program
	ck         *swift.Checker
	counter    int
	extraProcs []string // procs generated for loop bodies and branches
}

func (c *compiler) gensym(prefix string) string {
	c.counter++
	return fmt.Sprintf("%s%d", prefix, c.counter)
}

// genScope tracks, for one generated proc, Swift variable -> (Tcl
// variable, type) bindings and the Tcl refs known closed at the current
// point of the proc body. A proc body runs top to bottom, so a ref is
// known closed from the line that closes it on: a literal, a store of a
// literal, or the output of a direct call. A block proc also starts with
// the params whose outer ref was known closed when its rule was
// registered.
type genScope struct {
	vars   map[string]genVar
	closed map[string]bool
}

type genVar struct {
	ref string // Tcl reference, e.g. "$v_x"
	typ swift.Type
}

func newScope() *genScope {
	return &genScope{vars: map[string]genVar{}, closed: map[string]bool{}}
}

func (s *genScope) lookup(name string) (genVar, bool) {
	v, ok := s.vars[name]
	return v, ok
}

// allClosed reports whether every ref is known closed.
func (s *genScope) allClosed(refs []string) bool {
	for _, r := range refs {
		if !s.closed[r] {
			return false
		}
	}
	return true
}

// emitter accumulates the body of one generated proc.
type emitter struct {
	b      strings.Builder
	indent string
}

func (e *emitter) linef(format string, args ...any) {
	e.b.WriteString(e.indent)
	fmt.Fprintf(&e.b, format, args...)
	e.b.WriteByte('\n')
}

// rule emits a turbine::rule that runs the prelude call words on an
// engine once every ref in ins is closed.
func (e *emitter) rule(ins []string, words ...string) { e.ruleAs("", ins, words) }

// work emits a rule whose action runs as a leaf task on a worker.
func (e *emitter) work(ins []string, words ...string) { e.ruleAs(" type work", ins, words) }

// ruleAs renders a rule. The action is a quoted string substituted at
// registration, so a command-substitution word W (a list of ids) goes in
// as [list W] to stay one word when the action runs.
func (e *emitter) ruleAs(opts string, ins, words []string) {
	e.b.WriteString(e.indent)
	fmt.Fprintf(&e.b, `turbine::rule [list %s] "`, strings.Join(ins, " "))
	for i, w := range words {
		if i > 0 {
			e.b.WriteByte(' ')
		}
		if strings.HasPrefix(w, "[") {
			w = "[list " + w + "]"
		}
		e.b.WriteString(w)
	}
	e.b.WriteString("\"" + opts + "\n")
}

// call emits an engine-side prelude call that reads ins and stores out
// ("" for none). When every input is known closed it is a plain call,
// and out is known closed after it; otherwise it is a rule that waits
// for the inputs. Worker leaf calls never come here: they stay rules.
func (e *emitter) call(sc *genScope, ins []string, out string, words ...string) {
	if !sc.allClosed(ins) {
		e.rule(ins, words...)
		return
	}
	e.linef("%s", strings.Join(words, " "))
	if out != "" {
		sc.closed[out] = true
	}
}

// listWord is one Tcl word holding the list of refs.
func listWord(refs []string) string { return "[list " + strings.Join(refs, " ") + "]" }

// braceWord is one Tcl word holding the list of plain tokens.
func braceWord(toks []string) string { return "{" + strings.Join(toks, " ") + "}" }

// tdType maps a Swift type to its ADLB/turbine type name. Booleans are
// carried as integers; arrays are containers.
func tdType(t swift.Type) string {
	if t.Array {
		return "container"
	}
	switch t.Base {
	case swift.TInt, swift.TBoolean:
		return "integer"
	case swift.TFloat:
		return "float"
	case swift.TString:
		return "string"
	case swift.TBlob:
		return "blob"
	case swift.TVoid:
		return "void"
	}
	return "invalid"
}

// compileFunc emits the proc(s) for one function definition.
func (c *compiler) compileFunc(f *swift.FuncDef) (string, error) {
	switch f.Kind {
	case swift.FuncComposite:
		var params []swift.Param
		params = append(params, f.Outs...)
		params = append(params, f.Ins...)
		return c.compileProc("u:"+f.Name, params, nil, f.Body)
	case swift.FuncTclTemplate:
		return c.compileTemplateFunc(f)
	case swift.FuncApp:
		return c.compileAppFunc(f)
	}
	return "", swift.Errorf(f.Tok.Pos(), "unknown function kind")
}

// compileProc generates one engine-side proc from a statement list.
// Parameters are TD ids bound to v_<name> locals; those named in closed
// are known closed whenever the proc runs.
func (c *compiler) compileProc(name string, params []swift.Param, closed map[string]bool, body []swift.Stmt) (string, error) {
	sc := newScope()
	var names []string
	for _, p := range params {
		names = append(names, "v_"+p.Name)
		ref := "$v_" + p.Name
		sc.vars[p.Name] = genVar{ref: ref, typ: p.Type}
		if closed[p.Name] {
			sc.closed[ref] = true
		}
	}
	e := &emitter{indent: "    "}
	if err := c.compileStmts(e, sc, body); err != nil {
		return "", err
	}
	return fmt.Sprintf("proc %s {%s} {\n%s}\n", name, strings.Join(names, " "), e.b.String()), nil
}

// compileStmts compiles a block, closing uninitialised arrays declared in
// it at the end (dropping the creation write reference once every writer
// in the block has registered its own references).
func (c *compiler) compileStmts(e *emitter, sc *genScope, stmts []swift.Stmt) error {
	var openArrays []string
	for _, s := range stmts {
		refs, err := c.compileStmt(e, sc, s)
		if err != nil {
			return err
		}
		openArrays = append(openArrays, refs...)
	}
	for _, ref := range openArrays {
		e.linef("turbine::write_refcount %s -1", ref)
	}
	return nil
}

// compileStmt compiles one statement. It returns Tcl refs of arrays whose
// creation reference must be dropped at block end.
func (c *compiler) compileStmt(e *emitter, sc *genScope, s swift.Stmt) ([]string, error) {
	switch st := s.(type) {
	case *swift.Decl:
		tv := "t_" + st.Name + "_" + c.gensym("d")
		typ := tdType(st.Type)
		e.linef("set %s [turbine::allocate %s]", tv, typ)
		ref := "$" + tv
		sc.vars[st.Name] = genVar{ref: ref, typ: st.Type}
		if st.Init == nil {
			if st.Type.Array {
				return []string{ref}, nil // close at block end
			}
			return nil, nil
		}
		if err := c.compileInto(e, sc, ref, st.Type, st.Init); err != nil {
			return nil, err
		}
		return nil, nil

	case *swift.Assign:
		v, ok := sc.lookup(st.LName)
		if !ok {
			return nil, swift.Errorf(st.Pos(), "internal: unbound variable %q", st.LName)
		}
		if st.LSub == nil {
			return nil, c.compileInto(e, sc, v.ref, v.typ, st.RHS)
		}
		// a[sub] = rhs. The block holds a write reference on a while it
		// runs, so a subscript already known inserts at once; any other
		// waits in sw:ainsert under a write reference of its own.
		elemT := swift.Type{Base: v.typ.Base}
		if lit, ok := st.LSub.(*swift.IntLit); ok {
			elemRef, err := c.compileExprAs(e, sc, elemT, st.RHS)
			if err != nil {
				return nil, err
			}
			e.linef("turbine::container_insert %s %d %s", v.ref, lit.Value, elemRef)
			return nil, nil
		}
		subRef, err := c.compileExpr(e, sc, st.LSub)
		if err != nil {
			return nil, err
		}
		elemRef, err := c.compileExprAs(e, sc, elemT, st.RHS)
		if err != nil {
			return nil, err
		}
		if sc.closed[subRef] {
			e.linef("turbine::container_insert %s [turbine::retrieve_integer %s] %s", v.ref, subRef, elemRef)
			return nil, nil
		}
		e.linef("turbine::write_refcount %s 1", v.ref)
		e.rule([]string{subRef}, "sw:ainsert", v.ref, subRef, elemRef)
		return nil, nil

	case *swift.CallStmt:
		return nil, c.compileCallStmt(e, sc, st.Call)

	case *swift.If:
		return nil, c.compileIf(e, sc, st)

	case *swift.Foreach:
		return nil, c.compileForeach(e, sc, st)
	}
	return nil, swift.Errorf(s.Pos(), "internal: unknown statement %T", s)
}

// compileExpr compiles an expression to a TD, returning its Tcl ref.
func (c *compiler) compileExpr(e *emitter, sc *genScope, ex swift.Expr) (string, error) {
	return c.compileExprAs(e, sc, c.ck.Types[ex], ex)
}

// compileExprAs compiles an expression into a TD of the given type
// (handling int->float promotion at the storage level).
func (c *compiler) compileExprAs(e *emitter, sc *genScope, want swift.Type, ex swift.Expr) (string, error) {
	switch x := ex.(type) {
	case *swift.Ident:
		v, ok := sc.lookup(x.Name)
		if !ok {
			return "", swift.Errorf(x.Pos(), "internal: unbound variable %q", x.Name)
		}
		if tdType(v.typ) == tdType(want) {
			return v.ref, nil
		}
		// A promotion (an int variable in a float context) copies into a
		// TD of its own, below.
	case *swift.IntLit, *swift.FloatLit, *swift.StringLit, *swift.BoolLit:
		typ, val := literalText(x, tdType(want))
		return c.literal(e, sc, typ, val), nil
	}
	t := c.gensym("t")
	e.linef("set %s [turbine::allocate %s]", t, tdType(want))
	if err := c.compileInto(e, sc, "$"+t, want, ex); err != nil {
		return "", err
	}
	return "$" + t, nil
}

// compileInto compiles an expression so its result is stored into the
// existing TD referenced by outRef.
func (c *compiler) compileInto(e *emitter, sc *genScope, outRef string, outT swift.Type, ex swift.Expr) error {
	outTD := tdType(outT)
	switch x := ex.(type) {
	case *swift.IntLit, *swift.FloatLit, *swift.StringLit, *swift.BoolLit:
		typ, val := literalText(x, outTD)
		e.linef("turbine::store_%s %s %s", typ, outRef, val)
		sc.closed[outRef] = true
		return nil
	case *swift.Ident:
		v, ok := sc.lookup(x.Name)
		if !ok {
			return swift.Errorf(x.Pos(), "internal: unbound variable %q", x.Name)
		}
		e.call(sc, []string{v.ref}, outRef, "sw:copy", outRef, v.ref, tdType(v.typ), outTD)
		return nil
	case *swift.Unary:
		xt := c.ck.Types[x.X]
		xRef, err := c.compileExpr(e, sc, x.X)
		if err != nil {
			return err
		}
		e.call(sc, []string{xRef}, outRef, "sw:unop", outRef, x.Op, outTD, tdType(xt), xRef)
		return nil
	case *swift.Binary:
		ins, operands, err := c.compileOperands(e, sc, x)
		if err != nil {
			return err
		}
		e.call(sc, ins, outRef, append([]string{"sw:binop", outRef, outTD}, operands...)...)
		return nil
	case *swift.Call:
		return c.compileCallInto(e, sc, outRef, outT, x)
	case *swift.Index:
		aRef, err := c.compileExpr(e, sc, x.Arr)
		if err != nil {
			return err
		}
		sRef, err := c.compileExpr(e, sc, x.Sub)
		if err != nil {
			return err
		}
		e.rule([]string{aRef, sRef}, "sw:aread", outRef, outTD, aRef, sRef, "integer")
		return nil
	case *swift.ArrayLit:
		elemT := swift.Type{Base: outT.Base}
		for i, el := range x.Elems {
			eRef, err := c.compileExprAs(e, sc, elemT, el)
			if err != nil {
				return err
			}
			e.linef("turbine::container_insert %s %d %s", outRef, i, eRef)
		}
		e.linef("turbine::write_refcount %s -1", outRef)
		return nil
	case *swift.RangeLit:
		bounds, err := c.compileRange(e, sc, x)
		if err != nil {
			return err
		}
		e.rule(bounds, append([]string{"sw:range_build", outRef}, bounds...)...)
		return nil
	}
	return swift.Errorf(ex.Pos(), "internal: unknown expression %T", ex)
}

// compileRange compiles a range's lo, hi and step (1 if absent).
func (c *compiler) compileRange(e *emitter, sc *genScope, r *swift.RangeLit) ([]string, error) {
	var refs []string
	for _, x := range []swift.Expr{r.Lo, r.Hi} {
		ref, err := c.compileExpr(e, sc, x)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
	if r.Step == nil {
		return append(refs, c.literal(e, sc, "integer", "1")), nil
	}
	step, err := c.compileExpr(e, sc, r.Step)
	return append(refs, step), err
}

// compileValues compiles expressions to refs, each TD of its own type.
func (c *compiler) compileValues(e *emitter, sc *genScope, args []swift.Expr) (refs, types []string, err error) {
	for _, a := range args {
		r, err := c.compileExpr(e, sc, a)
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, r)
		types = append(types, tdType(c.ck.Types[a]))
	}
	return refs, types, nil
}

// compileOperands compiles a binary operator's operands. It returns
// their refs and the words "op ltype l rtype r" that sw:binop and a
// fused sw:if condition both hand to sw:binval.
func (c *compiler) compileOperands(e *emitter, sc *genScope, x *swift.Binary) (ins, words []string, err error) {
	l, err := c.compileExpr(e, sc, x.L)
	if err != nil {
		return nil, nil, err
	}
	r, err := c.compileExpr(e, sc, x.R)
	if err != nil {
		return nil, nil, err
	}
	return []string{l, r}, []string{x.Op, tdType(c.ck.Types[x.L]), l, tdType(c.ck.Types[x.R]), r}, nil
}

// literal emits a literal TD, closed at birth, and returns its ref.
func (c *compiler) literal(e *emitter, sc *genScope, typ, val string) string {
	t := c.gensym("t")
	e.linef("set %s [turbine::literal_%s %s]", t, typ, val)
	ref := "$" + t
	sc.closed[ref] = true
	return ref
}

// literalText renders a literal expression as the type and Tcl word of
// its value in a td-typed context (an int literal in a float context is
// a float).
func literalText(ex swift.Expr, td string) (typ, val string) {
	switch x := ex.(type) {
	case *swift.IntLit:
		if td == "float" {
			return "float", strconv.FormatInt(x.Value, 10) + ".0"
		}
		return "integer", strconv.FormatInt(x.Value, 10)
	case *swift.FloatLit:
		return "float", fmtFloatLit(x.Value)
	case *swift.StringLit:
		return "string", tcl.ListElement(x.Value)
	case *swift.BoolLit:
		if x.Value {
			return "integer", "1"
		}
		return "integer", "0"
	}
	panic(fmt.Sprintf("stc: %T is not a literal", ex))
}

func fmtFloatLit(f float64) string {
	s := fmt.Sprintf("%g", f)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// compileCallInto compiles a single-output call storing into outRef.
func (c *compiler) compileCallInto(e *emitter, sc *genScope, outRef string, outT swift.Type, call *swift.Call) error {
	if b := swift.LookupBuiltin(call.Name); b != nil {
		return c.compileBuiltin(e, sc, outRef, outT, call, b)
	}
	f := c.prog.FindFunc(call.Name)
	if f == nil {
		return swift.Errorf(call.Pos(), "internal: undefined function %q", call.Name)
	}
	argRefs, err := c.compileArgs(e, sc, call, f)
	if err != nil {
		return err
	}
	switch f.Kind {
	case swift.FuncComposite:
		// Direct engine-side invocation: the callee registers its rules.
		e.linef("u:%s %s %s", f.Name, outRef, strings.Join(argRefs, " "))
		return nil
	case swift.FuncTclTemplate, swift.FuncApp:
		// Leaf task on a worker when all inputs are closed.
		e.work(argRefs, append([]string{"u:" + f.Name, outRef}, argRefs...)...)
		return nil
	}
	return swift.Errorf(call.Pos(), "internal: bad function kind")
}

// compileArgs compiles a user function's arguments, each as the type of
// its parameter.
func (c *compiler) compileArgs(e *emitter, sc *genScope, call *swift.Call, f *swift.FuncDef) ([]string, error) {
	var refs []string
	for i, a := range call.Args {
		r, err := c.compileExprAs(e, sc, f.Ins[i].Type, a)
		if err != nil {
			return nil, err
		}
		refs = append(refs, r)
	}
	return refs, nil
}

// compileBuiltin handles builtins in expression position.
func (c *compiler) compileBuiltin(e *emitter, sc *genScope, outRef string, outT swift.Type, call *swift.Call, b *swift.Builtin) error {
	if b.Name == "size" {
		aRef, err := c.compileExpr(e, sc, call.Args[0])
		if err != nil {
			return err
		}
		e.rule([]string{aRef}, "sw:asize", outRef, aRef)
		return nil
	}
	if b.Name == "vpack" {
		// Container -> blob vector. Phase 1 (sw:vpack) must run
		// engine-side: it registers the member-wait rule; the gather
		// itself then runs as a worker leaf task.
		at := c.ck.Types[call.Args[0]]
		aRef, err := c.compileExpr(e, sc, call.Args[0])
		if err != nil {
			return err
		}
		e.rule([]string{aRef}, "sw:vpack", outRef, tdType(swift.Type{Base: at.Base}), aRef)
		return nil
	}
	if b.Name == "vunpack" {
		// Blob vector -> container: one worker leaf task scatters the
		// elements in a single batched store and closes the array. The
		// element type comes from the assignment context (checkExprAs).
		bRef, err := c.compileExpr(e, sc, call.Args[0])
		if err != nil {
			return err
		}
		e.work([]string{bRef}, "sw:vunpack", outRef, tdType(swift.Type{Base: outT.Base}), bRef)
		return nil
	}
	if b.Name == "join_array" {
		aRef, err := c.compileExpr(e, sc, call.Args[0])
		if err != nil {
			return err
		}
		sepRef, err := c.compileExpr(e, sc, call.Args[1])
		if err != nil {
			return err
		}
		// Two-phase: wait for the container to close, then wait for all
		// members, then join their values.
		e.rule([]string{aRef, sepRef}, "sw:ajoin", outRef, aRef, sepRef)
		return nil
	}
	refs, types, err := c.compileValues(e, sc, call.Args)
	if err != nil {
		return err
	}
	if b.Lang {
		// Interlanguage leaf call: typed dispatch. The action carries TD
		// ids only — <name>::call loads arguments from the data store as
		// typed values (blobs by reference) and stores the typed result,
		// so no value, and in particular no blob element data, is ever
		// rendered into the action or through sw:vals.
		e.work(refs, "sw:leafcall", b.Name, outRef, tdType(outT), listWord(refs))
		return nil
	}
	if b.Leaf {
		e.work(refs, "sw:leaf", b.Name, outRef, tdType(outT), braceWord(types), listWord(refs))
		return nil
	}
	e.call(sc, refs, outRef, "sw:builtin", b.Name, outRef, tdType(outT), braceWord(types), listWord(refs))
	return nil
}

// compileCallStmt compiles a call in statement position (printf, trace,
// zero-output functions, or ignored single-output calls).
func (c *compiler) compileCallStmt(e *emitter, sc *genScope, call *swift.Call) error {
	if b := swift.LookupBuiltin(call.Name); b != nil {
		switch b.Name {
		case "printf", "trace":
			refs, types, err := c.compileValues(e, sc, call.Args)
			if err != nil {
				return err
			}
			e.call(sc, refs, "", "sw:"+b.Name, braceWord(types), listWord(refs))
			return nil
		default:
			// Single-output builtin whose value is discarded.
			t := c.gensym("t")
			e.linef("set %s [turbine::allocate %s]", t, tdType(b.Out))
			return c.compileBuiltin(e, sc, "$"+t, b.Out, call, b)
		}
	}
	f := c.prog.FindFunc(call.Name)
	if f == nil {
		return swift.Errorf(call.Pos(), "internal: undefined function %q", call.Name)
	}
	// Allocate TDs for every output (discarded).
	var outRefs []string
	for _, o := range f.Outs {
		t := c.gensym("t")
		e.linef("set %s [turbine::allocate %s]", t, tdType(o.Type))
		outRefs = append(outRefs, "$"+t)
	}
	argRefs, err := c.compileArgs(e, sc, call, f)
	if err != nil {
		return err
	}
	words := append(append([]string{"u:" + f.Name}, outRefs...), argRefs...)
	switch f.Kind {
	case swift.FuncComposite:
		e.linef("%s", strings.Join(words, " "))
	case swift.FuncTclTemplate, swift.FuncApp:
		e.work(argRefs, words...)
	}
	return nil
}

// ---- control flow ----

// freeRefs computes the ordered Tcl references and parameter bindings of
// the Swift variables a nested block needs from its enclosing scope.
func (c *compiler) freeRefs(sc *genScope, stmts []swift.Stmt, bound map[string]bool) ([]string, []string, []swift.Type) {
	names := map[string]bool{}
	var order []string
	var walkExpr func(ex swift.Expr)
	var walkStmts func(ss []swift.Stmt, local map[string]bool)
	walkExpr = func(ex swift.Expr) {
		switch x := ex.(type) {
		case *swift.Ident:
			order = append(order, x.Name)
			names[x.Name] = true
		case *swift.Binary:
			walkExpr(x.L)
			walkExpr(x.R)
		case *swift.Unary:
			walkExpr(x.X)
		case *swift.Call:
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *swift.Index:
			walkExpr(x.Arr)
			walkExpr(x.Sub)
		case *swift.ArrayLit:
			for _, el := range x.Elems {
				walkExpr(el)
			}
		case *swift.RangeLit:
			walkExpr(x.Lo)
			walkExpr(x.Hi)
			if x.Step != nil {
				walkExpr(x.Step)
			}
		}
	}
	walkStmts = func(ss []swift.Stmt, local map[string]bool) {
		sub := map[string]bool{}
		for k := range local {
			sub[k] = true
		}
		for _, s := range ss {
			switch st := s.(type) {
			case *swift.Decl:
				if st.Init != nil {
					walkExpr(st.Init)
				}
				sub[st.Name] = true
			case *swift.Assign:
				if !sub[st.LName] {
					order = append(order, st.LName)
					names[st.LName] = true
				}
				if st.LSub != nil {
					walkExpr(st.LSub)
				}
				walkExpr(st.RHS)
			case *swift.CallStmt:
				for _, a := range st.Call.Args {
					walkExpr(a)
				}
			case *swift.If:
				walkExpr(st.Cond)
				walkStmts(st.Then, sub)
				walkStmts(st.Else, sub)
			case *swift.Foreach:
				walkExpr(st.Seq)
				inner := map[string]bool{}
				for k := range sub {
					inner[k] = true
				}
				inner[st.Var] = true
				if st.IdxVar != "" {
					inner[st.IdxVar] = true
				}
				walkStmts(st.Body, inner)
			}
		}
	}
	walkStmts(stmts, bound)

	// Keep only variables resolvable in the enclosing scope, deduped in
	// first-reference order (deterministic codegen).
	seen := map[string]bool{}
	var frees, refs []string
	var typs []swift.Type
	for _, n := range order {
		if seen[n] || bound[n] {
			continue
		}
		v, ok := sc.lookup(n)
		if !ok {
			continue // declared inside the block itself
		}
		seen[n] = true
		frees = append(frees, n)
		refs = append(refs, v.ref)
		typs = append(typs, v.typ)
	}
	return frees, refs, typs
}

// writtenArrays finds enclosing-scope arrays assigned by subscript inside
// the block; their write refcounts must be managed across the async
// boundary.
func (c *compiler) writtenArrays(sc *genScope, stmts []swift.Stmt, bound map[string]bool) []string {
	found := map[string]bool{}
	var order []string
	var walk func(ss []swift.Stmt, local map[string]bool)
	walk = func(ss []swift.Stmt, local map[string]bool) {
		sub := map[string]bool{}
		for k := range local {
			sub[k] = true
		}
		for _, s := range ss {
			switch st := s.(type) {
			case *swift.Decl:
				sub[st.Name] = true
			case *swift.Assign:
				if st.LSub != nil && !sub[st.LName] && !found[st.LName] {
					if _, ok := sc.lookup(st.LName); ok {
						found[st.LName] = true
						order = append(order, st.LName)
					}
				}
			case *swift.If:
				walk(st.Then, sub)
				walk(st.Else, sub)
			case *swift.Foreach:
				inner := map[string]bool{}
				for k := range sub {
					inner[k] = true
				}
				inner[st.Var] = true
				if st.IdxVar != "" {
					inner[st.IdxVar] = true
				}
				walk(st.Body, inner)
			}
		}
	}
	walk(stmts, bound)
	var refs []string
	for _, n := range order {
		v, _ := sc.lookup(n)
		refs = append(refs, v.ref)
	}
	return refs
}

func (c *compiler) compileIf(e *emitter, sc *genScope, st *swift.If) error {
	// A binary condition is fused into the rule: it waits on the operands
	// and sw:if applies the operator through sw:binval, as sw:binop does,
	// so the condition needs no datum of its own. Any other condition is
	// a boolean TD the rule waits on.
	var ins []string
	var cond string
	if x, ok := st.Cond.(*swift.Binary); ok {
		operandRefs, words, err := c.compileOperands(e, sc, x)
		if err != nil {
			return err
		}
		ins, cond = operandRefs, listWord(words)
	} else {
		ref, err := c.compileExpr(e, sc, st.Cond)
		if err != nil {
			return err
		}
		ins, cond = []string{ref}, ref
	}
	bound := map[string]bool{}
	all := append(append([]swift.Stmt{}, st.Then...), st.Else...)
	frees, refs, typs := c.freeRefs(sc, all, bound)
	warrs := c.writtenArrays(sc, all, bound)
	closed := knownFrees(sc, frees, refs, ins)

	thenName := c.gensym("u:br") + "_t"
	if err := c.emitBlockProc(thenName, frees, typs, closed, st.Then); err != nil {
		return err
	}
	elseName := "-"
	if st.Else != nil {
		elseName = c.gensym("u:br") + "_e"
		if err := c.emitBlockProc(elseName, frees, typs, closed, st.Else); err != nil {
			return err
		}
	}
	for _, w := range warrs {
		e.linef("turbine::write_refcount %s 1", w)
	}
	e.call(sc, ins, "", "sw:if", cond, thenName, elseName, listWord(refs), listWord(warrs))
	return nil
}

// knownFrees names the block params known closed whenever the block
// runs: those whose outer ref is known closed now, when the rule that
// runs the block is registered, or is one of the refs that rule waits on.
func knownFrees(sc *genScope, frees, refs, waits []string) map[string]bool {
	known := map[string]bool{}
	for i, n := range frees {
		if sc.closed[refs[i]] || slices.Contains(waits, refs[i]) {
			known[n] = true
		}
	}
	return known
}

// emitBlockProc generates a proc for a nested block whose parameters are
// the block's free variables.
func (c *compiler) emitBlockProc(name string, frees []string, typs []swift.Type, closed map[string]bool, body []swift.Stmt) error {
	params := make([]swift.Param, len(frees))
	for i, n := range frees {
		params[i] = swift.Param{Name: n, Type: typs[i]}
	}
	proc, err := c.compileProc(name, params, closed, body)
	if err != nil {
		return err
	}
	c.extraProcs = append(c.extraProcs, proc)
	return nil
}

func (c *compiler) compileForeach(e *emitter, sc *genScope, st *swift.Foreach) error {
	seqT := c.ck.Types[st.Seq]
	elemT := swift.Type{Base: seqT.Base}

	// A range loop waits on its bounds and splits across engines without
	// materialising an array; an array loop waits for the array to close.
	rng, isRange := st.Seq.(*swift.RangeLit)
	if isRange && st.IdxVar != "" {
		return swift.Errorf(st.Pos(), "index variable over a range is not supported; iterate the range value directly")
	}
	var ins []string
	var err error
	if isRange {
		ins, err = c.compileRange(e, sc, rng)
	} else {
		var seqRef string
		seqRef, err = c.compileExpr(e, sc, st.Seq)
		ins = []string{seqRef}
	}
	if err != nil {
		return err
	}

	bound := map[string]bool{st.Var: true}
	if st.IdxVar != "" {
		bound[st.IdxVar] = true
	}
	frees, refs, typs := c.freeRefs(sc, st.Body, bound)
	warrs := c.writtenArrays(sc, st.Body, bound)

	// The body proc takes the element (and optional index) before frees.
	// sw:rchunk passes the range element, and sw:asplit the array index,
	// as a literal, so that one is known closed in the body. An array
	// loop's rule waits on the array, which only matters to a scalar.
	bodyName := c.gensym("u:loop")
	bodyFrees := append([]string{st.Var}, append(idxNames(st.IdxVar), frees...)...)
	bodyTyps := append([]swift.Type{elemT}, append(idxTypes(st.IdxVar), typs...)...)
	waits, literal := ins, st.Var
	if !isRange {
		waits, literal = nil, st.IdxVar
	}
	closed := knownFrees(sc, frees, refs, waits)
	if literal != "" {
		closed[literal] = true
	}
	if err := c.emitBlockProc(bodyName, bodyFrees, bodyTyps, closed, st.Body); err != nil {
		return err
	}

	for _, w := range warrs {
		e.linef("turbine::write_refcount %s 1", w)
	}
	if isRange {
		e.rule(ins, append([]string{"sw:rsplit", bodyName, listWord(refs), listWord(warrs)}, ins...)...)
		return nil
	}
	hasIdx := "0"
	if st.IdxVar != "" {
		hasIdx = "1"
	}
	e.rule(ins, "sw:asplit", bodyName, listWord(refs), listWord(warrs), ins[0], hasIdx)
	return nil
}

func idxNames(idx string) []string {
	if idx == "" {
		return nil
	}
	return []string{idx}
}

func idxTypes(idx string) []swift.Type {
	if idx == "" {
		return nil
	}
	return []swift.Type{{Base: swift.TInt}}
}

// ---- Tcl template and app functions ----

// compileTemplateFunc emits the worker proc for a Tcl-template extension
// function (paper §III-A): inputs splice as $in_<name> values, outputs as
// out_<name> variable names whose final values are stored to the TDs.
func (c *compiler) compileTemplateFunc(f *swift.FuncDef) (string, error) {
	var params []string
	for _, o := range f.Outs {
		params = append(params, "td_"+o.Name)
	}
	for _, i := range f.Ins {
		params = append(params, "td_"+i.Name)
	}
	e := &emitter{indent: "    "}
	for _, i := range f.Ins {
		e.linef("set in_%s [turbine::retrieve_%s $td_%s]", i.Name, tdType(i.Type), i.Name)
	}
	tmpl := f.Template
	for _, i := range f.Ins {
		tmpl = strings.ReplaceAll(tmpl, "<<"+i.Name+">>", "$in_"+i.Name)
	}
	for _, o := range f.Outs {
		tmpl = strings.ReplaceAll(tmpl, "<<"+o.Name+">>", "out_"+o.Name)
	}
	if strings.Contains(tmpl, "<<") {
		return "", swift.Errorf(f.Tok.Pos(), "template for %q references unknown parameters: %s", f.Name, tmpl)
	}
	for _, line := range strings.Split(tmpl, "\n") {
		e.linef("%s", line)
	}
	for _, o := range f.Outs {
		e.linef("turbine::store_%s $td_%s $out_%s", tdType(o.Type), o.Name, o.Name)
	}
	return fmt.Sprintf("proc u:%s {%s} {\n%s}\n", f.Name, strings.Join(params, " "), e.b.String()), nil
}

// compileAppFunc emits the worker proc for an app (shell) function: the
// command words are assembled and passed to the shell engine's sh::eval
// command (the same lang-registry dispatch the sh(...) builtin uses);
// stdout feeds the single string output, if any.
func (c *compiler) compileAppFunc(f *swift.FuncDef) (string, error) {
	if len(f.Outs) > 1 || (len(f.Outs) == 1 && f.Outs[0].Type != (swift.Type{Base: swift.TString})) {
		return "", swift.Errorf(f.Tok.Pos(), "app %q: output must be a single string (stdout)", f.Name)
	}
	var params []string
	for _, o := range f.Outs {
		params = append(params, "td_"+o.Name)
	}
	for _, i := range f.Ins {
		params = append(params, "td_"+i.Name)
	}
	e := &emitter{indent: "    "}
	for _, i := range f.Ins {
		e.linef("set in_%s [turbine::retrieve_%s $td_%s]", i.Name, tdType(i.Type), i.Name)
	}
	var words []string
	for _, w := range f.AppWords {
		switch x := w.(type) {
		case *swift.StringLit:
			words = append(words, tcl.ListElement(x.Value))
		case *swift.Ident:
			words = append(words, "$in_"+x.Name)
		}
	}
	e.linef("set stdout_val [sh::eval %s]", strings.Join(words, " "))
	if len(f.Outs) == 1 {
		e.linef("turbine::store_string $td_%s $stdout_val", f.Outs[0].Name)
	}
	return fmt.Sprintf("proc u:%s {%s} {\n%s}\n", f.Name, strings.Join(params, " "), e.b.String()), nil
}
