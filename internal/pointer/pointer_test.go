package pointer

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"mix/internal/microc"
)

func locNames(locs []Loc) map[string]bool {
	out := map[string]bool{}
	for _, l := range locs {
		out[l.String()] = true
	}
	return out
}

func TestAddressOf(t *testing.T) {
	prog := mustParse(`
int g;
int *p;
void f(void) { p = &g; }
`)
	a := Analyze(prog)
	p, _ := prog.Global("p")
	names := locNames(a.PointsToVar(p))
	if !names["g"] {
		t.Fatalf("p should point to g, got %v", names)
	}
}

func TestCopyChains(t *testing.T) {
	prog := mustParse(`
int g;
int *p;
int *q;
int *r;
void f(void) { p = &g; q = p; r = q; }
`)
	a := Analyze(prog)
	r, _ := prog.Global("r")
	if !locNames(a.PointsToVar(r))["g"] {
		t.Fatal("r should reach g through copies")
	}
}

func TestLoadStore(t *testing.T) {
	prog := mustParse(`
int g;
int h;
int *a;
int *b;
int **pp;
void f(void) {
  a = &g;
  pp = &a;
  *pp = &h;   // store: a may also point to h
  b = *pp;    // load: b points to whatever a points to
}
`)
	an := Analyze(prog)
	a, _ := prog.Global("a")
	b, _ := prog.Global("b")
	aN := locNames(an.PointsToVar(a))
	bN := locNames(an.PointsToVar(b))
	if !aN["g"] || !aN["h"] {
		t.Fatalf("a should point to g and h, got %v", aN)
	}
	if !bN["g"] || !bN["h"] {
		t.Fatalf("b should point to g and h, got %v", bN)
	}
}

func TestMallocSites(t *testing.T) {
	prog := mustParse(`
int *p;
int *q;
void f(void) { p = malloc(sizeof(int)); q = malloc(sizeof(int)); }
`)
	a := Analyze(prog)
	p, _ := prog.Global("p")
	q, _ := prog.Global("q")
	pN := a.PointsToVar(p)
	qN := a.PointsToVar(q)
	if len(pN) != 1 || len(qN) != 1 {
		t.Fatalf("each should have one site: %v %v", pN, qN)
	}
	if pN[0].String() == qN[0].String() {
		t.Fatal("distinct malloc sites must be distinct locations")
	}
}

func TestFieldBased(t *testing.T) {
	prog := mustParse(`
struct s { int *f; };
int g;
int *out;
void store(struct s *x) { x->f = &g; }
void loadf(struct s *y) { out = y->f; }
`)
	a := Analyze(prog)
	out, _ := prog.Global("out")
	if !locNames(a.PointsToVar(out))["g"] {
		t.Fatal("field-based analysis should connect store and load through struct s.f")
	}
}

func TestCallBinding(t *testing.T) {
	prog := mustParse(`
int g;
int *id(int *x) { return x; }
int *p;
void f(void) { p = id(&g); }
`)
	a := Analyze(prog)
	p, _ := prog.Global("p")
	if !locNames(a.PointsToVar(p))["g"] {
		t.Fatal("return flow through id lost")
	}
}

func TestContextInsensitiveConflation(t *testing.T) {
	// The paper's Section 4.6 complaint, reproduced: two calls to id
	// conflate their arguments.
	prog := mustParse(`
int g;
int h;
int *id(int *x) { return x; }
int *p;
int *q;
void f(void) { p = id(&g); q = id(&h); }
`)
	a := Analyze(prog)
	p, _ := prog.Global("p")
	names := locNames(a.PointsToVar(p))
	if !names["g"] || !names["h"] {
		t.Fatalf("context-insensitive analysis must conflate: got %v", names)
	}
}

func TestFunctionPointerTargets(t *testing.T) {
	prog := mustParse(`
fnptr cb;
int fired;
void handler(void) { fired = 1; }
void other(void) { fired = 2; }
void install(void) { cb = handler; }
void fire(void) { (*cb)(); }
`)
	a := Analyze(prog)
	fire, _ := prog.Func("fire")
	call := fire.Body.Stmts[0].(*microc.ExprStmt).X.(*microc.Call)
	targets := a.CallTargets(call)
	if len(targets) != 1 || targets[0].Name != "handler" {
		t.Fatalf("targets = %v", targets)
	}
}

func TestIndirectCallArgFlow(t *testing.T) {
	prog := mustParse(`
fnptr cb;
int g;
int *captured;
void take(int *x) { captured = x; }
void install(void) { cb = take; }
void fire(void) { cb(&g); }
`)
	a := Analyze(prog)
	captured, _ := prog.Global("captured")
	if !locNames(a.PointsToVar(captured))["g"] {
		t.Fatal("argument flow through function pointer lost")
	}
}

func TestMayAlias(t *testing.T) {
	prog := mustParse(`
int g;
int h;
int *p;
int *q;
int *r;
void f(void) { p = &g; q = &g; r = &h; }
`)
	a := Analyze(prog)
	f, _ := prog.Func("f")
	// Build lvalue exprs *p, *q, *r via parsing a probe function is
	// overkill; instead compare variables' pointees through LValueLocs
	// on synthetic derefs is complex — use PointsToVar overlap.
	p, _ := prog.Global("p")
	q, _ := prog.Global("q")
	r, _ := prog.Global("r")
	overlap := func(a1, a2 []Loc) bool {
		for _, x := range a1 {
			for _, y := range a2 {
				if x.String() == y.String() {
					return true
				}
			}
		}
		return false
	}
	if !overlap(a.PointsToVar(p), a.PointsToVar(q)) {
		t.Fatal("p and q should may-alias (both &g)")
	}
	if overlap(a.PointsToVar(p), a.PointsToVar(r)) {
		t.Fatal("p and r should not alias")
	}
	_ = f
}

func TestLValueLocsDeref(t *testing.T) {
	prog := mustParse(`
int g;
int *p;
void f(void) { p = &g; *p = 3; }
`)
	a := Analyze(prog)
	f, _ := prog.Func("f")
	asg := f.Body.Stmts[1].(*microc.ExprStmt).X.(*microc.Assign)
	locs := a.LValueLocs(asg.LHS)
	if len(locs) != 1 || locs[0].String() != "g" {
		t.Fatalf("LValueLocs(*p) = %v", locs)
	}
}

func TestGlobalInitializerFlow(t *testing.T) {
	prog := mustParse(`
int g;
int *p = &g;
int *q = p;
`)
	a := Analyze(prog)
	q, _ := prog.Global("q")
	if !locNames(a.PointsToVar(q))["g"] {
		t.Fatal("global initializer flow lost")
	}
}

// TestPointsToMemoized: a node's sorted points-to list is computed once
// and shared, with its capacity capped so that a caller's append copies
// instead of writing into the shared array; a node interned after
// Analyze, such as a field no statement mentions, points nowhere.
func TestPointsToMemoized(t *testing.T) {
	prog := mustParse(`
struct s { int *f; };
int g;
int h;
int *p;
void f(int c) { if (c) p = &h; else p = &g; p = (int *) malloc(sizeof(int)); }
`)
	a := Analyze(prog)
	p, _ := prog.Global("p")
	first := a.PointsToVar(p)
	if len(first) != 3 || cap(first) != len(first) {
		t.Fatalf("PointsToVar(p) = %v (cap %d), want 3 targets, capacity capped", first, cap(first))
	}
	if !slices.IsSortedFunc(first, func(x, y Loc) int { return x.id - y.id }) {
		t.Fatalf("PointsToVar(p) = %v, not in node order", first)
	}
	again := a.PointsToVar(p)
	if &again[0] != &first[0] {
		t.Fatal("a second query rebuilt the list instead of sharing it")
	}
	grown := append(again, first[0])
	if &grown[0] == &first[0] || len(a.PointsToVar(p)) != 3 {
		t.Fatal("appending to a returned list wrote into the shared one")
	}
	if got := a.PointsToField("s", "f"); len(got) != 0 {
		t.Fatalf("PointsToField(s, f) = %v, want none", got)
	}
}

// TestQueriesConcurrent: the query API interns nodes and fills the
// memo table under its lock, so concurrent queries agree with
// sequential ones. Run it under -race.
func TestQueriesConcurrent(t *testing.T) {
	src := `
struct s { int *f; };
int g;
int h;
int *p;
int *q;
struct s *sp;
void f(int c) { if (c) p = &h; else p = &g; q = p; sp->f = q; }
`
	prog := mustParse(src)
	want := Analyze(prog)
	p, _ := prog.Global("p")
	q, _ := prog.Global("q")
	a := Analyze(prog)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, d := range []*microc.VarDecl{p, q} {
					if got := locNames(a.PointsToVar(d)); !maps.Equal(got, locNames(want.PointsToVar(d))) {
						t.Errorf("worker %d: PointsToVar(%s) = %v", w, d.Name, got)
					}
				}
				a.PointsToField("s", "f")
				a.PointsToField("s", "g")
			}
		}()
	}
	wg.Wait()
	if got := locNames(a.PointsToField("s", "f")); !got["g"] || !got["h"] {
		t.Fatalf("PointsToField(s, f) = %v, want g and h", got)
	}
}

// mustParse parses a MicroC test fixture, panicking on error; the
// library itself reports parse errors through the normal return path,
// fixtures are expected to be valid.
func mustParse(src string) *microc.Program {
	prog, err := microc.Parse(src)
	if err != nil {
		panic("bad MicroC fixture: " + err.Error())
	}
	return prog
}
