package qual

import (
	"strings"
	"testing"

	"mix/internal/microc"
)

// inferAll builds an inference over all functions and solves.
func inferAll(t *testing.T, src string) (*Inference, []Warning) {
	t.Helper()
	prog := mustParse(src)
	inf := New(prog)
	for _, f := range prog.Funcs {
		inf.AddFunction(f)
	}
	return inf, inf.Solve()
}

func TestPaperSection4Example(t *testing.T) {
	// The free/id/x/y example from Section 4: null flows through id
	// into free's nonnull parameter.
	_, warnings := inferAll(t, `
void free_(int *nonnull x);
int *id(int *p) { return p; }
int *x = NULL;
void main_(void) {
  int *y = id(x);
  free_(y);
}
`)
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v, want exactly 1", warnings)
	}
	if !strings.Contains(warnings[0].String(), "free_::x") {
		t.Fatalf("warning should implicate free_'s parameter: %s", warnings[0])
	}
	if len(warnings[0].Path) < 3 {
		t.Fatalf("witness path too short: %v", warnings[0].Path)
	}
}

func TestNoWarningWithoutNull(t *testing.T) {
	_, warnings := inferAll(t, `
void free_(int *nonnull x);
void main_(void) {
  int *y = malloc(sizeof(int));
  free_(y);
}
`)
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
}

func TestFlowInsensitivity(t *testing.T) {
	// The null assignment happens after the call, but flow-insensitive
	// inference conflates program order: this is the false positive
	// MIXY exists to remove (Case 1 shape).
	_, warnings := inferAll(t, `
void free_(int *nonnull x);
void f(int *p) {
  free_(p);
  p = NULL;
}
`)
	if len(warnings) != 1 {
		t.Fatalf("flow-insensitive inference should warn: %v", warnings)
	}
}

func TestPathInsensitivity(t *testing.T) {
	// The null check is invisible to the type system.
	_, warnings := inferAll(t, `
void free_(int *nonnull x);
void f(int *p) {
  p = NULL;
  if (p != NULL) free_(p);
}
`)
	if len(warnings) != 1 {
		t.Fatalf("path-insensitive inference should warn: %v", warnings)
	}
}

func TestContextInsensitiveConflation(t *testing.T) {
	// Case 2 shape: a null return conflates all callers' results.
	_, warnings := inferAll(t, `
void sink(int *nonnull x);
int *maybe(void) { return NULL; }
int *fine(void) { return malloc(sizeof(int)); }
void f(void) {
  int *a = maybe();
  int *b = fine();
  if (a != NULL) sink(a);
  sink(b);
}
`)
	// a's nullness reaches sink (path-insensitive); b is fine but a's
	// flow already warns. Exactly one sink, so one warning.
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v", warnings)
	}
}

func TestDeepPointerLevels(t *testing.T) {
	// Unification at inner levels: storing NULL through a double
	// pointer taints the pointee level.
	inf, warnings := inferAll(t, `
void sink(int *nonnull x);
void f(int **pp, int *q) {
  *pp = NULL;
  sink(q);
}
void g(int **pp, int *q) {
  pp = &q;       // unifies *pp with q
  *pp = NULL;
  sink(q);
}
`)
	_ = inf
	// In f, q and *pp are unrelated: no warning path to sink via q?
	// Actually sink(q) has no null flow in f; in g the unification
	// routes NULL into q. Expect exactly 1 warning.
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v, want 1 (from g only)", warnings)
	}
}

func TestStructFieldsConflatePerField(t *testing.T) {
	_, warnings := inferAll(t, `
struct s { int *p; };
void sink(int *nonnull x);
void store(struct s *a) { a->p = NULL; }
void load(struct s *b) { sink(b->p); }
`)
	if len(warnings) != 1 {
		t.Fatalf("field-based conflation should warn: %v", warnings)
	}
}

func TestGlobalInitializer(t *testing.T) {
	_, warnings := inferAll(t, `
void sink(int *nonnull x);
int *g = NULL;
void f(void) { sink(g); }
`)
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v", warnings)
	}
}

func TestNullAnnotationIsSource(t *testing.T) {
	_, warnings := inferAll(t, `
void sink(int *nonnull x);
int *null g;
void f(void) { sink(g); }
`)
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v", warnings)
	}
}

func TestQualOfOptimism(t *testing.T) {
	prog := mustParse(`
int *a = NULL;
int *b;
`)
	inf := New(prog)
	a, _ := prog.Global("a")
	b, _ := prog.Global("b")
	if got := inf.QualOf(inf.VarQ(a).Ptr); got != microc.QNull {
		t.Fatalf("QualOf(a) = %v, want null", got)
	}
	// Unconstrained: optimistically nonnull (Section 4.1).
	if got := inf.QualOf(inf.VarQ(b).Ptr); got != microc.QNonNull {
		t.Fatalf("QualOf(b) = %v, want optimistic nonnull", got)
	}
}

func TestConstrainNullDrivesFixedPoint(t *testing.T) {
	prog := mustParse(`
void sink(int *nonnull x);
int *g;
void f(void) { sink(g); }
`)
	inf := New(prog)
	for _, f := range prog.Funcs {
		inf.AddFunction(f)
	}
	if w := inf.Solve(); len(w) != 0 {
		t.Fatalf("no warning before constraint: %v", w)
	}
	g, _ := prog.Global("g")
	if fresh := inf.ConstrainNull(inf.VarQ(g).Ptr, "symbolic block found g maybe-null"); !fresh {
		t.Fatal("first ConstrainNull should report new information")
	}
	if w := inf.Solve(); len(w) != 1 {
		t.Fatalf("warning expected after constraint: %v", w)
	}
	if fresh := inf.ConstrainNull(inf.VarQ(g).Ptr, "again"); fresh {
		t.Fatal("second ConstrainNull must be idempotent (fixed point termination)")
	}
}

// TestIsNullLeavesWarningsAlone: IsNull reads the cached reachability
// and never builds warnings, so a burst of IsNull calls between two
// Solves changes nothing Solve reports; and the cache still follows
// constraints added after a solve.
func TestIsNullLeavesWarningsAlone(t *testing.T) {
	prog := mustParse(`
void sinkB(int *nonnull x);
void sinkC(int *nonnull x);
int *a = NULL;
int *b;
int *c;
void f(void) { b = a; sinkB(b); sinkC(c); }
`)
	inf := New(prog)
	for _, f := range prog.Funcs {
		inf.AddFunction(f)
	}
	render := func(ws []Warning) string {
		var parts []string
		for _, w := range ws {
			parts = append(parts, w.String())
		}
		return strings.Join(parts, "\n")
	}
	before := render(inf.Solve())
	if before == "" {
		t.Fatal("fixture should warn about a reaching sink through b")
	}
	a, _ := prog.Global("a")
	b, _ := prog.Global("b")
	c, _ := prog.Global("c")
	for i := 0; i < 100; i++ {
		for _, g := range []*microc.VarDecl{a, b, c} {
			inf.IsNull(inf.VarQ(g).Ptr)
			inf.QualOf(inf.VarQ(g).Ptr)
		}
	}
	if after := render(inf.Solve()); after != before {
		t.Fatalf("warnings changed across IsNull calls:\nbefore %s\nafter  %s", before, after)
	}
	if !inf.IsNull(inf.VarQ(b).Ptr) || inf.IsNull(inf.VarQ(c).Ptr) {
		t.Fatal("IsNull: b must be null (flows from a), c must not")
	}
	// A flow added after the first solve reaches c.
	inf.subtype(inf.VarQ(a), inf.VarQ(c))
	if !inf.IsNull(inf.VarQ(c).Ptr) {
		t.Fatal("IsNull missed a flow added after the first solve")
	}
	if n := len(inf.Solve()); n != 2 {
		t.Fatalf("after the new flow Solve reports %d warnings, want 2", n)
	}
}

func TestUnifyPropagatesBothWays(t *testing.T) {
	prog := mustParse(`
int *a = NULL;
int *b;
`)
	inf := New(prog)
	a, _ := prog.Global("a")
	b, _ := prog.Global("b")
	inf.Unify(inf.VarQ(a).Ptr, inf.VarQ(b).Ptr)
	if !inf.IsNull(inf.VarQ(b).Ptr) {
		t.Fatal("unification should carry nullness to b")
	}
}

func TestAddFunctionIdempotent(t *testing.T) {
	prog := mustParse(`
int *g = NULL;
void f(void) { g = NULL; }
`)
	inf := New(prog)
	f, _ := prog.Func("f")
	inf.AddFunction(f)
	n := len(inf.vars)
	inf.AddFunction(f)
	if len(inf.vars) != n {
		t.Fatal("re-adding a function must not duplicate constraints")
	}
}

func TestMallocSiteSharing(t *testing.T) {
	prog := mustParse(`
int **cell;
void f(void) { cell = malloc(sizeof(int *)); }
`)
	inf := New(prog)
	q1 := inf.SiteQ(1, microc.PtrType{Elem: microc.IntType{}})
	q2 := inf.SiteQ(1, microc.PtrType{Elem: microc.IntType{}})
	if q1 != q2 {
		t.Fatal("same site must share one qualified type")
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
