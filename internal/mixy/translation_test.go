package mixy

import (
	"strings"
	"testing"
)

// Tests for the Section 4.1 translations in isolation.

func TestReturnValueTranslation(t *testing.T) {
	// A symbolic block that may return null constrains its return
	// qualifier; the typed caller's use then warns.
	src := `
void sink(int *nonnull q) MIX(typed) { return; }
int *get(int n) MIX(symbolic) {
  if (n > 0) return malloc(sizeof(int));
  return NULL;
}
int main(void) {
  sink(get(1));
  return 0;
}
`
	a := analyze(t, src, Options{})
	ws := nullWarnings(a)
	if len(ws) == 0 {
		t.Fatalf("maybe-null return must reach sink: %v", a.Warnings)
	}
	if want := "(source: symbolic block get may return null)"; !strings.HasSuffix(ws[0].Msg, want) {
		t.Fatalf("warning %q does not end with the constraint's reason %q", ws[0].Msg, want)
	}
}

func TestNonNullReturnTranslation(t *testing.T) {
	src := `
void sink(int *nonnull q) MIX(typed) { return; }
int *get(int n) MIX(symbolic) {
  if (n > 0) return malloc(sizeof(int));
  return malloc(sizeof(int));
}
int main(void) {
  sink(get(1));
  return 0;
}
`
	a := analyze(t, src, Options{})
	if got := nullWarnings(a); len(got) != 0 {
		t.Fatalf("never-null return must not warn: %v", got)
	}
}

func TestArgumentTranslationIntoTypedCall(t *testing.T) {
	// A possibly-null argument entering a typed call constrains the
	// callee's parameter; an inferred (not annotated) sink catches it.
	src := `
void use(int *p) MIX(typed) {
  really_use(p);
}
void really_use(int *nonnull q) MIX(typed) { return; }
void blk(int n) MIX(symbolic) {
  int *x = NULL;
  if (n > 0) x = malloc(sizeof(int));
  use(x);
}
int main(void) { blk(0); return 0; }
`
	a := analyze(t, src, Options{})
	if len(nullWarnings(a)) == 0 {
		t.Fatalf("possibly-null arg must flow through typed region to the sink: %v", a.Warnings)
	}
}

func TestGuardedArgumentTranslation(t *testing.T) {
	src := `
void use(int *p) MIX(typed) {
  really_use(p);
}
void really_use(int *nonnull q) MIX(typed) { return; }
void blk(int n) MIX(symbolic) {
  int *x = NULL;
  if (n > 0) x = malloc(sizeof(int));
  if (x != NULL) use(x);
}
int main(void) { blk(0); return 0; }
`
	a := analyze(t, src, Options{})
	if got := nullWarnings(a); len(got) != 0 {
		t.Fatalf("guarded arg must not warn: %v", got)
	}
}

func TestStrictInitOption(t *testing.T) {
	src := `
void sink(int *nonnull q) MIX(typed) { return; }
int *g;
int main(void) {
  sink(g);
  return 0;
}
`
	// Paper behavior: only explicit NULL uses are sources.
	paper := analyze(t, src, Options{})
	if got := nullWarnings(paper); len(got) != 0 {
		t.Fatalf("paper mode should not treat uninitialized globals as null: %v", got)
	}
	// Strict C semantics: the zero-initialized global is null.
	strict := analyze(t, src, Options{StrictInit: true})
	if len(nullWarnings(strict)) == 0 {
		t.Fatalf("strict mode must warn: %v", strict.Warnings)
	}
	found := false
	for _, w := range strict.Warnings {
		if strings.Contains(w.Msg, "implicit zero initialization") {
			found = true
		}
	}
	if !found {
		t.Fatalf("warning should cite the implicit initialization: %v", strict.Warnings)
	}
}

func TestFieldNullTranslation(t *testing.T) {
	// The null-then-malloc field idiom (Section 2): a symbolic block
	// nulls a field and repairs it immediately.
	src := `
struct box { int *obj; };
void sink(int *nonnull q) MIX(typed) { return; }
struct box *g_box;
void init(struct box *x) MIX(symbolic) {
  x->obj = NULL;
  x->obj = malloc(sizeof(int));
}
int main(void) {
  g_box = malloc(sizeof(struct box));
  init(g_box);
  sink(g_box->obj);
  return 0;
}
`
	base := analyze(t, src, Options{IgnoreAnnotations: true})
	if len(nullWarnings(base)) == 0 {
		t.Fatalf("flow-insensitive baseline should warn: %v", base.Warnings)
	}
	mixed := analyze(t, src, Options{})
	if got := nullWarnings(mixed); len(got) != 0 {
		t.Fatalf("repaired field must not warn under MIXY: %v", got)
	}
}
