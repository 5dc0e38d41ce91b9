package microc

import (
	"strings"
	"testing"

	"mix/internal/corpus"
)

// roundTrip checks Print ∘ Parse is a fixed point on src.
func roundTrip(t *testing.T, src string) {
	t.Helper()
	p1, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	printed := Print(p1)
	p2, err := Parse(printed)
	if err != nil {
		t.Fatalf("printed program does not reparse: %v\n%s", err, printed)
	}
	printed2 := Print(p2)
	if printed != printed2 {
		t.Fatalf("not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

func TestPrintRoundTripBasics(t *testing.T) {
	roundTrip(t, `
int g = 3;
int *p;
int add(int a, int b) { return a + b; }
int main(void) {
  int x = add(1, 2);
  if (x > 2) { x = x - 1; } else { x = 0; }
  while (x < 10) { x = x + 1; }
  return x;
}
`)
}

func TestPrintRoundTripQualifiersAndMix(t *testing.T) {
	roundTrip(t, `
struct sockaddr { int family; int *data; };
void sysutil_free(void *nonnull p_ptr) MIX(typed) { return; }
int *null maybe;
void clear(struct sockaddr **p_sock) MIX(symbolic) {
  if (*p_sock != NULL) {
    sysutil_free(*p_sock);
    *p_sock = NULL;
  }
}
int main(void) { return 0; }
`)
	// Annotations survive printing.
	prog := mustParse(`void f(int *nonnull q) MIX(typed);`)
	out := Print(prog)
	if !strings.Contains(out, "*nonnull q") || !strings.Contains(out, "MIX(typed)") {
		t.Fatalf("annotations lost: %s", out)
	}
}

func TestPrintRoundTripPointersAndCasts(t *testing.T) {
	roundTrip(t, `
struct foo { int bar; };
struct foo *mk(void) {
  struct foo *x = (struct foo *) malloc(sizeof(struct foo));
  x->bar = 1;
  return x;
}
fnptr cb;
void handler(void) { return; }
void fire(void) {
  cb = handler;
  if (cb != NULL) { (*cb)(); }
}
int bases(struct foo **pp, void *v, int *p, int *q, int x) {
  int s = (*pp)->bar;
  s = ((struct foo *) v)->bar;
  s = ((*pp) = *pp)->bar;
  ((fnptr) v)();
  s = (x = 1) + 2;
  s = *(p = q);
  p = (int *) (p = q);
  int *r = (int *) (p = q);
  return s;
}
`)
}

// TestPrintCastOneWay pins that a cast prints the same whether it is a
// statement's whole expression or nested under another operator:
// Print renders every expression with Expr.String.
func TestPrintCastOneWay(t *testing.T) {
	out := Print(mustParse(`
int f(int **v, int x) {
  int **a = (int **) v;
  int *b = *(int **) v;
  return (int) x;
}
`))
	for _, want := range []string{"int **a = (int * *)v;", "int *b = *(int * *)v;", "return (int)x;"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print lacks %q:\n%s", want, out)
		}
	}
	roundTrip(t, out)
}

func TestPrintBranchesBlockified(t *testing.T) {
	// Brace-less branches print as blocks.
	prog := mustParse(`
int f(int n) {
  if (n > 0) return 1;
  else return 2;
}
`)
	out := Print(prog)
	if !strings.Contains(out, "{") {
		t.Fatalf("branches should be blockified: %s", out)
	}
	roundTrip(t, out)
}

func TestPrintCorpusRoundTrips(t *testing.T) {
	// Every corpus case survives print→parse→print.
	srcs := []string{
		corpus.SyntheticVsftpd(8, 2), // (*p_conn)->state
		`struct hostent { int h_addrtype; };
		 int arbitrary_choice(void);
		 struct hostent *gethostbyname(int *p_name) {
		   struct hostent *hent = malloc(sizeof(struct hostent));
		   if (arbitrary_choice() == 0) { hent->h_addrtype = 2; }
		   else { hent->h_addrtype = 10; }
		   return hent;
		 }`,
		`int *g_text;
		 void str_alloc_text(int *p_filename) MIX(typed) { g_text = p_filename; }
		 int *sysutil_next_dirent(int *p_dir) MIX(typed) {
		   if (p_dir == NULL) { return NULL; }
		   return p_dir;
		 }`,
	}
	for _, src := range srcs {
		roundTrip(t, src)
	}
}
