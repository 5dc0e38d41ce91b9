// Package corpus holds the benchmark programs of the reproduction:
// MicroC transcriptions of the four vsftpd case studies from the
// paper's Section 4.5, core-language programs for the Section 2
// motivating idioms, and synthetic program generators for the scaling
// experiments. See DESIGN.md for the substitution argument (we do not
// have vsftpd-2.0.7; the cases are quoted in the paper and transcribed
// here).
package corpus

import (
	"fmt"
	"strings"
)

// Case is one MIXY case study.
type Case struct {
	Name string
	// Source is the annotated MicroC program.
	Source string
	// Entry is the entry function.
	Entry string
	// Paper describes the paper's claim for this case.
	Paper string
}

// Case1 is "Flow and path insensitivity in sockaddr_clear": pure
// qualifier inference warns because the *p_sock = NULL assignment
// flows (flow-insensitively) into sysutil_free's nonnull parameter and
// the null check is invisible (path-insensitivity); marking
// sockaddr_clear MIX(symbolic) eliminates the warning.
var Case1 = Case{
	Name:  "case1-sockaddr_clear",
	Entry: "main",
	Paper: "MIX(symbolic) on sockaddr_clear removes the flow/path-insensitive false positive",
	Source: `
struct sockaddr { int family; };

void sysutil_free(void *nonnull p_ptr) MIX(typed) { return; }

void sockaddr_clear(struct sockaddr **p_sock) MIX(symbolic) {
  if (*p_sock != NULL) {
    sysutil_free(*p_sock);
    *p_sock = NULL;
  }
}

struct sockaddr *g_sock;

int main(void) {
  sockaddr_clear(&g_sock);
  return 0;
}
`,
}

// Case2 is "Path and context insensitivity in str_next_dirent": the
// null return of sysutil_next_dirent conflates, via the shared
// str_alloc_text parameter, with the unrelated str that reaches
// sysutil_free; marking str_next_dirent MIX(symbolic) removes the
// warning and adds context sensitivity.
var Case2 = Case{
	Name:  "case2-str_next_dirent",
	Entry: "main",
	Paper: "MIX(symbolic) on str_next_dirent removes the path/context-insensitive false positive",
	Source: `
void sysutil_free(void *nonnull p_ptr) MIX(typed) { return; }

int *g_text;

void str_alloc_text(int *p_filename) MIX(typed) {
  g_text = p_filename;
}

int *sysutil_next_dirent(int *p_dir) MIX(typed) {
  if (p_dir == NULL) return NULL;
  return p_dir;
}

void str_next_dirent(int *p_dir) MIX(symbolic) {
  int *p_filename = sysutil_next_dirent(p_dir);
  if (p_filename != NULL) {
    str_alloc_text(p_filename);
  }
}

int main(void) {
  int *str = malloc(sizeof(int));
  str_alloc_text(str);
  str_next_dirent(NULL);
  sysutil_free(g_text);
  return 0;
}
`,
}

// Case3 is "Flow- and path-insensitivity in dns_resolve and main":
// *p_sock is nulled twice (directly and by sockaddr_clear) and always
// repaired by sockaddr_alloc_ipv4/6 before reaching sysutil_free; the
// gethostbyname model restricts h_addrtype so the die() branch — whose
// function-pointer call the executor cannot analyze — is never taken.
var Case3 = Case{
	Name:  "case3-dns_resolve",
	Entry: "main",
	Paper: "extracting main_BLOCK as MIX(symbolic) removes both null-source false positives",
	Source: `
struct sockaddr { int family; };
struct hostent { int h_addrtype; };

void sysutil_free(void *nonnull p_ptr) MIX(typed) { return; }

void sockaddr_clear(struct sockaddr **p_sock) MIX(symbolic) {
  if (*p_sock != NULL) {
    sysutil_free(*p_sock);
    *p_sock = NULL;
  }
}

void sockaddr_alloc_ipv4(struct sockaddr **p_sock) MIX(typed) {
  *p_sock = malloc(sizeof(struct sockaddr));
}

void sockaddr_alloc_ipv6(struct sockaddr **p_sock) MIX(typed) {
  *p_sock = malloc(sizeof(struct sockaddr));
}

int arbitrary_choice(void);

fnptr s_exit_func;
void die(int *msg) {
  /* eventually calls a function pointer; unanalyzable symbolically */
  (*s_exit_func)();
}

/* A well-behaved symbolic model of gethostbyname (Section 4.5): it
   returns only AF_INET (2) or AF_INET6 (10). */
struct hostent *gethostbyname(int *p_name) {
  struct hostent *hent = malloc(sizeof(struct hostent));
  if (arbitrary_choice() == 0) {
    hent->h_addrtype = 2;
  } else {
    hent->h_addrtype = 10;
  }
  return hent;
}

void dns_resolve(struct sockaddr **p_sock, int *p_name) {
  struct hostent *hent = gethostbyname(p_name);
  sockaddr_clear(p_sock);
  if (hent->h_addrtype == 2) {
    sockaddr_alloc_ipv4(p_sock);
  } else {
    if (hent->h_addrtype == 10) {
      sockaddr_alloc_ipv6(p_sock);
    } else {
      die(NULL);
    }
  }
}

void main_BLOCK(struct sockaddr **p_sock) MIX(symbolic) {
  *p_sock = NULL;
  dns_resolve(p_sock, NULL);
}

struct sockaddr *p_addr;

int main(void) {
  main_BLOCK(&p_addr);
  sysutil_free(p_addr);
  return 0;
}
`,
}

// Case4 is "Helping symbolic execution with symbolic function
// pointers": the call through s_exit_func is unanalyzable
// symbolically; extracting it into a MIX(typed) block analyzes it
// conservatively.
var Case4 = Case{
	Name:  "case4-sysutil_exit",
	Entry: "main",
	Paper: "MIX(typed) on sysutil_exit_BLOCK conservatively covers the function-pointer call",
	Source: `
fnptr s_exit_func;

void exit_(int code);

void sysutil_exit_BLOCK(void) MIX(typed) {
  if (s_exit_func != NULL) {
    (*s_exit_func)();
  }
}

void sysutil_exit(int exit_code) {
  sysutil_exit_BLOCK();
  exit_(exit_code);
}

void do_work(void) MIX(symbolic) {
  sysutil_exit(1);
}

int main(void) {
  do_work();
  return 0;
}
`,
}

// Case4NoTyped is Case4 without the typed block, demonstrating the
// executor's function-pointer limitation.
var Case4NoTyped = Case{
	Name:  "case4-without-typed-block",
	Entry: "main",
	Paper: "without the typed block the executor fails on the symbolic function pointer",
	Source: strings.Replace(Case4.Source,
		"void sysutil_exit_BLOCK(void) MIX(typed) {",
		"void sysutil_exit_BLOCK(void) {", 1),
}

// Cases are the four paper case studies in order.
var Cases = []Case{Case1, Case2, Case3, Case4}

// VsftpdMini combines all four case-study patterns into one
// translation unit, exercising multiple symbolic blocks, nested
// switching, caching, and the global fixed point in a single MIXY run
// — the closest approximation of analyzing the real program at once.
//
// Unlike the isolated cases, the combined program retains residual
// warnings: sockaddr_clear is now called from two contexts, and the
// context-insensitive pointer analysis conflates its p_sock targets
// ({g_sock, p_addr}), so the NULL written for the g_sock caller also
// constrains p_addr. This reproduces the paper's Section 4.6
// discussion verbatim: "since we rely on a context-insensitive pointer
// analysis to restore aliasing relationships ... these calls will
// again be conflated" and "pointers are initialized to point to
// targets from the entire program, rather than being limited to the
// enclosing context."
var VsftpdMini = Case{
	Name:  "vsftpd-mini",
	Entry: "main",
	Paper: "all four patterns at once; warnings drop but aliasing conflation (Section 4.6) leaves residuals",
	Source: `
struct sockaddr { int family; };
struct hostent { int h_addrtype; };

fnptr s_exit_func;
void exit_(int code);
int arbitrary_choice(void);

void sysutil_free(void *nonnull p_ptr) MIX(typed) { return; }

/* ---- Case 1: flow/path insensitivity ---- */
void sockaddr_clear(struct sockaddr **p_sock) MIX(symbolic) {
  if (*p_sock != NULL) {
    sysutil_free(*p_sock);
    *p_sock = NULL;
  }
}

/* ---- Case 2: path/context insensitivity ---- */
int *g_text;
void str_alloc_text(int *p_filename) MIX(typed) {
  g_text = p_filename;
}
int *sysutil_next_dirent(int *p_dir) MIX(typed) {
  if (p_dir == NULL) return NULL;
  return p_dir;
}
void str_next_dirent(int *p_dir) MIX(symbolic) {
  int *p_filename = sysutil_next_dirent(p_dir);
  if (p_filename != NULL) {
    str_alloc_text(p_filename);
  }
}

/* ---- Case 3: two null sources repaired before use ---- */
void sockaddr_alloc_ipv4(struct sockaddr **p_sock) MIX(typed) {
  *p_sock = malloc(sizeof(struct sockaddr));
}
void sockaddr_alloc_ipv6(struct sockaddr **p_sock) MIX(typed) {
  *p_sock = malloc(sizeof(struct sockaddr));
}
void die(int *msg) {
  (*s_exit_func)();
}
struct hostent *gethostbyname(int *p_name) {
  struct hostent *hent = malloc(sizeof(struct hostent));
  if (arbitrary_choice() == 0) {
    hent->h_addrtype = 2;
  } else {
    hent->h_addrtype = 10;
  }
  return hent;
}
void dns_resolve(struct sockaddr **p_sock, int *p_name) {
  struct hostent *hent = gethostbyname(p_name);
  sockaddr_clear(p_sock);
  if (hent->h_addrtype == 2) {
    sockaddr_alloc_ipv4(p_sock);
  } else {
    if (hent->h_addrtype == 10) {
      sockaddr_alloc_ipv6(p_sock);
    } else {
      die(NULL);
    }
  }
}
void main_BLOCK(struct sockaddr **p_sock) MIX(symbolic) {
  *p_sock = NULL;
  dns_resolve(p_sock, NULL);
}

/* ---- Case 4: symbolic function pointer behind a typed block ---- */
void sysutil_exit_BLOCK(void) MIX(typed) {
  if (s_exit_func != NULL) {
    (*s_exit_func)();
  }
}
void sysutil_exit(int exit_code) {
  sysutil_exit_BLOCK();
  exit_(exit_code);
}
void do_work(void) MIX(symbolic) {
  sysutil_exit(1);
}

struct sockaddr *g_sock;
struct sockaddr *p_addr;

int main(void) {
  sockaddr_clear(&g_sock);
  int *str = malloc(sizeof(int));
  str_alloc_text(str);
  str_next_dirent(NULL);
  sysutil_free(g_text);
  main_BLOCK(&p_addr);
  sysutil_free(p_addr);
  do_work();
  return 0;
}
`,
}

// Idiom is one Section 2 motivating example in the core language.
type Idiom struct {
	Name string
	// Source is the annotated core-language program.
	Source string
	// Stripped is the same program with block annotations removed
	// (what the pure type checker sees).
	Stripped string
	// Env lists free variables as name:type (int|bool) pairs.
	Env [][2]string
	// PureTypeRejects records whether the pure type system must
	// reject the stripped program.
	PureTypeRejects bool
	// Paper cites the paper's wording.
	Paper string
}

// CoreIdioms are the Section 2 examples expressible in the core
// language (the function-based ones need MIXY; see Cases).
var CoreIdioms = []Idiom{
	{
		Name:            "unreachable-code",
		Source:          `{s if true then {t 5 t} else {t 1 + true t} s}`,
		Stripped:        `if true then 5 else 1 + true`,
		PureTypeRejects: true,
		Paper:           "pure type checking would complain about the potential type error in the false branch",
	},
	{
		Name:            "solver-proved-unreachable",
		Source:          `{s if x = x then {t 5 t} else {t 1 + true t} s}`,
		Stripped:        `if x = x then 5 else 1 + true`,
		Env:             [][2]string{{"x", "int"}},
		PureTypeRejects: true,
		Paper:           "symbolic execution discards paths whose condition is infeasible",
	},
	{
		Name:            "flow-sensitive-reuse",
		Source:          `{s let x = 1 in let _ = {t x + 1 t} in let x = true in {t not x t} s}`,
		Stripped:        `let x = 1 in let _ = x + 1 in let x = true in not x`,
		PureTypeRejects: false, // shadowing makes the stripped program typeable too
		Paper:           "programmers may reuse variables as different types",
	},
	{
		Name:            "null-then-malloc",
		Source:          `{s let x = ref 1 in let _ = x := true in let _ = x := 2 in {t !x + 1 t} s}`,
		Stripped:        `let x = ref 1 in let _ = x := true in let _ = x := 2 in !x + 1`,
		PureTypeRejects: true,
		Paper:           "x->obj is initially assigned NULL, immediately before a fresh allocation",
	},
	{
		Name: "local-refinement",
		// The paper's sign trichotomy: x > 0, x = 0, x < 0; each arm a
		// typed block, and the forking executor covers all three.
		Source: `{s if 0 < x then {t 10 t}
		           else (if x = 0 then {t 11 t} else {t 12 t}) s}`,
		Stripped: `if 0 < x then 10
		           else (if x = 0 then 11 else 12)`,
		Env:             [][2]string{{"x", "int"}},
		PureTypeRejects: false,
		Paper:           "the symbolic executor forks and explores the three sign possibilities exhaustively",
	},
	{
		Name: "init-before-share",
		Source: `{s let x = ref 0 in let _ = x := true in let _ = x := 1 in
		          let _ = x := 2 in {t !x t} s}`,
		Stripped: `let x = ref 0 in let _ = x := true in let _ = x := 1 in
		           let _ = x := 2 in !x`,
		PureTypeRejects: true,
		Paper:           "symbolic execution can observe that x is local during the initialization phase",
	},
	{
		Name:            "helping-symbolic-execution",
		Source:          `{s let r = {t if b1 then 1 else 2 t} in r + 1 s}`,
		Stripped:        `let r = (if b1 then 1 else 2) in r + 1`,
		Env:             [][2]string{{"b1", "bool"}},
		PureTypeRejects: false,
		Paper:           "typed blocks introduce conservative abstraction when symbolic execution is not viable",
	},
	{
		Name: "context-sensitivity-id",
		Source: `{s let id = fun x -> x in
		           (id 3) + (if id true then 1 else 0) s}`,
		Stripped: `let id = fun x : int -> x in
		           (id 3) + (if id true then 1 else 0)`,
		PureTypeRejects: true,
		Paper:           "the identity function is called with an int and a float; symbolic blocks check the calls by execution",
	},
	{
		Name: "path-and-context-sensitivity-div",
		Source: `{s let div = fun x -> fun y ->
		             if y = 0 then true else x + y in
		           (div 7 4) + 1 s}`,
		Stripped: `let div = fun x -> fun y ->
		             if y = 0 then true else x + y in
		           (div 7 4) + 1`,
		PureTypeRejects: true,
		Paper:           "div returns a string only when the second argument is 0 — out of reach of parametric polymorphism",
	},
	{
		Name:            "unknown-function-in-typed-block",
		Source:          `{s {t extfun 3 t} + 1 s}`,
		Stripped:        `extfun 3 + 1`,
		Env:             [][2]string{{"extfun", "int -> int"}},
		PureTypeRejects: false,
		Paper:           "a call to a function whose source code is not available, wrapped in a typed block, models the return value by its type",
	},
}

// SyntheticVsftpd generates a vsftpd-scale MicroC program with nFuncs
// worker functions in a call chain, of which kSymbolic are marked
// MIX(symbolic) (spread evenly). Each worker nulls and repairs a
// global connection buffer and calls the nonnull-annotated
// sysutil_free under a guard — the shape of the paper's case studies —
// so each added symbolic block costs translation solver queries and
// fixed-point work (the E3 timing experiment).
func SyntheticVsftpd(nFuncs, kSymbolic int) string {
	var b strings.Builder
	b.WriteString("struct conn { int *buf; int state; };\n")
	b.WriteString("void sysutil_free(void *nonnull p_ptr) MIX(typed) { return; }\n")
	for i := 0; i < nFuncs; i++ {
		fmt.Fprintf(&b, "struct conn *g_conn%d;\n", i)
	}
	// The shared worker body: clear-and-reallocate its own connection,
	// and conditionally null the next one — so each symbolic block's
	// result changes the typed calling context of the others, driving
	// the fixed point (and the superlinear cost the paper reports).
	b.WriteString(`
void clear_conn(struct conn **p_conn, struct conn **p_next) {
  if (*p_conn != NULL) {
    sysutil_free(*p_conn);
    *p_conn = NULL;
  }
  *p_conn = malloc(sizeof(struct conn));
  if ((*p_conn)->state == 0) {
    *p_next = NULL;
  }
  return;
}
`)
	for i := 0; i < nFuncs; i++ {
		anno := ""
		if i < kSymbolic {
			anno = " MIX(symbolic)"
		}
		next := (i + 1) % nFuncs
		fmt.Fprintf(&b, "void work%d(void)%s {\n", i, anno)
		fmt.Fprintf(&b, "  clear_conn(&g_conn%d, &g_conn%d);\n", i, next)
		fmt.Fprintf(&b, "  return;\n}\n")
	}
	b.WriteString("int main(void) {\n")
	for i := 0; i < nFuncs; i++ {
		fmt.Fprintf(&b, "  work%d();\n", i)
	}
	for i := 0; i < nFuncs; i++ {
		fmt.Fprintf(&b, "  if (g_conn%d != NULL) { sysutil_free(g_conn%d); }\n", i, i)
	}
	b.WriteString("  return 0;\n}\n")
	return b.String()
}

// SharedHelpers generates the X9 summary-reuse benchmark family: n
// int-only helper functions, each a three-deep sequential conditional
// ladder (8 paths when explored), called kCalls times in total from
// one MIX(symbolic) entry that threads an accumulator through the
// calls. Without function summaries every call site re-explores its
// helper's paths from scratch; with summaries each helper is analyzed
// once and every call site instantiates the cached arms — so the
// inline cost scales with kCalls × paths while the summary cost
// scales with nHelpers × paths + kCalls. The helpers are int-only,
// loop-free, and non-recursive on purpose: the whole family sits
// inside the summarizable fragment (DESIGN.md section 14).
func SharedHelpers(nHelpers, kCalls int) string {
	if nHelpers < 1 {
		nHelpers = 1
	}
	var b strings.Builder
	for i := 0; i < nHelpers; i++ {
		// The constants differ per helper so each has distinct source
		// text (and so a distinct content hash in the summary store).
		fmt.Fprintf(&b, "int h%d(int a, int b) {\n", i)
		fmt.Fprintf(&b, "  if (a < b) { a = a + %d; } else { a = a - %d; }\n", i+1, i+2)
		fmt.Fprintf(&b, "  if (b < a) { b = b + %d; } else { b = b - %d; }\n", i+3, i+1)
		fmt.Fprintf(&b, "  if (a < b) { return a + b; }\n")
		fmt.Fprintf(&b, "  return a - b;\n}\n")
	}
	b.WriteString("int entry(int x, int y) MIX(symbolic) {\n  int acc = 0;\n")
	// The accumulator feeds back into the arguments so successive calls
	// see genuinely new symbolic inputs — otherwise the path condition
	// would prune every repeat call's forks and the inline baseline
	// would be artificially cheap.
	for j := 0; j < kCalls; j++ {
		if j%2 == 0 {
			fmt.Fprintf(&b, "  acc = acc + h%d(x, acc + y);\n", j%nHelpers)
		} else {
			fmt.Fprintf(&b, "  acc = acc + h%d(acc, x);\n", j%nHelpers)
		}
	}
	b.WriteString("  return acc;\n}\n")
	b.WriteString("int main(void) { return 0; }\n")
	return b.String()
}

// Ladder builds n sequential conditionals over symbolic booleans
// b0..b(n-1), summing their results — cheap for a type checker (O(n)),
// exponential for a forking symbolic executor (2^n paths, since the
// forks multiply).
func Ladder(n int) (string, [][2]string) {
	var env [][2]string
	var b strings.Builder
	for i := 0; i < n; i++ {
		env = append(env, [2]string{fmt.Sprintf("b%d", i), "bool"})
		fmt.Fprintf(&b, "let t%d = (if b%d then 1 else 2) in ", i, i)
	}
	b.WriteString("0")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " + t%d", i)
	}
	return b.String(), env
}

// DeepConditionals generates the E5 frontier program family: a
// conditional ladder (expensive symbolically, trivial for types)
// guarded by a solver-refutable condition whose dead branch is
// ill-typed (impossible for types, trivial symbolically).
//
// It returns the plain program — rejected by pure typing, accepted by
// pure symbolic execution at 2^n-path cost — and the mixed program,
// which wraps the guard in a symbolic block and the ladder in a typed
// block, getting both precision and O(n) cost.
func DeepConditionals(n int) (plain, mixed string, env [][2]string) {
	ladder, env := Ladder(n)
	env = append(env, [2]string{"x", "int"})
	plain = fmt.Sprintf("if x = x then (%s) else (1 + true)", ladder)
	mixed = fmt.Sprintf("{s if x = x then {t %s t} else {t 1 + true t} s}", ladder)
	return plain, mixed, env
}
