package lang

import (
	"os"
	"path/filepath"
	"testing"

	"mix/internal/corpus"
)

// FuzzParse: every input either fails to parse or parses to an Expr
// whose String() reparses to the same string, so the printer never
// produces text the parser reads differently. The seeds are the
// checked-in programs and the corpus's core-language families.
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/lang/
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/*.mix")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata/*.mix seeds (%v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for n := 1; n <= 3; n++ {
		ladder, _ := corpus.Ladder(n)
		plain, mixed, _ := corpus.DeepConditionals(n)
		f.Add(ladder)
		f.Add(plain)
		f.Add(mixed)
	}
	for _, idiom := range corpus.CoreIdioms {
		f.Add(idiom.Source)
		f.Add(idiom.Stripped)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		printed := e.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) prints %q, which does not reparse: %v", src, printed, err)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("Parse(%q) prints %q, which reparses to %q", src, printed, reprinted)
		}
	})
}
