package microc

import (
	"testing"

	"mix/internal/corpus"
)

// FuzzParseC: every input either fails to parse, or parses to a
// program whose Print reparses and prints identically, so the printer
// never produces text the parser reads differently. The seeds are the
// corpus's MicroC case studies and generator families.
//
//	go test -run '^$' -fuzz FuzzParseC -fuzztime 10s ./internal/microc/
func FuzzParseC(f *testing.F) {
	for _, c := range corpus.Cases {
		f.Add(c.Source)
	}
	f.Add(corpus.VsftpdMini.Source)
	for n := 1; n <= 3; n++ {
		f.Add(corpus.SharedHelpers(n, 2*n))
		f.Add(corpus.SyntheticVsftpd(2*n, n))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(p)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) prints %q, which does not reparse: %v", src, printed, err)
		}
		if reprinted := Print(again); reprinted != printed {
			t.Fatalf("Parse(%q) prints %q, which reparses and prints %q", src, printed, reprinted)
		}
	})
}
