package core

import (
	"math/rand"
	"testing"
)

// FuzzExhaustiveness holds the fork-mode executor to the cover lemma,
// which discharges TSYMBLOCK's exhaustiveness premise, on programs no
// seeded run of TestCoverLemma produces: the fuzz bytes are coverGen's
// choices, and every non-degraded fork-mode run of the program they
// decode to must have leaves whose guards cover its block and none of
// which is redundant (checkCover). The seeds are the ladders, deep
// conditionals, idioms and defer gap of coverCorpus, each spliced
// whole, and twenty seeded random choice streams.
//
//	go test -run '^$' -fuzz FuzzExhaustiveness -fuzztime 10s ./internal/core/
func FuzzExhaustiveness(f *testing.F) {
	for i := range coverCorpus {
		// An int-kind program (0) whose root production is the
		// splice (31) of coverCorpus[i].
		f.Add([]byte{0, 31, byte(i)})
	}
	for seed := int64(1); seed <= 20; seed++ {
		data := make([]byte, 48)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st coverStats
		checkCover(t, newByteCoverGen(data).program(), &st)
	})
}
