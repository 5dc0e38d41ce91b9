package symexec

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"mix/internal/solver"
)

// memHandle is one holder of a Memory in runMemoryOps, beside the map
// model of what it must hold. Handles that share a *Memory share one
// model map, so a write through either shows in both.
type memHandle struct {
	mem   *Memory
	model map[cellKey]Value
}

// runMemoryOps decodes ops, two bytes an operation, into writes,
// deletes, reads, clones and shared handles over 40 cells (10 objects
// × 4 fields), starting from one empty memory. After every operation
// each handle's memory must match its model, and Cells must visit
// exactly the model's cells in (object ID, field) order. The executor's
// counters must count every clone, shared cell and write.
func runMemoryOps(t *testing.T, ops []byte) {
	t.Helper()
	// IDs are a permutation of creation order, so the (ID, field)
	// order is not the order the cells are first written in.
	var keys []cellKey
	for i := 0; i < 10; i++ {
		obj := &Object{ID: (i*7)%10 + 1, Name: fmt.Sprintf("o%d", i)}
		for _, field := range []string{"", "a", "b", "next"} {
			keys = append(keys, cellKey{obj, field})
		}
	}
	x := &Executor{}
	hs := []*memHandle{{mem: x.NewMemory(), model: map[cellKey]Value{}}}
	var want Stats
	for step := 0; len(ops) >= 2; step++ {
		op, arg := ops[0], int(ops[1])
		ops = ops[2:]
		h := hs[int(op>>3)%len(hs)]
		k := keys[arg%len(keys)]
		kind := op & 7
		if kind >= 5 && len(hs) >= 12 {
			kind = 4 // enough handles: read instead
		}
		switch kind {
		case 0, 1, 2:
			v := VInt{T: solver.IntConst{Val: int64(step)}}
			h.mem.Write(k.obj, k.field, v)
			h.model[k] = v
			want.MemWrites++
		case 3:
			h.mem.Delete(k.obj, k.field)
			delete(h.model, k)
		case 4:
			// Every read is checked below.
		case 5:
			want.MemClones++
			want.SharedCells += int64(len(h.model))
			hs = append(hs, &memHandle{mem: h.mem.Clone(), model: maps.Clone(h.model)})
		case 6, 7:
			hs = append(hs, &memHandle{mem: h.mem, model: h.model})
		}
		for i, h := range hs {
			for _, k := range keys {
				v, ok := h.mem.Read(k.obj, k.field)
				if mv, mok := h.model[k]; ok != mok || v != mv {
					t.Fatalf("step %d, handle %d: Read(%s.%s) = %v, %v; want %v, %v", step, i, k.obj.Name, k.field, v, ok, mv, mok)
				}
			}
			n := 0
			var prev cellKey
			h.mem.Cells(func(obj *Object, field string, v Value) {
				k := cellKey{obj, field}
				if n > 0 && (prev.obj.ID > obj.ID || prev.obj.ID == obj.ID && prev.field >= field) {
					t.Fatalf("step %d, handle %d: Cells visits %s.%s after %s.%s", step, i, obj.Name, field, prev.obj.Name, prev.field)
				}
				if mv, ok := h.model[k]; !ok || v != mv {
					t.Fatalf("step %d, handle %d: Cells visits %s.%s = %v; model has %v, %v", step, i, obj.Name, field, v, mv, ok)
				}
				prev = k
				n++
			})
			if n != len(h.model) {
				t.Fatalf("step %d, handle %d: Cells visits %d cells, model has %d", step, i, n, len(h.model))
			}
		}
	}
	if x.Stats != want {
		t.Fatalf("executor counts %+v, want %+v", x.Stats, want)
	}
}

// TestMemoryMatchesMap drives seeded random trees of clones and shared
// handles, with writes, deletes and reads, against map models: siblings
// never see each other's writes, and a shared handle sees its
// co-holder's.
func TestMemoryMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(20+rng.Intn(100)))
		rng.Read(ops)
		runMemoryOps(t, ops)
	}
}

// FuzzMemory is TestMemoryMatchesMap with the fuzzer choosing the
// operations.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{0, 1, 1, 9, 5, 3, 8, 1, 19, 3, 0, 40})
	f.Add([]byte{6, 0, 8, 4, 5, 0, 11, 4, 16, 4, 3, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		runMemoryOps(t, ops)
	})
}

var cloneSink *Memory

// TestMemoryCloneAllocs pins Clone at one allocation, the new Memory
// header, with the cells shared rather than copied.
func TestMemoryCloneAllocs(t *testing.T) {
	x := &Executor{}
	m := x.NewMemory()
	for i := 1; i <= 10; i++ {
		m.Write(&Object{ID: i}, "", VNull{})
	}
	if allocs := testing.AllocsPerRun(100, func() { cloneSink = m.Clone() }); allocs != 1 {
		t.Fatalf("Clone allocates %v times, want 1", allocs)
	}
	if &cloneSink.cells[0] != &m.cells[0] {
		t.Fatal("Clone copied the cells")
	}
}
