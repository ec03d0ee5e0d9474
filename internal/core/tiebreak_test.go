package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"rowsort/internal/normkey"
	"rowsort/internal/row"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

var tieCompareSink int

// tieProbe encodes c's rows under s's current key encoding into key rows
// whose references point into one payload RowSet, as a run sort sees them.
func tieProbe(t *testing.T, s *Sorter, c *vector.Chunk) ([]byte, *row.RowSet) {
	t.Helper()
	payload := row.NewRowSet(s.layout)
	if err := payload.AppendChunk(c.Vectors); err != nil {
		t.Fatal(err)
	}
	keyCols := make([]*vector.Vector, len(s.keys))
	for i, kc := range s.keys {
		keyCols[i] = c.Vectors[kc.Column]
	}
	keys := make([]byte, c.Len()*s.rowWidth)
	if err := s.enc.Encode(keyCols, keys, s.rowWidth, 0); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.Len(); r++ {
		s.putRef(keys[r*s.rowWidth:(r+1)*s.rowWidth], 0, uint32(r))
	}
	return keys, payload
}

// checkTieCompare asserts that rows i and j of c tie on every normalized
// key byte, that the semantic comparator still orders them like the
// reference comparator, and that the comparison allocates nothing.
func checkTieCompare(t *testing.T, s *Sorter, c *vector.Chunk, i, j int, ctx string) {
	t.Helper()
	keys, payload := tieProbe(t, s, c)
	rw, kw := s.rowWidth, s.keyWidth
	a, b := keys[i*rw:(i+1)*rw], keys[j*rw:(j+1)*rw]
	if !bytes.Equal(a[:kw], b[:kw]) {
		t.Fatalf("%s: rows %d and %d differ in their key bytes, so the tie-break is never reached", ctx, i, j)
	}
	keyCols := make([]*vector.Vector, len(s.keys))
	for k, kc := range s.keys {
		keyCols[k] = c.Vectors[kc.Column]
	}
	want := normkey.CompareRows(s.enc.Keys(), keyCols, i, j)
	if want == 0 {
		t.Fatalf("%s: rows %d and %d are equal; the probe needs distinct values", ctx, i, j)
	}
	cmp := s.comparator(func(_, idx uint32) (*row.RowSet, int) { return payload, int(idx) })
	if got := cmp(a, b); (got < 0) != (want < 0) || got == 0 {
		t.Fatalf("%s: compare(%d, %d) = %d, reference %d", ctx, i, j, got, want)
	}
	if got := cmp(b, a); (got < 0) == (want < 0) || got == 0 {
		t.Fatalf("%s: compare(%d, %d) = %d, reference %d", ctx, j, i, got, -want)
	}
	if n := testing.AllocsPerRun(1000, func() { tieCompareSink = cmp(a, b) }); n != 0 {
		t.Fatalf("%s: tie-break compare allocates %v per call, want 0", ctx, n)
	}
}

// TestTieBreakVarcharAllocatesNothing pins the in-place string tie-break:
// a varchar key longer than its 12-byte prefix, ASC and DESC, binary and
// NOCASE. The two URLs tie on their prefix and order differently under the
// two collations, and the upper-case one is the input a folding copy would
// have had to rewrite.
func TestTieBreakVarcharAllocatesNothing(t *testing.T) {
	c := vector.NewChunk(workload.KeyCompStringSchema, 2)
	c.Vectors[0].AppendString("https://shop.example.com/item/000123")
	c.Vectors[0].AppendString("https://shop.example.com/ITEM/000124")
	c.Vectors[1].AppendInt64(1)
	c.Vectors[1].AppendInt64(2)
	for _, desc := range []bool{false, true} {
		for _, nocase := range []bool{false, true} {
			keys := []SortColumn{{Column: 0, Descending: desc, CaseInsensitive: nocase}}
			s, err := NewSorter(workload.KeyCompStringSchema, keys, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkTieCompare(t, s, c, 0, 1, fmt.Sprintf("desc=%v nocase=%v", desc, nocase))
			s.Close()
		}
	}
}

// TestTieBreakCompressedAllocatesNothing covers the compressed encodings
// that fetch the payload (KeyCompAll): two out-of-dictionary strings that
// share one dictionary escape gap, and two int64 values that agree on the
// truncated prefix of their fixed-width encoding.
func TestTieBreakCompressedAllocatesNothing(t *testing.T) {
	sample := vector.NewChunk(workload.KeyCompStringSchema, 128)
	for i := 0; i < 128; i++ {
		sample.Vectors[0].AppendString([]string{"apple", "cherry"}[i%2])
		sample.Vectors[1].AppendInt64(int64(i%64) << 48)
	}
	probe := vector.NewChunk(workload.KeyCompStringSchema, 4)
	for _, r := range []struct {
		k string
		v int64
	}{
		{"banana1", 0}, {"banana2", 0}, // both escape to the gap between apple and cherry
		{"apple", 5<<48 + 1}, {"apple", 5<<48 + 2}, // equal on the kept 3-byte prefix
	} {
		probe.Vectors[0].AppendString(r.k)
		probe.Vectors[1].AppendInt64(r.v)
	}
	for _, desc := range []bool{false, true} {
		keys := []SortColumn{{Column: 0, Descending: desc}, {Column: 1, Descending: desc}}
		s, err := NewSorter(workload.KeyCompStringSchema, keys, Options{KeyComp: KeyCompAll})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PlanCompression([]*vector.Chunk{sample}); err != nil {
			t.Fatal(err)
		}
		p := s.enc.Plan()
		if p == nil || p.Cols[0].Enc != normkey.EncDict || p.Cols[1].Enc != normkey.EncTrunc || s.enc.SegExactSuffix(1) {
			t.Fatalf("desc=%v: plan %+v, want a dictionary and a plain truncated fixed segment", desc, p)
		}
		checkTieCompare(t, s, probe, 0, 1, fmt.Sprintf("dict escape desc=%v", desc))
		checkTieCompare(t, s, probe, 2, 3, fmt.Sprintf("trunc fixed desc=%v", desc))
		s.Close()
	}
}

// TestSharedPrefixSortMatchesBoxedReference sorts URLs whose every key ties
// on its prefix, so the tie-break decides every comparison, and checks the
// output row for row against a sort of the boxed Go values.
func TestSharedPrefixSortMatchesBoxedReference(t *testing.T) {
	tbl := workload.SharedPrefixStrings(8_000, 97)
	type kv struct {
		k string
		v int64
	}
	want := make([]kv, 0, tbl.NumRows())
	for _, c := range tbl.Chunks {
		for r := 0; r < c.Len(); r++ {
			want = append(want, kv{c.Vectors[0].Strings()[r], c.Vectors[1].Int64s()[r]})
		}
	}
	// Payloads are functions of the key, so equal keys are whole-row equal.
	sort.Slice(want, func(i, j int) bool { return want[i].k < want[j].k })
	keys := []SortColumn{{Column: 0}}
	for _, threads := range []int{1, 2} {
		for _, spill := range []bool{false, true} {
			for _, kc := range []KeyComp{0, KeyCompAll} {
				ctx := fmt.Sprintf("threads=%d spill=%v keycomp=%d", threads, spill, kc)
				opt := Options{Threads: threads, RunSize: 1_000, KeyComp: kc}
				if spill {
					opt.SpillDir = t.TempDir()
				}
				got, err := SortTable(tbl, keys, opt)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				if got.NumRows() != len(want) {
					t.Fatalf("%s: got %d rows, want %d", ctx, got.NumRows(), len(want))
				}
				ks, vs := got.Column(0).Strings(), got.Column(1).Int64s()
				for i, w := range want {
					if ks[i] != w.k || vs[i] != w.v {
						t.Fatalf("%s: row %d = (%q, %d), want (%q, %d)", ctx, i, ks[i], vs[i], w.k, w.v)
					}
				}
			}
		}
	}
}
