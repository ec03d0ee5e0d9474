package core

import (
	"bytes"
	"os"
	"testing"

	"rowsort/internal/mem"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// parallelTestKeys sorts on every column, with the tie-prone varchar
// mid-key: a full-key tie is then a fully identical row, so output
// byte-identity is well-defined even when parallel ingest assigns rows to
// runs nondeterministically (equal rows are interchangeable).
var parallelTestKeys = []SortColumn{
	{Column: 1, NullsLast: true},
	{Column: 2, Descending: true},
	{Column: 3},
	{Column: 0},
}

// parallelSort runs the fully parallel pipeline — ParallelSink ingest,
// partitioned external merge when eligible, parallel gather — and returns
// the result plus the sorter's stats.
func parallelSort(t *testing.T, tbl *vector.Table, keys []SortColumn, opt Options) (*vector.Table, SortStats) {
	t.Helper()
	s, err := NewSorter(tbl.Schema, keys, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := s.NewParallelSink()
	for _, c := range tbl.Chunks {
		if err := sink.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	out, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestParallelExternalSortByteIdentity is the tentpole's correctness bar:
// the fully parallel external sort — parallel run generation, read-ahead,
// partitioned merge — under a tight budget produces output byte-identical
// to the scalar external path at every thread count, and hands every
// reserved byte back on Close.
func TestParallelExternalSortByteIdentity(t *testing.T) {
	tbl := mixedTable(40_000, 101)
	scalar := Options{Threads: 1, RunSize: 1500, SpillDir: t.TempDir(),
		ReadAhead: -1, ExtMergeThreads: 1}
	want := sortWith(t, tbl, parallelTestKeys, scalar)
	checkSorted(t, tbl, want, parallelTestKeys, "scalar external reference")
	wantRows := rowify(t, want)

	_, unlimited := parallelSort(t, tbl, parallelTestKeys, Options{Threads: 4, RunSize: 1500})
	budget := unlimited.PeakResidentRunBytes / 3

	for _, threads := range []int{1, 2, 4, 8} {
		broker := mem.NewBroker("parallel-identity", budget)
		opt := Options{Threads: threads, RunSize: 1500, Broker: broker}
		got, st := parallelSort(t, tbl, parallelTestKeys, opt)
		if st.SpillBytesWritten == 0 {
			t.Fatalf("threads=%d: budget %d forced no spill", threads, budget)
		}
		if !bytes.Equal(rowify(t, got).Bytes(), wantRows.Bytes()) {
			t.Errorf("threads=%d: parallel external sort differs from scalar path", threads)
		}
		if used := broker.Used(); used != 0 {
			t.Errorf("threads=%d: broker holds %d bytes after Close, want 0", threads, used)
		}
		if peak := broker.Peak(); peak >= unlimited.PeakResidentRunBytes {
			t.Errorf("threads=%d: budgeted peak %d not below unlimited peak %d",
				threads, peak, unlimited.PeakResidentRunBytes)
		}
	}
}

// TestPartitionedMergeMatchesSequential pins the partitioned final merge
// against the sequential one on deterministic runs (single sink): across
// merge thread counts and read-ahead depths the output must stay
// byte-identical — including on keys with tie-breaks, where partition
// bounds may only cut on the byte-decisive safe prefix, and on
// duplicate-heavy keys, whose small front-coded spill blocks make the
// partition workers seek into the middle of tagged spill files.
func TestPartitionedMergeMatchesSequential(t *testing.T) {
	dup := make([]uint32, 40_000)
	for i := range dup {
		dup[i] = uint32(i / 32)
	}
	for _, in := range []struct {
		name      string
		tbl       *vector.Table
		keys      []SortColumn
		blockRows int
	}{
		{"mixed", mixedTable(40_000, 102), mergeTestKeys, 0},
		{"dup-heavy", workload.UintColumnsTable([][]uint32{dup}), []SortColumn{{Column: 0}}, 256},
	} {
		base := Options{Threads: 1, RunSize: 1500, SpillDir: t.TempDir(),
			ReadAhead: -1, ExtMergeThreads: 1, SpillBlockRows: in.blockRows}
		want, wantStats := budgetedSort(t, in.tbl, in.keys, base)
		if wantStats.SpillBytesWritten == 0 {
			t.Fatalf("%s: reference sort never spilled", in.name)
		}
		if wantStats.ExtMergeParts != 0 || wantStats.PrefetchedBlocks != 0 {
			t.Fatalf("%s: scalar reference ran parallel machinery: %+v", in.name, wantStats)
		}
		wantRows := rowify(t, want)

		for _, emt := range []int{1, 2, 4, 8} {
			for _, ra := range []int{-1, 0, 2} {
				opt := base
				opt.SpillDir = t.TempDir()
				opt.ReadAhead, opt.ExtMergeThreads = ra, emt
				got, st := budgetedSort(t, in.tbl, in.keys, opt)
				if !bytes.Equal(rowify(t, got).Bytes(), wantRows.Bytes()) {
					t.Errorf("%s: merge threads=%d readahead=%d: output differs from sequential merge",
						in.name, emt, ra)
				}
				if emt >= 2 && st.ExtMergeParts < 2 {
					t.Errorf("%s: merge threads=%d: final merge ran on %d partitions, want >= 2",
						in.name, emt, st.ExtMergeParts)
				}
				if in.blockRows > 0 && st.SpillBlocksFrontCoded == 0 {
					t.Errorf("%s: merge threads=%d: no spill block was front-coded", in.name, emt)
				}
				if ra >= 0 && st.PrefetchedBlocks == 0 {
					t.Errorf("%s: readahead=%d: no blocks prefetched", in.name, ra)
				}
				if ra < 0 && st.PrefetchedBlocks != 0 {
					t.Errorf("%s: readahead disabled but %d blocks prefetched", in.name, st.PrefetchedBlocks)
				}
				if st.PrefetchHits > st.PrefetchedBlocks {
					t.Errorf("%s: read-ahead hits %d exceed prefetched blocks %d",
						in.name, st.PrefetchHits, st.PrefetchedBlocks)
				}
			}
		}
	}
}

// TestParallelSinkMatchesSink checks the streaming parallel ingest: a
// single producer feeding a ParallelSink yields the same table as a plain
// Sink at every worker count, in memory and with eager spilling.
func TestParallelSinkMatchesSink(t *testing.T) {
	tbl := mixedTable(3*vector.DefaultVectorSize+99, 103)
	want := sortWith(t, tbl, parallelTestKeys, Options{Threads: 1, RunSize: 700})
	wantRows := rowify(t, want)
	for _, threads := range []int{1, 2, 4, 8} {
		for _, spill := range []bool{false, true} {
			opt := Options{Threads: threads, RunSize: 700}
			if spill {
				opt.SpillDir = t.TempDir()
			}
			got, _ := parallelSort(t, tbl, parallelTestKeys, opt)
			if !bytes.Equal(rowify(t, got).Bytes(), wantRows.Bytes()) {
				t.Errorf("threads=%d spill=%v: ParallelSink output differs from Sink", threads, spill)
			}
		}
	}
}

// TestParallelSinkErrorPropagation checks a failing chunk poisons the
// group: the error surfaces from Close (or an earlier Append), later
// Appends refuse, and Close stays idempotent.
func TestParallelSinkErrorPropagation(t *testing.T) {
	tbl := mixedTable(2*vector.DefaultVectorSize, 104)
	s, err := NewSorter(tbl.Schema, parallelTestKeys, Options{Threads: 4, RunSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := s.NewParallelSink()
	bad := vector.NewChunk(tbl.Schema[:2], 1)
	bad.Vectors[0].AppendInt32(1)
	bad.Vectors[1].AppendInt16(2)
	var appendErr error
	for _, c := range []*vector.Chunk{tbl.Chunks[0], bad, tbl.Chunks[1]} {
		if err := sink.Append(c); err != nil {
			appendErr = err
			break
		}
	}
	closeErr := sink.Close()
	if appendErr == nil && closeErr == nil {
		t.Fatal("bad chunk produced no error from Append or Close")
	}
	if again := sink.Close(); again != closeErr {
		t.Errorf("second Close() = %v, want the same %v", again, closeErr)
	}
	if err := sink.Append(tbl.Chunks[0]); err == nil {
		t.Error("Append after Close succeeded")
	}
}

// TestParallelStreamCancellation abandons a budgeted streaming merge — with
// parallel ingest and read-ahead goroutines live — mid-stream: Close must
// still stop the prefetchers, delete every spill file, and return every
// broker byte.
func TestParallelStreamCancellation(t *testing.T) {
	tbl := mixedTable(6*vector.DefaultVectorSize, 105)
	broker := mem.NewBroker("cancel", 48<<10)
	s, err := NewSorter(tbl.Schema, parallelTestKeys,
		Options{Threads: 4, RunSize: 700, Broker: broker})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := s.NewParallelSink()
	for _, c := range tbl.Chunks {
		if err := sink.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !s.streamMerge {
		t.Fatal("48KiB budget did not defer the final merge to the iterator")
	}

	it, err := s.Rows()
	if err != nil {
		t.Fatal(err)
	}
	// One chunk in, the merge (and its prefetch goroutines) is mid-flight;
	// walk away.
	if chunk, err := it.Next(); err != nil || chunk == nil {
		t.Fatalf("first streamed chunk: %v, %v", chunk, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	tmp := s.spillTmpDir
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if tmp != "" {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("spill dir %s survived Close after abandoned merge", tmp)
		}
	}
	if used := broker.Used(); used != 0 {
		t.Errorf("broker holds %d bytes after Close, want 0", used)
	}
}

// TestMultiPassMergePlanRecorded forces intermediate merge passes with a
// budget far below fan-in × healthy blocks and checks the plan lands in
// the stats: passes ran, the final fan-in obeys the plan, and the output
// still matches the unbudgeted sort.
func TestMultiPassMergePlanRecorded(t *testing.T) {
	tbl := mixedTable(40_000, 106)
	want := sortWith(t, tbl, parallelTestKeys, Options{Threads: 1, RunSize: 600,
		SpillDir: t.TempDir(), ReadAhead: -1, ExtMergeThreads: 1})
	wantRows := rowify(t, want)

	broker := mem.NewBroker("multipass", 64<<10)
	opt := Options{Threads: 2, RunSize: 600, Broker: broker}
	got, st := parallelSort(t, tbl, parallelTestKeys, opt)
	if st.MergePasses == 0 {
		t.Fatalf("64KiB budget over %d runs forced no intermediate merge passes: %+v",
			st.RunsGenerated, st)
	}
	if st.MergePassRuns < 2*st.MergePasses {
		t.Errorf("%d merge passes consumed only %d runs", st.MergePasses, st.MergePassRuns)
	}
	if st.MergePassBytes == 0 {
		t.Error("merge passes rewrote no bytes")
	}
	if !bytes.Equal(rowify(t, got).Bytes(), wantRows.Bytes()) {
		t.Error("multi-pass merge output differs from single-pass sort")
	}
	if used := broker.Used(); used != 0 {
		t.Errorf("broker holds %d bytes after Close, want 0", used)
	}
}
