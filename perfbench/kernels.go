package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/mergepath"
	"rowsort/internal/normkey"
	"rowsort/internal/radix"
	"rowsort/internal/sortalgo"
	"rowsort/internal/vector"
)

// kernelRun is one pass of the layer kernels over a workload's input: the
// normalized-key encoder, both run sorts and the k-way merge, each called
// directly on runs cut the way core cuts them (core.DefaultRunSize rows).
type kernelRun struct {
	rows        int
	encode      time.Duration
	radix       time.Duration
	radixPasses int
	runs        int
	pdqsort     time.Duration
	merge       time.Duration
	mergeStats  mergepath.Stats
	err         error
}

// kernels holds what the kernel pass needs that does not change between
// passes over one input.
type kernels struct {
	enc   *normkey.Encoder
	keyW  int // normalized key bytes
	rowW  int // key row stride: key plus a 4-byte row index, 8-aligned
	safeW int // prefix over which byte order is the sort order
	ties  bool
	cols  [][]keyCol // the input chunks' key columns, for the tie-break
}

func newKernels(b *bench, in *input) (*kernels, error) {
	nk := make([]normkey.SortKey, len(b.keys))
	for i, k := range b.keys {
		if k.Descending || k.NullsLast || k.CaseInsensitive || k.PrefixLen != 0 {
			return nil, fmt.Errorf("%s: kernels support only default ASC NULLS FIRST keys", b.name)
		}
		nk[i] = normkey.SortKey{Column: k.Column, Type: in.table.Schema[k.Column].Type}
	}
	enc, err := normkey.NewEncoder(nk)
	if err != nil {
		return nil, err
	}
	kr := &kernels{enc: enc, keyW: enc.Width()}
	for _, c := range in.table.Chunks {
		kr.cols = append(kr.cols, keyCols(b.keys, c))
	}
	kr.rowW = (kr.keyW + 4 + 7) &^ 7
	kr.safeW = kr.keyW
	// As in core: past the first segment that can tie (a truncated string
	// prefix) byte order no longer decides, so bytes are compared only up
	// to its end and byte-equal rows fall to the full-value tie-break.
	for i := range nk {
		if enc.SegCanTie(i) {
			kr.ties = true
			if i+1 < len(nk) {
				kr.safeW = enc.Offset(i + 1)
			}
			break
		}
	}
	return kr, nil
}

// rowIndex reads the input row index stored behind a key row's key bytes.
func (kr *kernels) rowIndex(row []byte) int {
	return int(binary.LittleEndian.Uint32(row[kr.keyW:]))
}

// tie compares two key rows on the full Go values of their input rows.
func (kr *kernels) tie(a, b []byte) int {
	ia, ib := kr.rowIndex(a), kr.rowIndex(b)
	const sz = vector.DefaultVectorSize
	return compareKeys(kr.cols[ia/sz], ia%sz, kr.cols[ib/sz], ib%sz)
}

// compare is the run sort's and the check's order: memcmp over the safe
// prefix, then the tie-break when keys can tie.
func (kr *kernels) compare(a, b []byte) int {
	if c := bytes.Compare(a[:kr.safeW], b[:kr.safeW]); c != 0 || !kr.ties {
		return c
	}
	return kr.tie(a, b)
}

// run makes one kernel pass, recording a span around every kernel call.
func (kr *kernels) run(tr *tracer) kernelRun {
	id := tr.newSort()
	root := tr.begin(id, "kernels", -1, 0)
	defer tr.end(root)
	var k kernelRun
	per := core.DefaultRunSize / vector.DefaultVectorSize
	var sorted []mergepath.Run
	for first := 0; first < len(kr.cols); first += per {
		chunks := kr.cols[first:min(first+per, len(kr.cols))]
		n := 0
		for _, kc := range chunks {
			n += kc[0].v.Len()
		}
		keys := make([]byte, n*kr.rowW)
		off := 0
		cols := make([]*vector.Vector, len(kr.cols[0]))
		for _, kc := range chunks {
			for i := range kc {
				cols[i] = kc[i].v
			}
			sp := tr.begin(id, "normkey.encode", root, 0)
			t := time.Now()
			_, err := kr.enc.EncodeChunk(cols, keys[off*kr.rowW:], kr.rowW, 0)
			k.encode += time.Since(t)
			tr.end(sp)
			if err != nil {
				k.err = err
				return k
			}
			for r := 0; r < kc[0].v.Len(); r++ {
				binary.LittleEndian.PutUint32(keys[(off+r)*kr.rowW+kr.keyW:], uint32(k.rows+off+r))
			}
			off += kc[0].v.Len()
		}
		pdq := bytes.Clone(keys)

		sp := tr.begin(id, "radix.sort", root, 0)
		t := time.Now()
		st := radix.Sort(keys, kr.rowW, kr.keyW)
		k.radix += time.Since(t)
		tr.end(sp)
		k.radixPasses += st.Passes
		if err := kr.ordered(keys, func(a, b []byte) int { return bytes.Compare(a[:kr.keyW], b[:kr.keyW]) }); err != nil {
			k.err = fmt.Errorf("radix.Sort: %w", err)
			return k
		}

		rows := sortalgo.NewRows(pdq, kr.rowW)
		rows.Compare = kr.compare
		sp = tr.begin(id, "sortalgo.pdqsort", root, 0)
		t = time.Now()
		rows.Pdqsort()
		k.pdqsort += time.Since(t)
		tr.end(sp)
		sorted = append(sorted, mergepath.Run{Data: pdq, Width: kr.rowW})
		k.rows += n
		k.runs++
	}
	for i, r := range sorted {
		if err := kr.ordered(r.Data, kr.compare); err != nil {
			k.err = fmt.Errorf("pdqsort run %d: %w", i, err)
			return k
		}
	}

	var tie mergepath.CompareFunc
	if kr.ties {
		tie = kr.tie
	}
	dst := make([]byte, k.rows*kr.rowW)
	sp := tr.begin(id, "mergepath.kway", root, 0)
	t := time.Now()
	k.mergeStats = mergepath.ParallelKWayMerge(dst, sorted, kr.safeW, tie, threads, true)
	k.merge = time.Since(t)
	tr.end(sp)
	if err := kr.ordered(dst, kr.compare); err != nil {
		k.err = fmt.Errorf("ParallelKWayMerge: %w", err)
	}
	return k
}

// ordered checks that adjacent key rows are non-decreasing under cmp.
func (kr *kernels) ordered(data []byte, cmp func(a, b []byte) int) error {
	for i := kr.rowW; i < len(data); i += kr.rowW {
		if cmp(data[i-kr.rowW:i], data[i:i+kr.rowW]) > 0 {
			return fmt.Errorf("rows %d and %d out of order", i/kr.rowW-1, i/kr.rowW)
		}
	}
	return nil
}
