package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"rowsort/internal/core"
	"rowsort/internal/vector"
)

// The output checker works on Go values only: it shares no code with the
// sorter's normalized keys, so an encoding bug cannot hide itself.

// expectation is what every sort of one input must produce.
type expectation struct {
	schema vector.Schema
	keys   []core.SortColumn
	rows   int
	hash   uint64 // order-independent hash of all full rows
}

func expect(t *vector.Table, keys []core.SortColumn) expectation {
	return expectation{schema: t.Schema, keys: keys, rows: t.NumRows(), hash: tableHash(t.Chunks)}
}

// check verifies a sort's output: the row count, key order between every
// pair of adjacent rows (across chunk boundaries), and the multiset of
// full rows through an order-independent hash.
func (e expectation) check(out []*vector.Chunk) error {
	rows := 0
	var prev []keyCol
	for ci, c := range out {
		if len(c.Vectors) != len(e.schema) {
			return fmt.Errorf("chunk %d has %d columns, want %d", ci, len(c.Vectors), len(e.schema))
		}
		if c.Len() == 0 {
			continue
		}
		cur := keyCols(e.keys, c)
		if prev != nil && compareKeys(prev, prev[0].v.Len()-1, cur, 0) > 0 {
			return fmt.Errorf("rows %d and %d out of order", rows-1, rows)
		}
		for r := 1; r < c.Len(); r++ {
			if compareKeys(cur, r-1, cur, r) > 0 {
				return fmt.Errorf("rows %d and %d out of order", rows+r-1, rows+r)
			}
		}
		rows += c.Len()
		prev = cur
	}
	if rows != e.rows {
		return fmt.Errorf("output has %d rows, input %d", rows, e.rows)
	}
	if h := tableHash(out); h != e.hash {
		return fmt.Errorf("output rows differ from input rows (hash %x, want %x)", h, e.hash)
	}
	return nil
}

// keyCol is one chunk's sort-key column with its typed values resolved.
type keyCol struct {
	v               *vector.Vector
	i32             []int32
	i64             []int64
	str             []string
	desc, nullsLast bool
}

// keyCols resolves a chunk's sort-key columns once, for compareKeys.
func keyCols(keys []core.SortColumn, c *vector.Chunk) []keyCol {
	kc := make([]keyCol, len(keys))
	for i, k := range keys {
		v := c.Vectors[k.Column]
		kc[i] = keyCol{v: v, desc: k.Descending, nullsLast: k.NullsLast}
		switch v.Type() {
		case vector.Int32:
			kc[i].i32 = v.Int32s()
		case vector.Int64:
			kc[i].i64 = v.Int64s()
		case vector.Varchar:
			kc[i].str = v.Strings()
		default:
			panic(fmt.Sprintf("perfbench: no comparator for %v keys", v.Type()))
		}
	}
	return kc
}

// compareKeys orders row i of a against row j of b: each key ASC or DESC,
// NULLs first unless NullsLast, strings compared in full.
func compareKeys(a []keyCol, i int, b []keyCol, j int) int {
	for k := range a {
		ka, kb := &a[k], &b[k]
		na, nb := !ka.v.Valid(i), !kb.v.Valid(j)
		if na || nb {
			if na == nb {
				continue
			}
			if na != ka.nullsLast {
				return -1
			}
			return 1
		}
		var c int
		switch {
		case ka.i32 != nil:
			c = cmp.Compare(ka.i32[i], kb.i32[j])
		case ka.i64 != nil:
			c = cmp.Compare(ka.i64[i], kb.i64[j])
		default:
			c = strings.Compare(ka.str[i], kb.str[j])
		}
		if ka.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// tableHash sums a 64-bit hash of every full row, so it ignores row order
// but changes when a row is dropped, duplicated or altered.
func tableHash(chunks []*vector.Chunk) uint64 {
	var sum uint64
	var rowH, vals []uint64
	for _, c := range chunks {
		n := c.Len()
		rowH = slices.Grow(rowH[:0], n)[:n]
		clear(rowH)
		for col, v := range c.Vectors {
			vals = columnHashes(vals, v)
			salt := uint64(col+1) << 56
			for r, h := range vals {
				rowH[r] = mix(rowH[r] ^ salt ^ h)
			}
		}
		for _, h := range rowH {
			sum += h
		}
	}
	return sum
}

// columnHashes hashes every value of v into dst, NULL distinct from every
// value.
func columnHashes(dst []uint64, v *vector.Vector) []uint64 {
	n := v.Len()
	dst = slices.Grow(dst[:0], n)[:n]
	switch v.Type() {
	case vector.Int32:
		for r, x := range v.Int32s() {
			dst[r] = uint64(uint32(x))
		}
	case vector.Int64:
		for r, x := range v.Int64s() {
			dst[r] = uint64(x)
		}
	case vector.Varchar:
		for r, s := range v.Strings() {
			h := uint64(14695981039346656037) // FNV-1a
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * 1099511628211
			}
			dst[r] = h
		}
	default:
		panic(fmt.Sprintf("perfbench: no hash for %v columns", v.Type()))
	}
	if v.Validity() != nil {
		for r := range dst {
			if !v.Valid(r) {
				dst[r] = math.MaxUint64
			}
		}
	}
	return dst
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
