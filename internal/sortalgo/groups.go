package sortalgo

import (
	"bytes"
	"encoding/binary"
)

// Duplicate-run (RLE) group sorting: when a run is duplicate-heavy, sorting
// one representative row per adjacent equal-key group and then expanding the
// groups moves each distinct key through the sort once instead of once per
// row (the DuckDB RLESort idea). The caller sorts the representative rows
// with any STABLE byte sort on the keyWidth prefix; stability makes the
// expanded output byte-identical to a stable sort of the original rows —
// equal-key groups land in first-appearance order, exactly where a stable
// row-at-a-time sort would put their rows.
//
// Only valid when the keyWidth prefix is byte-decisive (no tie-break):
// grouping byte-equal rows assumes byte equality is row-order equality.

// GroupTagBytes is the representative-row payload: a little-endian uint32
// start index and uint32 row count appended after the key prefix. The tags
// ride through the byte sort untouched, like any row payload.
const GroupTagBytes = 8

// CollectDupGroupsMin scans the run for adjacent groups of rows byte-equal
// on their keyWidth prefix and, when the run is duplicate-heavy enough to
// profit (adjacent groups averaging at least minAvg rows each), returns one
// representative row per group: the group's key prefix followed by its
// start index and row count. ok is false when grouping would not pay,
// including runs too large for 32-bit tags. A sampled planner that is
// confident the run is duplicate-heavy can relax the bar below two;
// minAvg <= 1 accepts any grouping.
func CollectDupGroupsMin(data []byte, rowWidth, keyWidth int, minAvg float64) (reps []byte, groups int, ok bool) {
	n := len(data) / rowWidth
	if n < 2 || keyWidth <= 0 || n > 1<<31 {
		return nil, 0, false
	}
	limit := n
	if minAvg > 1 {
		limit = int(float64(n) / minAvg)
	}
	groups = 1
	for i := 1; i < n; i++ {
		if !bytes.Equal(data[(i-1)*rowWidth:(i-1)*rowWidth+keyWidth], data[i*rowWidth:i*rowWidth+keyWidth]) {
			groups++
			if groups > limit {
				return nil, 0, false
			}
		}
	}
	repWidth := keyWidth + GroupTagBytes
	reps = make([]byte, groups*repWidth)
	g := 0
	start := 0
	emit := func(end int) {
		rep := reps[g*repWidth:]
		copy(rep[:keyWidth], data[start*rowWidth:start*rowWidth+keyWidth])
		binary.LittleEndian.PutUint32(rep[keyWidth:], uint32(start))
		binary.LittleEndian.PutUint32(rep[keyWidth+4:], uint32(end-start))
		g++
		start = end
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(data[(i-1)*rowWidth:(i-1)*rowWidth+keyWidth], data[i*rowWidth:i*rowWidth+keyWidth]) {
			emit(i)
		}
	}
	emit(n)
	return reps, groups, true
}

// ExpandDupGroups rebuilds the sorted run in dst from sorted representative
// rows: each group's rows are copied contiguously, in their original
// within-group order, from src. dst and src must not overlap and both hold
// the full run.
func ExpandDupGroups(dst, src []byte, rowWidth int, reps []byte, keyWidth int) {
	repWidth := keyWidth + GroupTagBytes
	out := 0
	for g := 0; g+repWidth <= len(reps); g += repWidth {
		start := int(binary.LittleEndian.Uint32(reps[g+keyWidth:]))
		count := int(binary.LittleEndian.Uint32(reps[g+keyWidth+4:]))
		out += copy(dst[out:], src[start*rowWidth:(start+count)*rowWidth])
	}
}
