package sortalgo

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// dupRows builds n rows of width rowWidth whose keyWidth prefix is drawn
// from a small domain (duplicate-heavy) and whose payload is a unique tag.
func dupRows(n, rowWidth, keyWidth int, domain uint32, rng *rand.Rand) []byte {
	data := make([]byte, n*rowWidth)
	for i := 0; i < n; i++ {
		row := data[i*rowWidth:]
		binary.BigEndian.PutUint32(row, rng.Uint32()%domain)
		binary.BigEndian.PutUint32(row[rowWidth-4:], uint32(i))
	}
	return data
}

func TestDupGroupsMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const rowWidth, keyWidth = 16, 4
	for _, tc := range []struct {
		n      int
		domain uint32
	}{
		{500, 5}, {1000, 20}, {64, 1}, {2, 1},
	} {
		data := dupRows(tc.n, rowWidth, keyWidth, tc.domain, rng)
		// Pre-cluster so adjacent duplicates exist (ingest order often has
		// them; the collector only groups adjacent equals).
		stableByKey(data, rowWidth, keyWidth)
		want := append([]byte(nil), data...)

		reps, groups, ok := CollectDupGroupsMin(data, rowWidth, keyWidth, 2)
		if !ok {
			t.Fatalf("n=%d domain=%d: expected grouping to engage", tc.n, tc.domain)
		}
		if groups > tc.n/2 && tc.n > 2 {
			t.Fatalf("n=%d domain=%d: %d groups exceed density bound", tc.n, tc.domain, groups)
		}
		// Scramble group order, stable-sort reps by key, expand, compare.
		repWidth := keyWidth + GroupTagBytes
		rng.Shuffle(groups, func(i, j int) {
			for b := 0; b < repWidth; b++ {
				reps[i*repWidth+b], reps[j*repWidth+b] = reps[j*repWidth+b], reps[i*repWidth+b]
			}
		})
		stableByKey(reps, repWidth, keyWidth)
		dst := make([]byte, len(data))
		ExpandDupGroups(dst, data, rowWidth, reps, keyWidth)
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d domain=%d: expansion differs from stable sort", tc.n, tc.domain)
		}
	}
}

func TestDupGroupsDeclineSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const rowWidth, keyWidth = 16, 4
	// Near-unique keys: grouping cannot pay and must decline.
	data := dupRows(4000, rowWidth, keyWidth, 1<<31, rng)
	if _, _, ok := CollectDupGroupsMin(data, rowWidth, keyWidth, 2); ok {
		t.Fatal("grouping engaged on near-unique keys")
	}
	if _, _, ok := CollectDupGroupsMin(data[:rowWidth], rowWidth, keyWidth, 2); ok {
		t.Fatal("grouping engaged on a single row")
	}
}

// stableByKey is the test oracle: a stable sort on the keyWidth prefix.
func stableByKey(data []byte, rowWidth, keyWidth int) {
	n := len(data) / rowWidth
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = append([]byte(nil), data[i*rowWidth:(i+1)*rowWidth]...)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return bytes.Compare(rows[i][:keyWidth], rows[j][:keyWidth]) < 0
	})
	for i, r := range rows {
		copy(data[i*rowWidth:], r)
	}
}
