package main

import (
	"testing"

	"rowsort/internal/core"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// sortedCatalogSales returns a small catalog_sales input, its sorted
// output and the checker's expectation.
func sortedCatalogSales(t *testing.T) (*vector.Table, expectation) {
	t.Helper()
	in := workload.CatalogSales(5000, 10, 7)
	out, err := core.SortTable(in, csKeys, core.Options{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	return out, expect(in, csKeys)
}

// rebuild copies the rows of t, in the order given, into fresh chunks.
func rebuild(t *vector.Table, order []int) []*vector.Chunk {
	src := make([]*vector.Vector, len(t.Schema))
	for c := range src {
		src[c] = t.Column(c)
	}
	var out []*vector.Chunk
	for start := 0; start < len(order); start += vector.DefaultVectorSize {
		part := order[start:min(start+vector.DefaultVectorSize, len(order))]
		c := vector.NewChunk(t.Schema, len(part))
		for col, v := range c.Vectors {
			for _, r := range part {
				vector.AppendValue(v, src[col], r)
			}
		}
		out = append(out, c)
	}
	return out
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func TestCheckAcceptsSortedOutput(t *testing.T) {
	out, want := sortedCatalogSales(t)
	if err := want.check(out.Chunks); err != nil {
		t.Fatalf("sorted output rejected: %v", err)
	}
	if err := want.check(rebuild(out, identity(out.NumRows()))); err != nil {
		t.Fatalf("rebuilt sorted output rejected: %v", err)
	}
}

func TestCheckFlagsCorruptOutput(t *testing.T) {
	out, want := sortedCatalogSales(t)
	n := out.NumRows()

	// The first and last rows have different keys, so swapping them
	// breaks the order but keeps the row multiset.
	swapped := identity(n)
	swapped[0], swapped[n-1] = swapped[n-1], swapped[0]
	dropped := append(identity(n)[:10:10], identity(n)[11:]...)
	// Row 10 twice and the last row missing: count and order hold, only
	// the row hash can tell.
	duplicated := append(identity(n)[:11:11], identity(n)[10:n-1]...)

	for name, order := range map[string][]int{"swapped rows": swapped, "dropped row": dropped, "duplicated row": duplicated} {
		if err := want.check(rebuild(out, order)); err == nil {
			t.Errorf("%s: corrupt output accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
