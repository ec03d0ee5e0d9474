package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "sort", sort: 1, parent: -1, start: 0, end: 100},
		{name: "core.append", sort: 1, parent: 0, start: 10, end: 30, lane: 1},
		{name: "core.append", sort: 1, parent: 0, start: 20, end: 50, lane: 2}, // overlaps the first
		{name: "core.finalize", sort: 1, parent: 0, start: 60, end: 70},
		{name: "core.close", sort: 1, parent: 0, start: 95, end: 120}, // clipped to the parent
	}}
	got := tr.bySort()[1]
	if self := got["sort"].self; self != 100-40-10-5 {
		t.Errorf("sort self time = %v, want 45ns", self)
	}
	if a := got["core.append"]; a.dur != 50*time.Nanosecond || a.self != a.dur || a.calls != 2 {
		t.Errorf("core.append = %+v, want 50ns busy, all self, 2 calls", a)
	}
}
