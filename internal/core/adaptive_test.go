package core

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"rowsort/internal/obs"
	"rowsort/internal/workload"
)

func TestAdaptiveSortCorrectness(t *testing.T) {
	// The planner must never affect the result, only the algorithm.
	for _, dist := range []workload.Dist{{Random: true}, {P: 1}} {
		cols := dist.Generate(8_000, 2, 143)
		tbl := workload.UintColumnsTable(cols)
		keys := []SortColumn{{Column: 0}, {Column: 1}}
		got, err := SortTable(tbl, keys, Options{Threads: 2, RunSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, tbl, got, keys, "adaptive "+dist.String())
	}
	// Presorted input exercises the planner's pdqsort branch.
	n := 8000
	sortedVals := make([]uint32, n)
	for i := range sortedVals {
		sortedVals[i] = uint32(i)
	}
	tbl := workload.UintColumnsTable([][]uint32{sortedVals})
	keys := []SortColumn{{Column: 0}}
	got, err := SortTable(tbl, keys, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "adaptive presorted")
}

// TestStrategyDecisionsRecorded pins the decision log's shape: one entry
// per generated run on every path (planned and forced), run ids unique and
// in range, algorithms named, and sampled statistics present exactly when
// the plan was sampled rather than dictated.
func TestStrategyDecisionsRecorded(t *testing.T) {
	cols := workload.Dist{Random: true}.Generate(8_000, 2, 144)
	tbl := workload.UintColumnsTable(cols)
	keys := []SortColumn{{Column: 0}, {Column: 1}}

	for _, tc := range []struct {
		name   string
		opt    Options
		forced string // expected Forced value, "" = sampled plan
	}{
		{"planned", Options{Threads: 2, RunSize: 1000}, ""},
		{"forced pdqsort", Options{ForcePdqsort: true, Threads: 2, RunSize: 1000}, "option"},
	} {
		_, st, err := SortTableStats(tbl, keys, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(st.StrategyDecisions)) != st.RunsGenerated {
			t.Fatalf("%s: %d decisions for %d runs", tc.name, len(st.StrategyDecisions), st.RunsGenerated)
		}
		seen := map[int]bool{}
		for _, d := range st.StrategyDecisions {
			if seen[d.Run] || d.Run < 0 || d.Run >= int(st.RunsGenerated) {
				t.Fatalf("%s: bad or duplicate run id %d", tc.name, d.Run)
			}
			seen[d.Run] = true
			if d.Algo == "" || d.Rows <= 0 {
				t.Fatalf("%s: incomplete decision %+v", tc.name, d)
			}
			if d.Forced != tc.forced {
				t.Fatalf("%s: forced = %q, want %q", tc.name, d.Forced, tc.forced)
			}
			if tc.forced == "" && (d.MergeRole == "" || d.RadixCost <= 0 || d.PdqCost <= 0) {
				t.Fatalf("%s: sampled decision missing statistics: %+v", tc.name, d)
			}
		}
	}
}

// TestAdaptiveDupGroupWithoutRLE verifies the planner reaches the
// duplicate-group sort from its own sampled statistics, with no
// configuration bit gating it.
func TestAdaptiveDupGroupWithoutRLE(t *testing.T) {
	n := 16_000
	vals := make([]uint32, n) // sorted, 64-row duplicate groups: DupRunFrac ~ 63/64
	for i := range vals {
		vals[i] = uint32(i / 64)
	}
	tbl := workload.UintColumnsTable([][]uint32{vals})
	keys := []SortColumn{{Column: 0}}
	got, st, err := SortTableStats(tbl, keys, Options{Threads: 1, RunSize: 2000})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "adaptive dup-heavy")
	if st.RunsGroupSorted == 0 {
		t.Fatal("no run used the duplicate-group sort")
	}
	grouped := 0
	for _, d := range st.StrategyDecisions {
		if d.Algo == "dup-group" {
			grouped++
			if d.DupRunFrac < 0.5 {
				t.Fatalf("dup-group chosen at DupRunFrac %.2f", d.DupRunFrac)
			}
			if d.MergeRole != "dup-heavy" {
				t.Fatalf("dup-heavy run got merge role %q", d.MergeRole)
			}
			if !d.FrontCode {
				t.Fatal("dup-heavy run did not enable spill front-coding")
			}
		}
	}
	if int64(grouped) != st.RunsGroupSorted {
		t.Fatalf("%d dup-group decisions but %d grouped runs", grouped, st.RunsGroupSorted)
	}
}

// TestAdaptiveFrontCodedSpillMatchesResident is the format-3 round trip:
// an external sort (front-coded spill blocks) must produce exactly the rows
// of the same sort run fully in memory — once with eager spilling (run cuts
// and planner inputs identical: one thread, fixed run size) and once under
// a memory budget tight enough to force intermediate merge passes, which
// decode the spilled blocks and write their merged runs in the same format.
func TestAdaptiveFrontCodedSpillMatchesResident(t *testing.T) {
	n := 20_000
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i / 32)
	}
	tbl := workload.UintColumnsTable([][]uint32{vals})
	keys := []SortColumn{{Column: 0}}
	base := Options{Threads: 1, RunSize: 1500}

	resident, err := SortTable(tbl, keys, base)
	if err != nil {
		t.Fatal(err)
	}
	eager := base
	eager.SpillDir = t.TempDir()
	budgeted := base
	budgeted.RunSize = 500
	budgeted.MemoryLimit = 24 << 10
	for _, tc := range []struct {
		name      string
		opt       Options
		multiPass bool
	}{
		{"eager", eager, false},
		{"multi-pass", budgeted, true},
	} {
		spilled, st := budgetedSort(t, tbl, keys, tc.opt)
		if st.SpillBlocksFrontCoded == 0 {
			t.Fatalf("%s: no spill block was front-coded; the round trip was not exercised", tc.name)
		}
		if tc.multiPass && st.MergePasses == 0 {
			t.Fatalf("%s: budget forced no intermediate merge pass", tc.name)
		}
		if resident.NumRows() != spilled.NumRows() {
			t.Fatalf("%s: row counts differ: %d resident, %d spilled", tc.name, resident.NumRows(), spilled.NumRows())
		}
		rc, sc := resident.Column(0), spilled.Column(0)
		for i := 0; i < resident.NumRows(); i++ {
			if rc.Value(i) != sc.Value(i) {
				t.Fatalf("%s: row %d differs: resident %v, spilled %v", tc.name, i, rc.Value(i), sc.Value(i))
			}
		}
	}
}

// TestAdaptiveRunSnapshotCarriesStrategy wires the decision log through the
// observability registry: the run's HTTP snapshot must list the decisions,
// and the Prometheus export must carry the per-algorithm run counts.
func TestAdaptiveRunSnapshotCarriesStrategy(t *testing.T) {
	cols := workload.Dist{Random: true}.Generate(6_000, 1, 145)
	tbl := workload.UintColumnsTable(cols)
	keys := []SortColumn{{Column: 0}}

	reg := obs.NewRegistry(0)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	_, st, err := SortTableStats(tbl, keys, Options{
		Threads: 1, RunSize: 1000,
		Registry: reg, RunLabel: "adaptive-snap",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.StrategyDecisions) == 0 {
		t.Fatal("no decisions recorded")
	}

	snaps := reg.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("registry holds %d runs, want 1", len(snaps))
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/rowsort/run?id=" + snaps[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Strategy []obs.StrategyDecision `json:"strategy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Strategy) != len(st.StrategyDecisions) {
		t.Fatalf("snapshot carries %d decisions, stats %d", len(snap.Strategy), len(st.StrategyDecisions))
	}
	for i, d := range snap.Strategy {
		if d != st.StrategyDecisions[i] {
			t.Fatalf("decision %d differs: snapshot %+v, stats %+v", i, d, st.StrategyDecisions[i])
		}
	}

	var prom strings.Builder
	if err := st.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus([]byte(prom.String())); err != nil {
		t.Fatalf("invalid Prometheus output: %v", err)
	}
	want := fmt.Sprintf("rowsort_strategy_runs_total{algo=%q}", st.StrategyDecisions[0].Algo)
	if !strings.Contains(prom.String(), want) {
		t.Fatalf("Prometheus output missing %s", want)
	}
}
