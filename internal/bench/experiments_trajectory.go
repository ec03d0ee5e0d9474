package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func init() {
	register("trajectory", "Perf trajectory: pinned workload suite for regression tracking",
		runTrajectory)
}

// TrajectorySchema identifies the report format; benchdiff refuses to
// compare reports whose schemas differ.
const TrajectorySchema = "rowsort-bench/v1"

// TrajectoryReport is the machine-readable output of the trajectory
// experiment (BENCH_sort.json). It deliberately carries no timestamps or
// host identifiers so a committed baseline stays diff-stable: rerunning at
// the same scale/seed on the same code changes only what the code changed.
type TrajectoryReport struct {
	Schema    string               `json:"schema"`
	Scale     string               `json:"scale"`
	Threads   int                  `json:"threads"`
	Seed      uint64               `json:"seed"`
	Workloads []TrajectoryWorkload `json:"workloads"`
}

// TrajectoryWorkload is one pinned workload's measurements. Deterministic
// reports whether the byte and count metrics are exact functions of the
// code at this scale/seed (no memory budget, static chunk distribution);
// benchdiff gates those tightly and only applies its noise thresholds to
// wall time and peak memory.
type TrajectoryWorkload struct {
	Name              string  `json:"name"`
	Deterministic     bool    `json:"deterministic"`
	Rows              int64   `json:"rows"`
	WallNs            int64   `json:"wall_ns"`
	NsPerRow          float64 `json:"ns_per_row"`
	PeakResidentBytes int64   `json:"peak_resident_bytes"`
	SpillBytesWritten int64   `json:"spill_bytes_written"`
	NormKeyBytes      int64   `json:"norm_key_bytes"`
	PhysKeyBytes      int64   `json:"phys_key_bytes"`
	RunsGenerated     int64   `json:"runs_generated"`
	MergePasses       int64   `json:"merge_passes"`
}

// trajectoryThreads pins the suite's parallelism so runs_generated and the
// spill byte counters are machine-independent (sortTable's static
// round-robin chunk distribution makes them deterministic at fixed
// Threads/RunSize/Seed).
const trajectoryThreads = 2

func (c Config) trajectoryRows() int {
	switch c.Scale {
	case ScaleTiny:
		return 1 << 13
	case ScalePaper:
		return 1 << 21
	default:
		return 1 << 17
	}
}

// trajectoryWorkload is one pinned suite entry: a generated input, sort
// options, and whether its byte/count metrics are deterministic.
type trajectoryWorkload struct {
	name          string
	deterministic bool
	tbl           *vector.Table
	keys          []core.SortColumn
	opt           core.Options
}

// trajectoryWorkloads builds the pinned suite. One workload per key-
// compression arm on the input shape it targets, a uniform int64 control,
// an eagerly spilled external sort (byte counters exact), and a budgeted
// multi-pass sort (pressure-driven spill is timing-dependent, so only its
// wall/peak are gated, loosely).
func (c Config) trajectoryWorkloads(spillDir string) []trajectoryWorkload {
	n := c.trajectoryRows()
	seed := c.seed()
	runSize := n / 8
	base := core.Options{Threads: trajectoryThreads, RunSize: runSize}
	opt := func(mod func(*core.Options)) core.Options {
		o := base
		if mod != nil {
			mod(&o)
		}
		return o
	}
	col0 := []core.SortColumn{{Column: 0}}
	return []trajectoryWorkload{
		{"uniform-int64", true, workload.UniformInt64s(n, seed), col0, opt(nil)},
		{"lowcard-dict", true, workload.LowCardStrings(n, 40, seed), col0,
			opt(func(o *core.Options) { o.KeyComp = core.KeyCompDict })},
		{"prefix-trunc", true, workload.SharedPrefixStrings(n, seed), col0,
			opt(func(o *core.Options) { o.KeyComp = core.KeyCompTrunc })},
		{"dup-rle", true, workload.DupHeavyInts(n, 500, seed), col0, opt(nil)},
		{"spill-ext", true, workload.CatalogSales(n, 10, seed),
			[]core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}},
			opt(func(o *core.Options) { o.SpillDir = spillDir })},
		{"budget-multipass", false, workload.UniformInt64s(n, seed), col0,
			opt(func(o *core.Options) { o.MemoryLimit = int64(n) * 8 })},
		{"adaptive-nearsorted", true, workload.NearlySorted(n, 0.001, seed), col0, opt(nil)},
	}
}

// Trajectory measures the pinned suite and returns the report. Wall time
// is the median of cfg.reps() end-to-end sorts; the counter metrics come
// from one additional instrumented run.
func Trajectory(cfg Config) (*TrajectoryReport, error) {
	if err := cfg.valid(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "rowsort-trajectory-*")
	if err != nil {
		return nil, err
	}
	rep, err := trajectoryMeasure(cfg, dir)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func trajectoryMeasure(cfg Config, dir string) (*TrajectoryReport, error) {
	rep := &TrajectoryReport{
		Schema:  TrajectorySchema,
		Scale:   string(cfg.Scale),
		Threads: trajectoryThreads,
		Seed:    cfg.seed(),
	}
	for _, wl := range cfg.trajectoryWorkloads(dir) {
		opt := wl.opt
		opt.Telemetry = cfg.Telemetry
		opt.Registry = cfg.Registry
		opt.RunLabel = "trajectory:" + wl.name
		d := MedianTime(cfg.reps(), func() {
			if _, err := core.SortTable(wl.tbl, wl.keys, opt); err != nil {
				panic(err)
			}
		})
		_, st, err := core.SortTableStats(wl.tbl, wl.keys, opt)
		if err != nil {
			return nil, fmt.Errorf("trajectory %s: %w", wl.name, err)
		}
		rows := st.RowsIngested
		w := TrajectoryWorkload{
			Name:              wl.name,
			Deterministic:     wl.deterministic,
			Rows:              rows,
			WallNs:            d.Nanoseconds(),
			PeakResidentBytes: st.PeakResidentRunBytes,
			SpillBytesWritten: st.SpillBytesWritten,
			NormKeyBytes:      st.NormKeyBytes,
			PhysKeyBytes:      st.PhysKeyBytes,
			RunsGenerated:     st.RunsGenerated,
			MergePasses:       st.MergePasses,
		}
		if rows > 0 {
			w.NsPerRow = float64(d.Nanoseconds()) / float64(rows)
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	return rep, nil
}

// runTrajectory prints the suite as a table and, when Config.BenchJSON is
// set, writes the report there for benchdiff.
func runTrajectory(w io.Writer, cfg Config) error {
	rep, err := Trajectory(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title: fmt.Sprintf("perf trajectory (%s scale, %d threads, seed %d)",
			rep.Scale, rep.Threads, rep.Seed),
		Header: []string{"workload", "rows", "wall", "ns/row", "peak resident",
			"spill written", "key bytes", "runs", "passes", "exact"},
	}
	for _, wl := range rep.Workloads {
		exact := "yes"
		if !wl.Deterministic {
			exact = "no"
		}
		t.AddRow(wl.Name, Count(uint64(wl.Rows)), Seconds(time.Duration(wl.WallNs)),
			fmt.Sprintf("%.1f", wl.NsPerRow), Bytes(wl.PeakResidentBytes),
			Bytes(wl.SpillBytesWritten),
			fmt.Sprintf("%s/%s", Bytes(wl.PhysKeyBytes), Bytes(wl.NormKeyBytes)),
			fmt.Sprintf("%d", wl.RunsGenerated), fmt.Sprintf("%d", wl.MergePasses),
			exact)
	}
	t.Render(w)

	if cfg.BenchJSON == "" {
		return nil
	}
	if err := WriteTrajectoryJSON(cfg.BenchJSON, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", cfg.BenchJSON)
	return nil
}

// WriteTrajectoryJSON writes the report as indented JSON with a trailing
// newline, the exact bytes benchdiff and the committed baseline use.
func WriteTrajectoryJSON(path string, rep *TrajectoryReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadTrajectoryJSON loads a report and checks its schema tag.
func ReadTrajectoryJSON(path string) (*TrajectoryReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep TrajectoryReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != TrajectorySchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, TrajectorySchema)
	}
	return &rep, nil
}
