package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// threads is every sort's Options.Threads and the number of sinks the
// benchmark feeds, one goroutine each. It matches the two-CPU host the
// sizes below were chosen on.
const threads = 2

// bench is one workload: a generated input, the sort keys, and the only
// Options fields the workload sets on top of Threads.
type bench struct {
	name string
	rows int
	gen  func(n int, seed uint64) *vector.Table
	keys []core.SortColumn
	// memLimit is Options.MemoryLimit (0 = no budget).
	memLimit int64
	// spill sets Options.SpillDir to a directory under the benchmark's
	// temp dir.
	spill bool
	// broker passes a benchmark-owned mem.Broker as Options.Broker.
	// cs-spill-eager cannot: any broker makes core treat the sort as
	// budgeted, which replaces the eager spill-every-run path that
	// workload exists to measure with pressure-driven spilling that never
	// fires without a limit.
	broker bool
	// deterministic marks workloads whose runs, key bytes, merge
	// comparisons and spill bytes must repeat exactly from sort to sort.
	deterministic bool
}

// csKeys are the paper's Fig. 13 catalog_sales sort keys: four int32
// columns with ~4% NULL foreign keys and heavy ties.
var csKeys = []core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}

func catalogSales(n int, seed uint64) *vector.Table { return workload.CatalogSales(n, 10, seed) }

// benches are the workloads; README.md says why each exists.
var benches = []bench{
	{name: "cs-int", rows: 1 << 20, gen: catalogSales, keys: csKeys, broker: true, deterministic: true},
	{name: "url-str", rows: 1 << 18, gen: workload.SharedPrefixStrings,
		keys: []core.SortColumn{{Column: 0}}, broker: true, deterministic: true},
	{name: "cs-spill-budget", rows: 1 << 20, gen: catalogSales, keys: csKeys,
		memLimit: 16 << 20, spill: true, broker: true},
	{name: "cs-spill-eager", rows: 1 << 20, gen: catalogSales, keys: csKeys, spill: true, deterministic: true},
}

func findBench(name string) (*bench, error) {
	for i := range benches {
		if benches[i].name == name {
			return &benches[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// input is a workload's generated table plus what the checker expects of
// every sort of it.
type input struct {
	table      *vector.Table
	want       expectation
	inputBytes int64  // column data bytes: fixed widths plus string bytes
	spillDir   string // empty unless the workload spills
}

// setup generates the workload's input and, in tmp, its spill directory.
// The table's chunks are vector.DefaultVectorSize rows each, as the
// kernels' row addressing assumes.
func setup(b *bench, seed uint64, tmp string) (*input, error) {
	t := b.gen(b.rows, seed)
	for i, c := range t.Chunks {
		if c.Len() != vector.DefaultVectorSize && i != len(t.Chunks)-1 {
			return nil, fmt.Errorf("%s: chunk %d has %d rows", b.name, i, c.Len())
		}
	}
	in := &input{table: t, want: expect(t, b.keys), inputBytes: inputBytes(t)}
	if b.spill {
		dir, err := os.MkdirTemp(tmp, b.name+"-")
		if err != nil {
			return nil, err
		}
		in.spillDir = dir
	}
	return in, nil
}

// cleanup removes the input's spill directory.
func (in *input) cleanup() error {
	if in.spillDir == "" {
		return nil
	}
	return os.RemoveAll(in.spillDir)
}

// spillLeft counts the files left in the spill directory.
func (in *input) spillLeft() (int, error) {
	if in.spillDir == "" {
		return 0, nil
	}
	ents, err := os.ReadDir(in.spillDir)
	return len(ents), err
}

// inputBytes is the benchmark's definition of input size: every column's
// fixed width per row (NULL rows included) plus the bytes of every string.
func inputBytes(t *vector.Table) int64 {
	var n int64
	for _, c := range t.Chunks {
		for _, v := range c.Vectors {
			if v.Type() != vector.Varchar {
				n += int64(v.Len() * v.Type().Width())
				continue
			}
			for _, s := range v.Strings() {
				n += int64(len(s))
			}
		}
	}
	return n
}

// setupTimed runs one full set-up — input generation, the spill directory
// and a checked warm-up sort excluded from the samples — and returns its
// process CPU time and wall time with the input.
func setupTimed(b *bench, seed uint64, tmp string) (in *input, cpu, wall time.Duration, warm sortRun, err error) {
	t0, c0 := time.Now(), processCPU()
	in, err = setup(b, seed, tmp)
	if err != nil {
		return nil, 0, 0, sortRun{}, err
	}
	warm = sortChecked(b, in, nil)
	return in, processCPU() - c0, time.Since(t0), warm, nil
}

// tmpDirFor is the benchmark's private temp dir under root.
func tmpDirFor(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, fmt.Sprintf("perfbench-%d-", os.Getpid()))
}

// traceFile names the Chrome trace written for one workload and seed.
func traceFile(name string, seed uint64) string {
	return filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.trace.json", name, seed))
}

// hostSteal reads the system-wide CPU time (all fields of /proc/stat's cpu
// line) and the part of it the hypervisor stole from this machine's
// virtual CPUs, in clock ticks. ok is false where /proc/stat is missing.
func hostSteal() (total, steal int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}
