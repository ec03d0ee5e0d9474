// Command perfbench is the repository's benchmark: a closed loop of one
// sort at a time over four workloads, driving internal/core only through
// its public entry points (NewSorter, Sink.Append/Close on two goroutines,
// Finalize, Rows/RowIter.Next, Sorter.Close), with every sort's output
// checked outside the timed region.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload cs-int --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs only the traced
// run and prints the per-layer metrics. The last line of standard output
// is one JSON object; README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// heldOutSeed is the seed --heldout selects. Tuning the benchmark and
// developing a change use other seeds, so a claim can be re-checked on
// inputs nobody tuned against.
const heldOutSeed = 9_176_204_117

// tmpRoot holds the benchmark's temp dirs (spill directories) and
// traceDir the traced run's Chrome trace_event files; both are relative to
// the repository root the benchmark runs from.
const (
	tmpRoot  = ".bench_build/tmp"
	traceDir = ".bench_build/traces"
)

// setupReps is how many times a --trace 0 run repeats its set-up; setup_s
// is the median of their normalized CPU times.
const setupReps = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload's outcome.
type report struct {
	name      string
	attempted int
	failed    int
	metrics   map[string]metric // the JSON metrics
	notes     map[string]metric // printed in the table only
	order     []string          // metric and note names in print order
}

func newReport(name string) *report {
	return &report{name: name, metrics: make(map[string]metric), notes: make(map[string]metric)}
}

// set records a metric of the JSON result.
func (r *report) set(name string, v float64, unit string) {
	r.order = append(r.order, name)
	r.metrics[name] = metric{v, unit}
}

// note records a value printed in the table but not in the JSON result.
func (r *report) note(name string, v float64, unit string) {
	r.order = append(r.order, name)
	r.notes[name] = metric{v, unit}
}

// get returns a metric or note by name.
func (r *report) get(name string) metric {
	if m, ok := r.metrics[name]; ok {
		return m
	}
	return r.notes[name]
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload name, a comma-separated list, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	heldout := fs.Bool("heldout", false, fmt.Sprintf("use the held-out seed %d instead of --seed", uint64(heldOutSeed)))
	seconds := fs.Int("seconds", 10, "measured seconds per workload")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: only the traced run and its per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *heldout {
		*seed = heldOutSeed
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || *wl == "" {
		fmt.Fprintln(stderr, "perfbench: need --workload, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	names := strings.Split(*wl, ",")
	if *wl == "all" {
		names = names[:0]
		for _, b := range benches {
			names = append(names, b.name)
		}
	}
	var todo []*bench
	for _, n := range names {
		b, err := findBench(n)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		todo = append(todo, b)
	}
	tmp, err := tmpDirFor(tmpRoot)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	measure := time.Duration(*seconds) * time.Second
	var reports []*report
	for _, b := range todo {
		var rep *report
		if *traceMode == 0 {
			rep, err = endToEnd(b, *seed, measure, tmp, stderr)
		} else {
			rep, err = traced(b, *seed, measure, tmp, traceFile(b.name, *seed), stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.name, err)
			return 1
		}
		reports = append(reports, rep)
	}
	printReports(stdout, reports, *traceMode == 1, *seed)

	res := result{Metrics: make(map[string]metric)}
	for _, rep := range reports {
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		for name, m := range rep.metrics {
			if len(reports) > 1 {
				name = rep.name + ":" + name
			}
			res.Metrics[name] = m
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printReports writes the human-readable table: with end-to-end metrics one
// row per workload, with per-layer metrics one line per metric.
func printReports(w io.Writer, reports []*report, layers bool, seed uint64) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	defer tw.Flush()
	if layers {
		for _, rep := range reports {
			fmt.Fprintf(tw, "%s seed=%d\t\t\t\n", rep.name, seed)
			for _, name := range rep.order {
				m := rep.get(name)
				fmt.Fprintf(tw, "\t%s\t%.6g\t%s\t\n", name, m.Value, m.Unit)
			}
		}
		return
	}
	if len(reports) == 0 {
		return
	}
	cols := reports[0].order
	fmt.Fprint(tw, "workload\t")
	for _, name := range cols {
		fmt.Fprintf(tw, "%s[%s]\t", name, reports[0].get(name).Unit)
	}
	fmt.Fprintln(tw)
	for _, rep := range reports {
		fmt.Fprintf(tw, "%s\t", rep.name)
		for _, name := range cols {
			fmt.Fprintf(tw, "%.6g\t", rep.get(name).Value)
		}
		fmt.Fprintln(tw)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
