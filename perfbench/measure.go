package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/vector"
)

// series collects one value per sort (or kernel pass) under each metric
// name, in the order the names were first added.
type series struct {
	order []string
	unit  map[string]string
	vals  map[string][]float64
}

func newSeries() *series {
	return &series{unit: make(map[string]string), vals: make(map[string][]float64)}
}

func (s *series) add(name, unit string, v float64) {
	if _, ok := s.vals[name]; !ok {
		s.order = append(s.order, name)
		s.unit[name] = unit
	}
	s.vals[name] = append(s.vals[name], v)
}

// p returns the q-quantile of a metric's values.
func (s *series) p(name string, q float64) float64 { return quantile(s.vals[name], q) }

// into reports every metric's median, and for the quartiled ones, whose
// values vary from sort to sort, the quartiles as .p25/.p50/.p75.
func (s *series) into(rep *report, quartiled ...string) {
	for _, name := range s.order {
		if !slices.Contains(quartiled, name) {
			rep.set(name, s.p(name, 0.5), s.unit[name])
			continue
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{".p25", 0.25}, {".p50", 0.5}, {".p75", 0.75}} {
			rep.set(name+q.suffix, s.p(name, q.q), s.unit[name])
		}
	}
}

// count records a sort's verdict in the report.
func (r *report) count(sr sortRun, log io.Writer) {
	r.attempted++
	if sr.err != nil {
		r.failed++
		fmt.Fprintf(log, "perfbench: %s: sort failed: %v\n", r.name, sr.err)
	}
}

// endToEnd measures the untraced closed loop for the given time and
// reports the end-to-end metrics.
func endToEnd(b *bench, seed uint64, measure time.Duration, tmp string, log io.Writer) (*report, error) {
	rep := newReport(b.name)
	cal := newCalibrator()
	cal.run() // fault its buffers in before the first reading
	var in *input
	var setups, setupWalls []float64
	for i := 0; i < setupReps; i++ {
		if in != nil {
			if err := in.cleanup(); err != nil {
				return nil, err
			}
		}
		speed := cal.speed()
		next, cpu, wall, warm, err := setupTimed(b, seed, tmp)
		if err != nil {
			return nil, err
		}
		in = next
		setups = append(setups, cpu.Seconds()*speed)
		setupWalls = append(setupWalls, wall.Seconds())
		rep.count(warm, log)
	}
	defer in.cleanup()

	s := newSeries()
	var wall, cpu float64
	cpu0, steal0, stealOK := hostSteal()
	for start := time.Now(); time.Since(start) < measure; {
		speed := cal.speed()
		r := sortChecked(b, in, nil)
		rep.count(r, log)
		if r.err != nil {
			continue
		}
		wall += r.dur.Seconds()
		cpu += r.cpu.Seconds() * speed
		s.add("sort", "s", r.dur.Seconds())
		s.add("first", "s", r.firstChunk.Seconds())
		s.add("cpu", "s", r.cpu.Seconds()*speed)
		s.add("firstCPU", "s", r.firstCPU.Seconds()*speed)
		s.add("speed", "1", speed)
		s.add("peak", "B", float64(r.stats.PeakResidentRunBytes))
		s.add("spillW", "B/B", float64(r.stats.SpillBytesWritten)/float64(in.inputBytes))
		s.add("spillR", "B/B", float64(r.stats.SpillBytesRead)/float64(in.inputBytes))
	}
	cpu1, steal1, _ := hostSteal()
	n := len(s.vals["sort"])
	if n == 0 {
		return nil, fmt.Errorf("no sort succeeded")
	}
	// The JSON result holds the times as normalized CPU seconds: each
	// sort's and set-up's process CPU time, scaled by the host speed the
	// calibrator measured just before it. Wall times, which the hypervisor
	// moves by half from one run to the next on a shared host, are
	// printed in the table next to them.
	rep.set("sort_cpu_s.p50", s.p("cpu", 0.5), "s")
	rep.set("rows_per_cpu_s", float64(n*b.rows)/cpu, "rows/s")
	rep.set("first_chunk_cpu_s.p50", s.p("firstCPU", 0.5), "s")
	rep.set("peak_resident_bytes.p50", s.p("peak", 0.5), "B")
	rep.set("setup_s", quantile(setups, 0.5), "s")
	rep.note("samples", float64(n), "count")
	rep.note("host_speed.p50", s.p("speed", 0.5), "1")
	rep.note("sort_s.p50", s.p("sort", 0.5), "s")
	rep.note("sort_s.p90", s.p("sort", 0.9), "s")
	rep.note("rows_per_s", float64(n*b.rows)/wall, "rows/s")
	rep.note("first_chunk_s.p50", s.p("first", 0.5), "s")
	rep.note("setup_wall_s", quantile(setupWalls, 0.5), "s")
	// The rest are 0 on some workloads (the spill ratios in memory,
	// failed_frac everywhere at a good commit), and a bound relative to 0
	// means nothing; failures reach the JSON as attempted/failed.
	rep.note("spill_write_per_input_byte", s.p("spillW", 0.5), "B/B")
	rep.note("spill_read_per_input_byte", s.p("spillR", 0.5), "B/B")
	rep.note("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "1")
	rep.note("input_bytes", float64(in.inputBytes), "B")
	if stealOK {
		// CPU time the hypervisor gave to other guests while the loop
		// ran: on a shared host, the main cause of slow runs measured.
		rep.note("host_steal_frac", ratio(float64(steal1-steal0), float64(cpu1-cpu0)), "1")
	}
	return rep, nil
}

// deterministic names the counters that must repeat exactly from sort to
// sort of one input on a deterministic workload; detCounters reads them.
var deterministic = []string{"runs", "norm_key_bytes", "phys_key_bytes", "merge_comparisons",
	"spill_write_bytes", "spill_read_bytes"}

func detCounters(st core.SortStats) []int64 {
	return []int64{st.RunsGenerated, st.NormKeyBytes, st.PhysKeyBytes, int64(st.Merge.Comparisons),
		st.SpillBytesWritten, st.SpillBytesRead}
}

// sortSpans and kernelSpans are the traced run's span names.
var (
	sortSpans = []string{"sort", "bench.sink", "core.append", "core.sink_close", "core.finalize",
		"core.first_next", "core.next", "core.close"}
	kernelSpans = []string{"kernels", "normkey.encode", "radix.sort", "sortalgo.pdqsort", "mergepath.kway"}
)

// algos are the run-sort algorithms core records in StrategyDecisions,
// as metric-name suffixes.
var algos = []string{"lsd-radix", "msd-radix", "pdqsort", "dup-group", "radix-repair", "other"}

// traced alternates untraced and traced sorts (the untraced ones only to
// measure tracing overhead) with one kernel pass per round, for the given
// time, and reports the per-layer metrics.
func traced(b *bench, seed uint64, measure time.Duration, tmp, traceOut string, log io.Writer) (*report, error) {
	rep := newReport(b.name)
	in, _, _, warm, err := setupTimed(b, seed, tmp)
	if err != nil {
		return nil, err
	}
	defer in.cleanup()
	rep.count(warm, log)
	kr, err := newKernels(b, in)
	if err != nil {
		return nil, err
	}
	tr := newTracer()

	var plain, withTrace []float64
	var tracedRuns []sortRun
	var kernRuns []kernelRun
	var counters [][]int64
	one := func(t *tracer) {
		r := sortChecked(b, in, t)
		rep.count(r, log)
		if r.err != nil {
			return
		}
		counters = append(counters, detCounters(r.stats))
		if t == nil {
			plain = append(plain, r.dur.Seconds())
			return
		}
		withTrace = append(withTrace, r.dur.Seconds())
		tracedRuns = append(tracedRuns, r)
	}
	for i, start := 0, time.Now(); time.Since(start) < measure; i++ {
		// Alternate which goes first so neither side always follows
		// the kernel pass's garbage.
		if i%2 == 0 {
			one(nil)
			one(tr)
		} else {
			one(tr)
			one(nil)
		}
		k := kr.run(tr)
		rep.attempted++
		if k.err != nil {
			rep.failed++
			fmt.Fprintf(log, "perfbench: %s: kernel pass failed: %v\n", b.name, k.err)
			continue
		}
		kernRuns = append(kernRuns, k)
	}
	if len(plain) == 0 || len(tracedRuns) == 0 || len(kernRuns) == 0 {
		return nil, fmt.Errorf("no traced sort, untraced sort or kernel pass succeeded")
	}
	if err := tr.write(traceOut); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(log, "perfbench: %s: trace written to %s\n", b.name, traceOut)

	m := newSeries()
	layers := tr.bySort()
	rows := float64(b.rows)
	for _, r := range tracedRuns {
		sortLayers(m, layers[r.traceID], r, rows, b.memLimit, in.inputBytes)
	}
	for _, k := range kernRuns {
		kernelLayers(m, k)
	}
	for _, lt := range layers {
		if lt["kernels"].calls > 0 {
			for _, name := range kernelSpans {
				m.add(name+".self_s", "s", lt[name].self.Seconds())
			}
		}
	}
	m.into(rep, "core.runs_generated", "core.merge_passes", "core.spill.write_bytes", "mem.peak_bytes")
	rep.set("trace.overhead_ratio", ratio(quantile(withTrace, 0.5), quantile(plain, 0.5)), "1")

	varying := 0
	if b.deterministic {
		for i, name := range deterministic {
			for _, c := range counters[1:] {
				if c[i] != counters[0][i] {
					varying++
					fmt.Fprintf(log, "perfbench: %s: counter %s varies between sorts (%d vs %d)\n",
						b.name, name, counters[0][i], c[i])
					break
				}
			}
		}
	}
	rep.set("determinism.varying_counters", float64(varying), "count")
	return rep, nil
}

// sortLayers adds one traced sort's per-layer values: its core call times,
// self times and SortStats counters, and the broker's readings.
func sortLayers(m *series, lt map[string]layerTimes, r sortRun, rows float64, memLimit, inputBytes int64) {
	st := r.stats
	m.add("core.append.ns_per_row", "ns", float64(lt["core.append"].dur.Nanoseconds())/rows)
	m.add("core.sink_close.s", "s", lt["core.sink_close"].dur.Seconds())
	m.add("core.finalize.s", "s", lt["core.finalize"].dur.Seconds())
	m.add("core.first_next.s", "s", lt["core.first_next"].dur.Seconds())
	m.add("core.next.ns_per_row", "ns",
		ratio(float64(lt["core.next"].dur.Nanoseconds()), rows-min(rows, vector.DefaultVectorSize)))
	m.add("core.close.s", "s", lt["core.close"].dur.Seconds())
	for _, name := range sortSpans {
		m.add(name+".self_s", "s", lt[name].self.Seconds())
	}
	m.add("core.runs_generated", "count", float64(st.RunsGenerated))
	m.add("core.merge_passes", "count", float64(st.MergePasses))
	m.add("core.merge_fan_in", "count", float64(st.MergeFanIn))
	m.add("core.ext_merge_parts", "count", float64(st.ExtMergeParts))
	m.add("core.pressure_spills", "count", float64(st.PressureSpills))
	m.add("core.merge.comparisons_per_row", "count", float64(st.Merge.Comparisons)/rows)
	m.add("core.merge.ovc_hit_frac", "1", ratio(float64(st.Merge.OVCHits), float64(st.Merge.Comparisons)))
	m.add("normkey.key_bytes_per_row", "B", float64(st.NormKeyBytes)/rows)
	m.add("normkey.phys_key_bytes_per_row", "B", float64(st.PhysKeyBytes)/rows)
	byAlgo := map[string]int{}
	for _, d := range st.StrategyDecisions {
		a := strings.ReplaceAll(d.Algo, "+", "-")
		if !slices.Contains(algos, a) {
			a = "other"
		}
		byAlgo[a]++
	}
	for _, a := range algos {
		m.add("strategy.runs."+a, "count", float64(byAlgo[a]))
	}
	m.add("core.spill.write_bytes", "B", float64(st.SpillBytesWritten))
	m.add("core.spill.read_bytes", "B", float64(st.SpillBytesRead))
	m.add("core.spill.read_amp", "1", ratio(float64(st.SpillBytesRead), float64(st.SpillBytesWritten)))
	m.add("core.spill.prefetch_hit_frac", "1", ratio(float64(st.PrefetchHits), float64(st.PrefetchedBlocks)))
	m.add("core.spill.merge_stall.s", "s", st.MergeStall.Seconds())
	m.add("core.spill.files_removed", "count", float64(st.SpillFilesRemoved))
	m.add("core.spill.remove_errors", "count", float64(st.SpillRemoveErrors))
	m.add("core.spill.write_per_input_byte", "B/B", float64(st.SpillBytesWritten)/float64(inputBytes))
	m.add("core.spill.read_per_input_byte", "B/B", float64(st.SpillBytesRead)/float64(inputBytes))
	m.add("mem.peak_bytes", "B", float64(r.memPeak))
	over := 0.0
	if memLimit > 0 {
		over = float64(r.memPeak)/float64(memLimit) - 1
	}
	m.add("mem.peak_over_limit_frac", "1", over)
	m.add("mem.pressure_events", "count", float64(st.MemoryPressureEvents))
	m.add("mem.used_after_close_bytes", "B", float64(r.memAfter))
}

// kernelLayers adds one kernel pass's per-layer values.
func kernelLayers(m *series, k kernelRun) {
	rows := float64(k.rows)
	m.add("normkey.encode.ns_per_row", "ns", float64(k.encode.Nanoseconds())/rows)
	m.add("radix.sort.ns_per_row", "ns", float64(k.radix.Nanoseconds())/rows)
	m.add("radix.passes", "count", float64(k.radixPasses)/float64(k.runs))
	m.add("sortalgo.pdqsort.ns_per_row", "ns", float64(k.pdqsort.Nanoseconds())/rows)
	m.add("mergepath.kway.ns_per_row", "ns", float64(k.merge.Nanoseconds())/rows)
	ms := k.mergeStats
	m.add("mergepath.comparisons_per_row", "count", float64(ms.Comparisons)/rows)
	m.add("mergepath.ovc_hit_frac", "1", ratio(float64(ms.OVCHits), float64(ms.Comparisons)))
	m.add("mergepath.tie_break_frac", "1", ratio(float64(ms.TieBreaks), float64(ms.Comparisons)))
	m.add("mergepath.dup_run_hits_per_row", "count", float64(ms.DupRunHits)/rows)
}
