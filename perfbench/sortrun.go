package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/mem"
	"rowsort/internal/vector"
)

// sortRun is one sort's measurements and verdict.
type sortRun struct {
	dur        time.Duration // NewSorter to the last chunk plus Close
	firstChunk time.Duration // NewSorter to the first chunk
	cpu        time.Duration // process CPU time over dur
	firstCPU   time.Duration // process CPU time over firstChunk
	stats      core.SortStats
	memPeak    int64 // the benchmark broker's peak (the sorter's own without one)
	memAfter   int64 // bytes still charged to the benchmark broker after Close
	err        error // the sort's error, or why its output was rejected
	traceID    int   // the sort's id in the tracer (0 untraced)
}

// sortChecked runs one sort of the input and checks it outside the timed
// region: the output against the input, the broker balance after Close and
// the spill directory.
func sortChecked(b *bench, in *input, tr *tracer) sortRun {
	r, out := sortOnce(b, in, tr)
	if r.err != nil {
		return r
	}
	if err := in.want.check(out); err != nil {
		r.err = fmt.Errorf("output check: %w", err)
		return r
	}
	if r.memAfter != 0 {
		r.err = fmt.Errorf("broker holds %d bytes after Close", r.memAfter)
		return r
	}
	if n, err := in.spillLeft(); err != nil || n != 0 {
		r.err = fmt.Errorf("%d spill files left behind (%v)", n, err)
	}
	return r
}

// sortOnce sorts the input through core's public entry points: NewSorter,
// one Sink per goroutine fed round-robin chunks, Finalize, Rows/Next and
// Close. With a tracer, every call is a span.
func sortOnce(b *bench, in *input, tr *tracer) (sortRun, []*vector.Chunk) {
	var broker *mem.Broker
	if b.broker {
		broker = mem.NewBroker("perfbench", 0)
	}
	opt := core.Options{Threads: threads, MemoryLimit: b.memLimit, Broker: broker, SpillDir: in.spillDir}
	// Collect the previous sort's garbage outside the timed region.
	runtime.GC()

	id := tr.newSort()
	r := sortRun{traceID: id}
	t0, c0 := time.Now(), processCPU()
	root := tr.begin(id, "sort", -1, 0)
	s, err := core.NewSorter(in.table.Schema, b.keys, opt)
	if err != nil {
		tr.end(root)
		r.err = err
		return r, nil
	}
	out, first, firstCPU, err := drive(s, in.table.Chunks, tr, id, root)
	r.firstChunk, r.firstCPU = first.Sub(t0), firstCPU-c0
	sp := tr.begin(id, "core.close", root, 0)
	closeErr := s.Close()
	tr.end(sp)
	tr.end(root)
	r.dur, r.cpu = time.Since(t0), processCPU()-c0

	r.err = errors.Join(err, closeErr)
	r.stats = s.Stats()
	r.memPeak, r.memAfter = r.stats.PeakResidentRunBytes, 0
	if broker != nil {
		r.memPeak, r.memAfter = broker.Peak(), broker.Used()
	}
	return r, out
}

// drive runs the sort pipeline up to the drained result and returns it
// with the wall clock and the process CPU time when the first chunk
// arrived.
func drive(s *core.Sorter, chunks []*vector.Chunk, tr *tracer, id, root int) ([]*vector.Chunk, time.Time, time.Duration, error) {
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tr.begin(id, "bench.sink", root, 1+w)
			defer tr.end(lane)
			sink := s.NewSink()
			for i := w; i < len(chunks); i += threads {
				sp := tr.begin(id, "core.append", lane, 1+w)
				err := sink.Append(chunks[i])
				tr.end(sp)
				if err != nil {
					errs[w] = errors.Join(err, sink.Close())
					return
				}
			}
			sp := tr.begin(id, "core.sink_close", lane, 1+w)
			errs[w] = sink.Close()
			tr.end(sp)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, time.Time{}, 0, err
	}

	sp := tr.begin(id, "core.finalize", root, 0)
	err := s.Finalize()
	tr.end(sp)
	if err != nil {
		return nil, time.Time{}, 0, err
	}

	sp = tr.begin(id, "core.first_next", root, 0)
	it, err := s.Rows()
	var c *vector.Chunk
	if err == nil {
		c, err = it.Next()
	}
	tr.end(sp)
	first, firstCPU := time.Now(), processCPU()
	if err != nil {
		if it != nil {
			_ = it.Close() // reports the Next error already returned
		}
		return nil, first, firstCPU, err
	}
	var out []*vector.Chunk
	for c != nil {
		out = append(out, c)
		sp = tr.begin(id, "core.next", root, 0)
		c, err = it.Next()
		tr.end(sp)
		if err != nil {
			break
		}
	}
	return out, first, firstCPU, errors.Join(err, it.Close())
}

// processCPU is the CPU time all of the process's threads have used, user
// and system. The kernel leaves out time the hypervisor gave to other
// guests, so on a shared host it is steadier than wall time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
