package main

import (
	"slices"
	"sync"
	"time"
)

// calibrator is a fixed amount of work that shares no code with the
// sorter: on each of the benchmark's threads, sort a block of
// pseudo-random integers and gather from a table larger than the
// machine's per-core caches. On a shared host the CPU time of the same
// work changes by half from one stretch of minutes to the next, as other
// tenants load the cores' siblings, caches and memory; the calibrator's
// CPU time follows those changes, so scaling a sort's CPU time by
// calibRef over it cancels them.
type calibrator struct {
	keys  [threads][]uint64
	table []uint64
	sink  [threads]uint64
}

// calibRef is the calibrator's CPU time on the two-vCPU virtual machine
// (Intel Xeon, 2 MiB L2 per vCPU) the benchmark was tuned on, in a quiet
// stretch: the host speed the benchmark's normalized times refer to.
const calibRef = 170 * time.Millisecond

const (
	calibKeys  = 1 << 19 // per thread
	calibTable = 1 << 23 // 64 MiB, shared
	calibReads = 1 << 21 // per thread
)

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint64, calibTable)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.table {
		x = xorshift(x)
		c.table[i] = x
	}
	for w := range c.keys {
		c.keys[w] = make([]uint64, calibKeys)
	}
	return c
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// speed runs the calibrator once and returns the host's speed relative to
// the reference: calibRef over the CPU time the run took.
func (c *calibrator) speed() float64 { return float64(calibRef) / float64(c.run()) }

// run does the work once and returns the process CPU time it took.
func (c *calibrator) run() time.Duration {
	c0 := processCPU()
	var wg sync.WaitGroup
	for w := range c.keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := c.keys[w]
			x := uint64(w+1) * 0x2545f4914f6cdd1d
			for i := range keys {
				x = xorshift(x)
				keys[i] = x
			}
			slices.Sort(keys)
			var sum uint64
			for i := 0; i < calibReads; i++ {
				x = xorshift(x)
				sum += c.table[x&(calibTable-1)]
			}
			c.sink[w] = sum + keys[len(keys)/2]
		}()
	}
	wg.Wait()
	return processCPU() - c0
}
