// Package fixture exercises the atomicfield analyzer.
package fixture

import "sync/atomic"

type counters struct {
	hits  int64
	reads int64
}

func (c *counters) bump() {
	atomic.AddInt64(&c.hits, 1)
}

func (c *counters) report() int64 {
	return c.hits // want "plain access to hits races"
}

var ops int64

func addOp() {
	atomic.AddInt64(&ops, 1)
}

func readOps() int64 {
	return ops // want "plain access to ops races"
}

// readsAtomic touches reads atomically at every site: clean.
func (c *counters) readsAtomic() int64 {
	atomic.AddInt64(&c.reads, 1)
	return atomic.LoadInt64(&c.reads)
}

// plainOnly is never touched atomically, so plain access is fine.
type plainOnly struct{ n int64 }

func (p *plainOnly) inc() { p.n++ }

func (p *plainOnly) get() int64 { return p.n }

// progress uses the typed sync/atomic API, like obs.Progress.
type progress struct {
	rows  atomic.Int64
	done  atomic.Bool
	ticks [3]atomic.Int64
}

// methods and explicit addresses are the legitimate uses: clean.
func (p *progress) advance(n int64) {
	p.rows.Add(n)
	p.ticks[0].Add(1)
	p.done.Store(true)
	sink(&p.rows)
}

func sink(*atomic.Int64) {}

func (p *progress) snapshot() int64 {
	_ = p.rows     // want "sync/atomic value of type sync/atomic.Int64 copied"
	_ = p.ticks[1] // want "sync/atomic value of type sync/atomic.Int64 copied"
	return p.rows.Load()
}

func swap(p *progress) {
	var scratch atomic.Int64 // a declaration is not a copy: clean
	scratch.Store(p.rows.Load())
	// Assigning copies both sides: the write tears, the read races.
	scratch = p.rows // want "sync/atomic value" "sync/atomic value"
	_ = scratch.Load()
}

// registry publishes a callback through the typed Pointer API, like
// obs.Registry.Register.
type registry struct {
	fn atomic.Pointer[func() int]
}

// publish reads the local before handing its address to Store: &fn is the
// stored value, not an atomic target, so the plain accesses are clean.
func (r *registry) publish(fn func() int) {
	if fn != nil {
		r.fn.Store(&fn)
	}
	_ = fn
}

var gen uint64

// bumpGen addresses gen through a package function, so gen is a real
// atomic target and a plain read after the publishing Store still races.
func (r *registry) bumpGen(fn func() int) uint64 {
	r.fn.Store(&fn)
	atomic.AddUint64(&gen, 1)
	return gen // want "plain access to gen races"
}
