package row

import (
	"sync"

	"rowsort/internal/mem"
)

// Pooled allocation routed through the memory broker: the sorter's hot
// buffers (key rows and payload RowSets released by flushed, spilled and
// merged runs) are recycled through these pools, and the capacity a pool
// holds on to is charged against a mem.Reservation. That keeps idle pool
// memory visible to the budget — and gives the pool its degradation
// policy for free: when retaining a buffer would push the broker over
// budget, the pool drops it for the garbage collector instead of keeping
// it warm.
//
// The pools are bounded free lists rather than sync.Pools: a sync.Pool
// drops items at every garbage collection (and at random under the race
// detector) without telling the pool, so their charge would stay on the
// broker as phantom bytes. Here an item leaves only through Get or Drain,
// which return its charge, so the reservation always equals the idle
// capacity.
//
// Idle capacity is the first memory to go when the budget needs room: the
// owner Drains its pools before it cuts a run or spills under pressure,
// and Closes them once the buffers stop cycling (after Close, Put drops
// every item and Get allocates fresh).

// maxIdle bounds the items one pool keeps. A sorter's buffers cycle
// through its pools about one run at a time per sink, so a few idle items
// per thread suffice; items beyond the bound go to the garbage collector.
const maxIdle = 16

// freeList is a bounded LIFO of idle items whose capacity, as reported by
// size, is charged to res while they are parked.
type freeList[T any] struct {
	res    *mem.Reservation
	size   func(T) int64
	mu     sync.Mutex
	items  []T
	closed bool // put parks nothing once set
}

// get pops the most recently parked item and returns its charge.
func (f *freeList[T]) get() (T, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var zero T
	n := len(f.items)
	if n == 0 {
		return zero, false
	}
	it := f.items[n-1]
	f.items[n-1] = zero
	f.items = f.items[:n-1]
	f.res.Shrink(f.size(it))
	return it, true
}

// put parks it and charges its size, unless the list is closed or full or
// the charge would overrun the budget; then it is left to the GC.
func (f *freeList[T]) put(it T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || len(f.items) >= maxIdle {
		return
	}
	if size := f.size(it); !f.res.Grow(size) {
		f.res.Shrink(size)
		return
	}
	f.items = append(f.items, it)
}

// drain drops every parked item for the GC and returns its charge;
// closing also stops put from parking again.
func (f *freeList[T]) drain(closing bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var charged int64
	for _, it := range f.items {
		charged += f.size(it)
	}
	clear(f.items)
	f.items = f.items[:0]
	f.res.Shrink(charged)
	f.closed = f.closed || closing
}

// SetPool recycles RowSets of one layout. The zero value is unusable;
// construct with NewSetPool. A nil *SetPool is a valid no-op: Get returns
// nil rather than a set, and Put, Drain and Close do nothing.
type SetPool struct {
	layout *Layout
	free   freeList[*RowSet]
}

// NewSetPool returns a pool producing RowSets with the given layout. res
// (which may be nil for unaccounted pooling) is charged with the capacity
// of every idle set the pool holds.
func NewSetPool(layout *Layout, res *mem.Reservation) *SetPool {
	return &SetPool{layout: layout, free: freeList[*RowSet]{res: res, size: (*RowSet).CapBytes}}
}

// Get returns an empty RowSet, recycled when one is pooled.
func (p *SetPool) Get() *RowSet {
	if p == nil {
		return nil
	}
	if rs, ok := p.free.get(); ok {
		return rs
	}
	return NewRowSet(p.layout)
}

// Put recycles a set whose contents are dead. When parking it would
// overrun the budget, or the pool is closed, the set is dropped instead,
// returning its capacity to the GC.
func (p *SetPool) Put(rs *RowSet) {
	if p == nil || rs == nil {
		return
	}
	rs.Reset()
	p.free.put(rs)
}

// Drain drops every pooled set and returns its charge to the reservation.
func (p *SetPool) Drain() {
	if p != nil {
		p.free.drain(false)
	}
}

// Close drains the pool for good: later Puts drop their set, and Get
// allocates a fresh one.
func (p *SetPool) Close() {
	if p != nil {
		p.free.drain(true)
	}
}

// BufPool recycles byte buffers (the sorter's key-row buffers) with the
// same accounting and pressure policy as SetPool. A nil *BufPool always
// allocates and never retains.
type BufPool struct {
	free freeList[[]byte]
}

// NewBufPool returns a buffer pool charging res (may be nil) with the
// capacity of every idle buffer it holds.
func NewBufPool(res *mem.Reservation) *BufPool {
	return &BufPool{free: freeList[[]byte]{res: res, size: func(b []byte) int64 { return int64(cap(b)) }}}
}

// Get returns an empty (length-0) buffer, recycled when one is pooled.
func (p *BufPool) Get() []byte {
	if p == nil {
		return nil
	}
	b, _ := p.free.get()
	return b[:0]
}

// Put recycles a buffer whose contents are dead; when parking it would
// overrun the budget, or the pool is closed, it is dropped instead.
func (p *BufPool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.free.put(b[:0])
}

// Drain drops every pooled buffer and returns its charge to the
// reservation.
func (p *BufPool) Drain() {
	if p != nil {
		p.free.drain(false)
	}
}

// Close drains the pool for good: later Puts drop their buffer, and Get
// returns an empty one.
func (p *BufPool) Close() {
	if p != nil {
		p.free.drain(true)
	}
}
