package row

import (
	"runtime"
	"sync"
	"testing"

	"rowsort/internal/mem"
	"rowsort/internal/vector"
)

func TestSetPoolAccountsCapacity(t *testing.T) {
	b := mem.NewBroker("test", 1<<20)
	res := b.Reserve("pool", 0)
	defer res.Release()
	layout := NewLayout([]vector.Type{vector.Int64, vector.Varchar})
	p := NewSetPool(layout, res)

	rs := p.Get()
	if rs == nil {
		t.Fatal("Get returned nil from a non-nil pool")
	}
	v := vector.NewDense(vector.Int64, 8)
	sv := vector.NewDense(vector.Varchar, 8)
	for i := 0; i < 8; i++ {
		v.Int64s()[i] = int64(i)
		sv.Strings()[i] = "some string payload"
	}
	if err := rs.AppendChunk([]*vector.Vector{v, sv}); err != nil {
		t.Fatal(err)
	}
	capBytes := rs.CapBytes()
	if capBytes <= 0 {
		t.Fatal("CapBytes of a filled set is zero")
	}

	p.Put(rs)
	if got := res.Bytes(); got != capBytes {
		t.Fatalf("pooled capacity accounted %d bytes, want %d", got, capBytes)
	}
	got := p.Get()
	if got != rs {
		t.Fatal("pool did not recycle the set")
	}
	if got.Len() != 0 {
		t.Fatal("recycled set not reset")
	}
	if res.Bytes() != 0 {
		t.Fatalf("reservation holds %d bytes after Get, want 0", res.Bytes())
	}
}

func TestSetPoolDropsUnderPressure(t *testing.T) {
	b := mem.NewBroker("test", 64) // tiny: retaining any real buffer overflows
	res := b.Reserve("pool", 0)
	defer res.Release()
	other := b.Reserve("hog", 60)
	defer other.Release()
	layout := NewLayout([]vector.Type{vector.Int64})
	p := NewSetPool(layout, res)

	rs := NewRowSet(layout)
	v := vector.NewDense(vector.Int64, 64)
	for i := 0; i < 64; i++ {
		v.Int64s()[i] = int64(i)
	}
	if err := rs.AppendChunk([]*vector.Vector{v}); err != nil {
		t.Fatal(err)
	}
	p.Put(rs)
	if got := res.Bytes(); got != 0 {
		t.Fatalf("pressure-dropped set left %d bytes accounted", got)
	}
	if got := p.Get(); got == rs {
		t.Fatal("pool retained a set it should have dropped under pressure")
	}
}

func TestBufPoolAccounting(t *testing.T) {
	b := mem.NewBroker("test", 1<<20)
	res := b.Reserve("pool", 0)
	defer res.Release()
	p := NewBufPool(res)
	buf := append(p.Get(), make([]byte, 1024)...)
	p.Put(buf)
	if got := res.Bytes(); got != int64(cap(buf)) {
		t.Fatalf("pooled buffer accounted %d bytes, want %d", got, cap(buf))
	}
	got := p.Get()
	if cap(got) != cap(buf) || len(got) != 0 {
		t.Fatalf("recycled buffer cap=%d len=%d, want cap=%d len=0", cap(got), len(got), cap(buf))
	}
	if res.Bytes() != 0 {
		t.Fatalf("reservation holds %d bytes after Get, want 0", res.Bytes())
	}
}

// TestPoolChargeSurvivesGC pins the broker balance across garbage
// collections: pooled items stay pooled, so every charge Put made is
// returned by a Get, and an emptied pool leaves no phantom bytes behind.
func TestPoolChargeSurvivesGC(t *testing.T) {
	b := mem.NewBroker("test", 1<<30)
	res := b.Reserve("pool", 0)
	defer res.Release()
	sets := NewSetPool(NewLayout([]vector.Type{vector.Int64}), res)
	bufs := NewBufPool(res)
	for round := 0; round < 5; round++ {
		rs := NewRowSet(NewLayout([]vector.Type{vector.Int64}))
		v := vector.NewDense(vector.Int64, 256)
		if err := rs.AppendChunk([]*vector.Vector{v}); err != nil {
			t.Fatal(err)
		}
		sets.Put(rs)
		bufs.Put(make([]byte, 0, 4096))
		runtime.GC()
		runtime.GC()
		if got := sets.Get(); got != rs {
			t.Fatalf("round %d: pooled set lost across GC", round)
		}
		if got := bufs.Get(); cap(got) != 4096 {
			t.Fatalf("round %d: pooled buffer lost across GC (cap %d)", round, cap(got))
		}
		if res.Bytes() != 0 || b.Used() != 0 {
			t.Fatalf("round %d: %d bytes still charged (broker %d) with nothing pooled", round, res.Bytes(), b.Used())
		}
	}
}

// TestBufPoolBounded pins the idle bound: Puts beyond maxIdle are dropped
// uncharged, and draining the pool returns exactly what it charged.
func TestBufPoolBounded(t *testing.T) {
	b := mem.NewBroker("test", 1<<30)
	res := b.Reserve("pool", 0)
	defer res.Release()
	p := NewBufPool(res)
	for i := 0; i < 2*maxIdle; i++ {
		p.Put(make([]byte, 0, 100))
	}
	if got := res.Bytes(); got != maxIdle*100 {
		t.Fatalf("pool charged %d bytes, want %d for %d idle buffers", got, maxIdle*100, maxIdle)
	}
	for i := 0; i < maxIdle; i++ {
		if cap(p.Get()) != 100 {
			t.Fatalf("Get %d did not recycle a pooled buffer", i)
		}
	}
	if cap(p.Get()) != 0 || res.Bytes() != 0 {
		t.Fatalf("drained pool: %d bytes still charged", res.Bytes())
	}
}

func TestNilPools(t *testing.T) {
	var sp *SetPool
	var bp *BufPool
	if sp.Get() != nil {
		t.Fatal("nil SetPool.Get returned a set")
	}
	sp.Put(NewRowSet(NewLayout([]vector.Type{vector.Int32})))
	if bp.Get() != nil {
		t.Fatal("nil BufPool.Get returned a buffer")
	}
	bp.Put(make([]byte, 4))
}

// filledSet returns a set of layout holding n rows, so its capacity is
// nonzero.
func filledSet(t *testing.T, layout *Layout, n int) *RowSet {
	t.Helper()
	rs := NewRowSet(layout)
	if err := rs.AppendChunk([]*vector.Vector{vector.NewDense(vector.Int64, n)}); err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestPoolDrain pins Drain: every parked item goes, the reservation
// returns to zero, and the pool keeps recycling afterwards.
func TestPoolDrain(t *testing.T) {
	b := mem.NewBroker("test", 1<<30)
	res := b.Reserve("pool", 0)
	defer res.Release()
	layout := NewLayout([]vector.Type{vector.Int64})
	sets := NewSetPool(layout, res)
	bufs := NewBufPool(res)
	for i := 0; i < 4; i++ {
		sets.Put(filledSet(t, layout, 256))
		bufs.Put(make([]byte, 0, 4096))
	}
	if res.Bytes() == 0 {
		t.Fatal("pools charged nothing for parked items")
	}
	sets.Drain()
	bufs.Drain()
	if got := res.Bytes(); got != 0 || b.Used() != 0 {
		t.Fatalf("drained pools still charge %d bytes (broker %d)", got, b.Used())
	}
	if cap(bufs.Get()) != 0 {
		t.Fatal("drained BufPool handed out a parked buffer")
	}
	buf := make([]byte, 0, 100)
	bufs.Put(buf)
	if got := res.Bytes(); got != 100 {
		t.Fatalf("Put after Drain charged %d bytes, want 100", got)
	}
	if cap(bufs.Get()) != 100 {
		t.Fatal("BufPool stopped recycling after Drain")
	}
}

// TestPoolClose pins Close: it drains, later Puts park nothing and charge
// nothing, and Get still hands out a usable empty set or buffer.
func TestPoolClose(t *testing.T) {
	b := mem.NewBroker("test", 1<<30)
	res := b.Reserve("pool", 0)
	defer res.Release()
	layout := NewLayout([]vector.Type{vector.Int64})
	sets := NewSetPool(layout, res)
	bufs := NewBufPool(res)
	sets.Put(filledSet(t, layout, 256))
	bufs.Put(make([]byte, 0, 4096))
	sets.Close()
	bufs.Close()
	if got := res.Bytes(); got != 0 {
		t.Fatalf("closed pools still charge %d bytes", got)
	}
	parked := filledSet(t, layout, 256)
	sets.Put(parked)
	bufs.Put(make([]byte, 0, 4096))
	if got := res.Bytes(); got != 0 || b.Used() != 0 {
		t.Fatalf("Put after Close charged %d bytes (broker %d)", got, b.Used())
	}

	rs := sets.Get()
	if rs == nil || rs == parked || rs.Len() != 0 || rs.Layout() != layout {
		t.Fatalf("Get after Close returned %v, want a fresh empty set of the pool's layout", rs)
	}
	if err := rs.AppendChunk([]*vector.Vector{vector.NewDense(vector.Int64, 8)}); err != nil || rs.Len() != 8 {
		t.Fatalf("set from a closed pool is unusable: len %d, err %v", rs.Len(), err)
	}
	if buf := bufs.Get(); len(buf) != 0 || cap(buf) != 0 {
		t.Fatalf("Get after Close returned len %d cap %d, want an empty buffer", len(buf), cap(buf))
	}
	var nilSets *SetPool
	var nilBufs *BufPool
	nilSets.Drain()
	nilSets.Close()
	nilBufs.Drain()
	nilBufs.Close()
}

// TestPoolDrainRaces drains the pools while other goroutines Put and Get;
// under -race this proves Drain shares the free list's lock. Once every
// goroutine is done, a final Drain leaves nothing charged.
func TestPoolDrainRaces(t *testing.T) {
	b := mem.NewBroker("test", 1<<30)
	res := b.Reserve("pool", 0)
	defer res.Release()
	layout := NewLayout([]vector.Type{vector.Int64})
	sets := NewSetPool(layout, res)
	bufs := NewBufPool(res)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rs := sets.Get()
				if err := rs.AppendChunk([]*vector.Vector{vector.NewDense(vector.Int64, 16)}); err != nil {
					t.Error(err)
					return
				}
				sets.Put(rs)
				bufs.Put(append(bufs.Get(), make([]byte, 64)...))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			sets.Drain()
			bufs.Drain()
		}
	}()
	wg.Wait()
	sets.Drain()
	bufs.Drain()
	if got := res.Bytes(); got != 0 || b.Used() != 0 {
		t.Fatalf("pools charge %d bytes (broker %d) after the final Drain", got, b.Used())
	}
}
