package table

import (
	"math"
	"sync"
)

// The write path's transient buffers are recycled instead of being left to
// the collector: the mutable region's int columns and dictionary ids go back
// once sealMutable has encoded them, WriteTo's segment buffer and Load's
// read buffer once the call returns. The next table's appends, the next
// seal of the same table and the next WriteTo or Load take them back. A
// buffer goes back only when nothing can read it: the encoders, mutable
// snapshots and DecodeSegment all copy what they keep. A sync.Pool empties
// itself over two collections, so an idle process holds none of this; the
// pools need no option.
var (
	intPool  pool[int64]
	idPool   pool[uint32]
	bytePool pool[byte]
)

// anySize is the capacity limit of the codec buffers, which no table holds.
const anySize = math.MaxInt

// pool is a sync.Pool of emptied slices.
type pool[T any] struct{ p sync.Pool }

// get returns an empty recycled slice of capacity at most limit, or nil.
func (p *pool[T]) get(limit int) []T {
	b, _ := p.p.Get().(*[]T)
	if b == nil {
		return nil
	}
	if cap(*b) > limit {
		p.p.Put(b) // for a table with larger segments
		return nil
	}
	return (*b)[:0]
}

// put recycles s unless its capacity is over limit. The caller must drop
// every reference to s's storage.
func (p *pool[T]) put(s []T, limit int) {
	if cap(s) == 0 || cap(s) > limit {
		return
	}
	s = s[:0]
	p.p.Put(&s)
}

// appendCapped appends vals to s, growing it at most to limit values (unless
// more are needed) so that it stays recyclable.
func appendCapped[T any](s []T, limit int, vals ...T) []T {
	if n := len(s) + len(vals); n > cap(s) {
		grown := make([]T, len(s), max(n, min(limit, 2*cap(s))))
		copy(grown, s)
		s = grown
	}
	return append(s, vals...)
}
