// Package table implements the columnstore table abstraction above the
// segment store: a schema, a mutable region for incoming writes, which
// interns strings into dictionaries as they arrive, and sealing of the
// mutable region into immutable encoded segments (paper §2.1). The mutable
// region of MemSQL is compressed into the immutable region by a background
// task; here sealing happens when the region reaches the segment row target
// or on an explicit Flush, which keeps the library deterministic.
package table

import (
	"fmt"
	"sync"

	"bipie/internal/colstore"
	"bipie/internal/encoding"
)

// ColType is a column's logical type.
type ColType uint8

const (
	// Int64 columns hold 64-bit signed integers (fixed-point decimals are
	// represented as scaled integers by convention).
	Int64 ColType = iota
	// String columns hold strings and are dictionary-encoded per segment.
	String
)

// Column declares one schema column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list.
type Schema []Column

// Table is a columnstore table: sealed immutable segments plus a mutable
// tail region of rows not yet encoded.
type Table struct {
	schema      Schema
	byName      map[string]int
	segments    []*colstore.Segment
	segmentRows int

	// Mutable region, column-major for cheap sealing. Strings are interned
	// as they arrive, so a string column holds dictionary ids, not strings.
	// Its storage exists while it holds rows: openMutable takes it from the
	// recycling pools, sealMutable gives it back (recycle.go).
	mutInts map[string][]int64
	mutStrs map[string]*encoding.DictBuilder
	mutLen  int

	// mutSnap caches an encoded snapshot of the mutable region so queries
	// can scan unsealed rows with the same fused kernels; invalidated by
	// every write (MemSQL instead encodes in a background task, §2.1 — a
	// write-invalidated cache keeps the library deterministic). snapMu
	// guards it: concurrent readers may race to encode the first snapshot
	// even though writes stay single-writer by contract.
	snapMu  sync.Mutex
	mutSnap *colstore.Segment
}

// Option configures table construction.
type Option func(*Table)

// WithSegmentRows overrides the rows-per-segment target (the default is
// colstore.SegmentRows ≈ 1M); tests and examples use smaller segments.
func WithSegmentRows(n int) Option {
	return func(t *Table) { t.segmentRows = n }
}

// New creates an empty table with the given schema.
func New(schema Schema, opts ...Option) (*Table, error) {
	t := &Table{
		schema:      schema,
		byName:      make(map[string]int, len(schema)),
		segmentRows: colstore.SegmentRows,
		mutInts:     make(map[string][]int64),
		mutStrs:     make(map[string]*encoding.DictBuilder),
	}
	for i, c := range schema {
		if c.Name == "" {
			return nil, fmt.Errorf("table: empty column name at position %d", i)
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		t.byName[c.Name] = i
	}
	for _, o := range opts {
		o(t)
	}
	if t.segmentRows < 1 {
		return nil, fmt.Errorf("table: segment rows must be positive")
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Rows returns the total row count across sealed segments and the mutable
// region.
func (t *Table) Rows() int {
	n := t.mutLen
	for _, s := range t.segments {
		n += s.Rows()
	}
	return n
}

// AppendRow appends one row; vals must match the schema order, with int64
// for Int64 columns and string for String columns. A rejected row leaves the
// table as it was.
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("table: row has %d values, schema has %d", len(vals), len(t.schema))
	}
	for i, c := range t.schema {
		switch c.Type {
		case Int64:
			if _, ok := vals[i].(int64); !ok {
				return fmt.Errorf("table: column %q wants int64, got %T", c.Name, vals[i])
			}
		case String:
			if _, ok := vals[i].(string); !ok {
				return fmt.Errorf("table: column %q wants string, got %T", c.Name, vals[i])
			}
		}
	}
	if t.mutLen == 0 {
		t.openMutable()
	}
	for i, c := range t.schema {
		if c.Type == Int64 {
			t.mutInts[c.Name] = appendCapped(t.mutInts[c.Name], t.segmentRows, vals[i].(int64))
		} else {
			t.mutStrs[c.Name].Add(vals[i].(string))
		}
	}
	t.mutLen++
	t.invalidateSnap()
	if t.mutLen >= t.segmentRows {
		t.sealMutable()
	}
	return nil
}

// AppendColumns appends many rows at once from column-major data; every
// schema column must be present with equal lengths. This is the bulk-load
// path the generators use.
func (t *Table) AppendColumns(ints map[string][]int64, strs map[string][]string) error {
	n := -1
	check := func(name string, l int) error {
		if n == -1 {
			n = l
		}
		if l != n {
			return fmt.Errorf("table: column %q has %d rows, expected %d", name, l, n)
		}
		return nil
	}
	for _, c := range t.schema {
		switch c.Type {
		case Int64:
			col, ok := ints[c.Name]
			if !ok {
				return fmt.Errorf("table: missing int column %q", c.Name)
			}
			if err := check(c.Name, len(col)); err != nil {
				return err
			}
		case String:
			col, ok := strs[c.Name]
			if !ok {
				return fmt.Errorf("table: missing string column %q", c.Name)
			}
			if err := check(c.Name, len(col)); err != nil {
				return err
			}
		}
	}
	if n <= 0 {
		return nil
	}
	// Append in segment-sized chunks so the mutable region never exceeds
	// one segment.
	done := 0
	for done < n {
		room := t.segmentRows - t.mutLen
		chunk := n - done
		if chunk > room {
			chunk = room
		}
		if t.mutLen == 0 {
			t.openMutable()
		}
		for _, c := range t.schema {
			if c.Type == Int64 {
				t.mutInts[c.Name] = appendCapped(t.mutInts[c.Name], t.segmentRows, ints[c.Name][done:done+chunk]...)
			} else {
				t.mutStrs[c.Name].Append(strs[c.Name][done : done+chunk])
			}
		}
		t.mutLen += chunk
		t.invalidateSnap()
		done += chunk
		if t.mutLen >= t.segmentRows {
			t.sealMutable()
		}
	}
	return nil
}

// Flush seals any rows remaining in the mutable region into a final
// (possibly short) segment. Queries read only sealed segments, mirroring
// the paper's focus on the immutable region.
func (t *Table) Flush() {
	if t.mutLen > 0 {
		t.sealMutable()
	}
}

func (t *Table) sealMutable() {
	// Reuse the query snapshot when it is already current; otherwise
	// encode now.
	t.snapMu.Lock()
	seg := t.mutSnap
	t.snapMu.Unlock()
	if seg == nil {
		seg = t.encodeMutable()
	}
	// The segment holds copies; the storage goes back for the next region.
	for _, c := range t.schema {
		if c.Type == Int64 {
			intPool.put(t.mutInts[c.Name], t.segmentRows)
		} else {
			idPool.put(t.mutStrs[c.Name].Release(), t.segmentRows)
		}
	}
	clear(t.mutInts)
	clear(t.mutStrs)
	t.segments = append(t.segments, seg)
	t.mutLen = 0
	t.invalidateSnap()
}

// openMutable gives every column of the empty mutable region storage from
// the recycling pools, none larger than one segment.
func (t *Table) openMutable() {
	for _, c := range t.schema {
		if c.Type == Int64 {
			t.mutInts[c.Name] = intPool.get(t.segmentRows)
		} else {
			t.mutStrs[c.Name] = encoding.NewDictBuilder(idPool.get(t.segmentRows))
		}
	}
}

// encodeMutable encodes the current mutable region into a segment without
// consuming it.
func (t *Table) encodeMutable() *colstore.Segment {
	seg := colstore.NewSegment(t.mutLen)
	for _, c := range t.schema {
		switch c.Type {
		case Int64:
			col := encoding.ChooseInt(t.mutInts[c.Name])
			if err := seg.AddInt(c.Name, col); err != nil {
				panic(err) // schema invariants make this unreachable
			}
		case String:
			col := t.mutStrs[c.Name].Column()
			if err := seg.AddString(c.Name, col); err != nil {
				panic(err)
			}
		}
	}
	return seg
}

// MutableSegment returns an encoded snapshot of the mutable region for
// scanning, or nil when it is empty. The snapshot is cached and reused
// until the next write, so repeated queries over a quiet table pay the
// encoding once. Every write produces a fresh snapshot pointer, which is
// what lets the engine cache plans by segment identity. Safe to call from
// concurrent readers; writes must still come from a single goroutine.
func (t *Table) MutableSegment() *colstore.Segment {
	if t.mutLen == 0 {
		return nil
	}
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if t.mutSnap == nil {
		t.mutSnap = t.encodeMutable()
	}
	return t.mutSnap
}

// invalidateSnap drops the cached mutable-region snapshot after a write.
func (t *Table) invalidateSnap() {
	t.snapMu.Lock()
	t.mutSnap = nil
	t.snapMu.Unlock()
}

// Segments returns the sealed immutable segments in row order.
func (t *Table) Segments() []*colstore.Segment { return t.segments }

// MutableRows reports rows still in the mutable region (not visible to
// segment scans until Flush).
func (t *Table) MutableRows() int { return t.mutLen }

// Delete marks a sealed row deleted, addressed by global row position
// across segments in order. It returns an error for positions in the
// mutable region or out of range. Every later scan drops the row, through
// a Prepared made before the delete too. Delete must not run concurrently
// with a scan of the same table: the segment's delete marks are not
// synchronized.
func (t *Table) Delete(row int) error {
	if row < 0 {
		return fmt.Errorf("table: negative row %d", row)
	}
	for _, s := range t.segments {
		if row < s.Rows() {
			s.MarkDeleted(row)
			return nil
		}
		row -= s.Rows()
	}
	return fmt.Errorf("table: row beyond sealed segments (mutable rows cannot be deleted before Flush)")
}

// HasColumn reports whether the schema has a column with this name and type.
func (t *Table) HasColumn(name string, typ ColType) bool {
	i, ok := t.byName[name]
	return ok && t.schema[i].Type == typ
}
