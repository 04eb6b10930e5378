// Package colstore implements the immutable region of the columnstore index
// (paper §2.1): rows grouped into segments of about one million records,
// each column encoded and stored separately, with per-column min/max
// metadata, delete marks, and a fixed-size moving batch window for scans.
package colstore

import (
	"fmt"

	"bipie/internal/encoding"
)

// SegmentRows is the target number of rows per segment ("a segment contains
// approximately one million records", paper §2.1).
const SegmentRows = 1 << 20

// BatchRows is the scan window size: the columnstore scan processes one
// batch of up to 4096 rows entirely before moving to the next and never
// revisits previous batches (paper §2.1, after MonetDB/X100).
const BatchRows = 4096

// The encoding layer's zone-map granularity must equal the scan's batch
// window, so a batch's min/max bounds are a single zone read. Both
// subtractions stay non-negative only when the constants are equal; a
// mismatch fails to compile here.
const _ = uint(BatchRows-encoding.ZoneRows) + uint(encoding.ZoneRows-BatchRows)

// Segment is one immutable columnstore segment. Columns are added once at
// build time; afterwards rows can only be marked deleted.
type Segment struct {
	n       int
	order   []string // column names in schema order
	intCols map[string]encoding.IntColumn
	strCols map[string]*encoding.DictColumn
	deleted []uint64 // bitmap, bit i set = row i deleted
	nDel    int
}

// NewSegment creates an empty segment expecting n rows in every column.
func NewSegment(n int) *Segment {
	return &Segment{
		n:       n,
		intCols: make(map[string]encoding.IntColumn),
		strCols: make(map[string]*encoding.DictColumn),
	}
}

// Rows returns the number of rows in the segment, including deleted rows
// (deleted rows still occupy positions; they are filtered via the selection
// byte vector, paper §4).
func (s *Segment) Rows() int { return s.n }

// DeletedRows returns how many rows are marked deleted.
func (s *Segment) DeletedRows() int { return s.nDel }

// Columns returns the column names in schema order.
func (s *Segment) Columns() []string { return s.order }

// AddInt attaches an encoded integer column. All columns of a segment must
// have the same length and preserve the same record order (paper §2.1).
func (s *Segment) AddInt(name string, col encoding.IntColumn) error {
	if col.Len() != s.n {
		return fmt.Errorf("colstore: column %q has %d rows, segment has %d", name, col.Len(), s.n)
	}
	if s.has(name) {
		return fmt.Errorf("colstore: duplicate column %q", name)
	}
	s.intCols[name] = col
	s.order = append(s.order, name)
	return nil
}

// AddString attaches a dictionary-encoded string column.
func (s *Segment) AddString(name string, col *encoding.DictColumn) error {
	if col.Len() != s.n {
		return fmt.Errorf("colstore: column %q has %d rows, segment has %d", name, col.Len(), s.n)
	}
	if s.has(name) {
		return fmt.Errorf("colstore: duplicate column %q", name)
	}
	s.strCols[name] = col
	s.order = append(s.order, name)
	return nil
}

func (s *Segment) has(name string) bool {
	_, ok1 := s.intCols[name]
	_, ok2 := s.strCols[name]
	return ok1 || ok2
}

// IntCol returns the encoded integer column with the given name.
func (s *Segment) IntCol(name string) (encoding.IntColumn, error) {
	c, ok := s.intCols[name]
	if !ok {
		return nil, fmt.Errorf("colstore: no integer column %q", name)
	}
	return c, nil
}

// StrCol returns the dictionary string column with the given name.
func (s *Segment) StrCol(name string) (*encoding.DictColumn, error) {
	c, ok := s.strCols[name]
	if !ok {
		return nil, fmt.Errorf("colstore: no string column %q", name)
	}
	return c, nil
}

// MarkDeleted marks row i deleted. Scans will zero its position in every
// selection byte vector so no operator processes it (paper §4).
func (s *Segment) MarkDeleted(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("colstore: delete row %d out of range [0,%d)", i, s.n))
	}
	if s.deleted == nil {
		s.deleted = make([]uint64, (s.n+63)/64)
	}
	w, b := i>>6, uint(i&63)
	if s.deleted[w]&(1<<b) == 0 {
		s.deleted[w] |= 1 << b
		s.nDel++
	}
}

// IsDeleted reports whether row i is marked deleted.
func (s *Segment) IsDeleted(i int) bool {
	if s.deleted == nil {
		return false
	}
	return s.deleted[i>>6]&(1<<uint(i&63)) != 0
}

// ApplyDeletes zeroes positions of deleted rows in the selection byte vector
// sel, which covers rows [start, start+len(sel)). It is a no-op when the
// segment has no deletes, the common case.
func (s *Segment) ApplyDeletes(sel []byte, start int) {
	if s.nDel == 0 {
		return
	}
	for i := range sel {
		if s.IsDeleted(start + i) {
			sel[i] = 0
		}
	}
}

// Batch is one scan window of rows [Start, Start+N).
type Batch struct {
	Start int
	N     int
}

// Batches splits the segment into scan windows of at most BatchRows rows.
func (s *Segment) Batches() []Batch {
	batches := make([]Batch, 0, (s.n+BatchRows-1)/BatchRows)
	for start := 0; start < s.n; start += BatchRows {
		n := BatchRows
		if start+n > s.n {
			n = s.n - start
		}
		batches = append(batches, Batch{Start: start, N: n})
	}
	return batches
}
