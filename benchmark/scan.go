package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"

	"bipie/internal/engine"
	"bipie/internal/obs"
	"bipie/internal/sql"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

func genLineitem(rows int, seed int64) (*table.Table, error) {
	return tpch.Generate(tpch.GenOptions{Rows: rows, Seed: seed})
}

// checksum folds a result — group keys, then every aggregate's count and
// sum — into 64 bits. Two results with the same checksum are taken as the
// same answer.
func checksum(res *engine.Result) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for i := range res.Rows {
		r := &res.Rows[i]
		for _, k := range r.Keys {
			io.WriteString(h, k)
			h.Write([]byte{0})
		}
		for _, s := range r.Stats {
			binary.LittleEndian.PutUint64(b[:8], uint64(s.Count))
			binary.LittleEndian.PutUint64(b[8:], uint64(s.Sum))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// sameResult compares two results field by field (the oracle check; the
// checksum is only for the measured loop).
func sameResult(a, b *engine.Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d groups, oracle has %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := &a.Rows[i], &b.Rows[i]
		if !slices.Equal(ra.Keys, rb.Keys) {
			return fmt.Errorf("group %d: keys %v, oracle has %v", i, ra.Keys, rb.Keys)
		}
		if len(ra.Stats) != len(rb.Stats) {
			return fmt.Errorf("group %d: %d aggregates, oracle has %d", i, len(ra.Stats), len(rb.Stats))
		}
		for j := range ra.Stats {
			if ra.Stats[j] != rb.Stats[j] {
				return fmt.Errorf("group %v aggregate %d: %+v, oracle has %+v", ra.Keys, j, ra.Stats[j], rb.Stats[j])
			}
		}
	}
	return nil
}

// A scanQuery is one prepared query with its expected answer.
type scanQuery struct {
	name string
	tbl  *table.Table
	q    *engine.Query
	prep *engine.Prepared
	want uint64
	rows int64 // rows one execution scans (the table's size)
}

func prepare(name string, tbl *table.Table, q *engine.Query) (*scanQuery, error) {
	p, err := engine.Prepare(tbl, q, engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", name, err)
	}
	return &scanQuery{name: name, tbl: tbl, q: q, prep: p, rows: int64(tbl.Rows())}, nil
}

func prepareSQL(name string, tbl *table.Table, src string) (*scanQuery, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	return prepare(name, tbl, st.Query)
}

// verify runs the prepared query once, compares it with the row-at-a-time
// oracle, and records the checksum the measured loop expects.
func (s *scanQuery) verify() error {
	got, err := s.prep.Run(context.Background())
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	want, err := engine.RunNaive(s.tbl, s.q)
	if err != nil {
		return fmt.Errorf("%s: oracle: %w", s.name, err)
	}
	if err := sameResult(got, want); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	s.want = checksum(got)
	return nil
}

// traceSpanCap bounds the per-unit span buffer of a traced scan: two
// segments of 256 batches, a handful of phases a batch.
const traceSpanCap = 4096

// run executes the query once. With a recorder it goes through RunTraced
// and hangs the scan's own phase spans under a harness span.
func (s *scanQuery) run(rec *spanRecorder, parent spanID) (int64, bool) {
	if rec == nil {
		res, err := s.prep.Run(context.Background())
		return s.rows, err == nil && checksum(res) == s.want
	}
	tr := obs.NewScanTrace(traceSpanCap)
	sp := rec.begin("engine.Prepared.RunTraced "+s.name, parent)
	res, _, err := s.prep.RunTraced(context.Background(), tr)
	rec.end(sp)
	rec.addScanSpans(sp, tr)
	return s.rows, err == nil && checksum(res) == s.want
}

// writtenBytes is Table.WriteTo's size without keeping the bytes.
func writtenBytes(t *table.Table) (int64, error) { return t.WriteTo(io.Discard) }

// q1Scan: one caller looping a shared Prepared TPC-H Q1 with all cores, as
// the paper runs it (Table 5). ~98 % of rows pass the filter, six possible
// groups, eight aggregates: group mapping, aggregation and decode do the
// work and the filter almost none.
type q1Scan struct {
	q     *scanQuery
	bytes float64
}

func (w *q1Scan) setup(sz sizes, seed int64) error {
	tbl, err := genLineitem(sz.lineitem, seed)
	if err != nil {
		return err
	}
	w.q, err = prepare("q1", tbl, tpch.Q1())
	return err
}

func (w *q1Scan) verify() error {
	n, err := writtenBytes(w.q.tbl)
	if err != nil {
		return err
	}
	w.bytes = float64(n) / float64(w.q.rows)
	return w.q.verify()
}

func (w *q1Scan) clients() int         { return 1 }
func (w *q1Scan) bytesPerRow() float64 { return w.bytes }
func (w *q1Scan) close()               {}

func (w *q1Scan) op(_, _ int, rec *spanRecorder) (int64, bool) {
	root := rec.op("q1_scan")
	defer rec.end(root)
	return w.q.run(rec, root)
}

// rleRunLen shapes filter_scan's run-length table: 512-row runs, so a
// 4096-row batch holds eight of them and the span pipeline answers it
// without materializing a row.
const rleRunLen = 512

func genRuns(rows int, seed int64) (*table.Table, error) {
	t, err := table.New(table.Schema{{Name: "rate", Type: table.Int64}})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, rows)
	for i := 0; i < rows; i += rleRunLen {
		v := rng.Int63n(1000)
		for j := i; j < i+rleRunLen; j++ {
			vals[j] = v
		}
	}
	if err := t.AppendColumns(map[string][]int64{"rate": vals}, nil); err != nil {
		return nil, err
	}
	t.Flush()
	return t, nil
}

// filterShapes are filter_scan's five queries over lineitem and the runs
// table, one per encoded domain a predicate can be answered in.
func filterShapes(lineitemRows int, seed int64) []struct{ name, table, sql string } {
	// The delta range covers 1 % of the monotone l_orderkey column at a
	// seeded offset, so all but a few batches are pruned from endpoints.
	width := int64(lineitemRows / 100)
	lo := rand.New(rand.NewSource(seed)).Int63n(int64(lineitemRows) - width)
	return []struct{ name, table, sql string }{
		{"packed3", "lineitem", "SELECT sum(l_extendedprice * l_discount) FROM lineitem " +
			"WHERE l_shipdate <= 2436 AND l_discount >= 5 AND l_quantity < 24"},
		{"packed_lowsel", "lineitem", "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_shipdate <= 30"},
		{"delta_range", "lineitem", fmt.Sprintf("SELECT count(*), sum(l_quantity) FROM lineitem "+
			"WHERE l_orderkey >= %d AND l_orderkey < %d", lo, lo+width)},
		{"dict_in", "lineitem", "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_returnflag IN ('A', 'R')"},
		{"rle_span", "runs", "SELECT count(*), sum(rate) FROM runs WHERE rate < 100"},
	}
}

// filterScan: one caller; an op is one sweep of the five shapes. The
// selection pillar: encoded filters, selection vectors and zone maps do the
// work and aggregation is a sum or two — q1_scan's mirror image.
type filterScan struct {
	shapes []*scanQuery
	bytes  float64
}

func (w *filterScan) setup(sz sizes, seed int64) error {
	lineitem, err := genLineitem(sz.lineitem, seed)
	if err != nil {
		return err
	}
	return w.setupOn(lineitem, sz.runs, seed)
}

// setupOn builds the runs table and prepares the shapes over an already
// built lineitem table.
func (w *filterScan) setupOn(lineitem *table.Table, runRows int, seed int64) error {
	runs, err := genRuns(runRows, seed)
	if err != nil {
		return err
	}
	tables := map[string]*table.Table{"lineitem": lineitem, "runs": runs}
	w.shapes = nil
	for _, s := range filterShapes(lineitem.Rows(), seed) {
		q, err := prepareSQL(s.name, tables[s.table], s.sql)
		if err != nil {
			return err
		}
		w.shapes = append(w.shapes, q)
	}
	return nil
}

func (w *filterScan) verify() error {
	var bytes, rows int64
	seen := map[*table.Table]bool{}
	for _, s := range w.shapes {
		if err := s.verify(); err != nil {
			return err
		}
		if !seen[s.tbl] {
			seen[s.tbl] = true
			n, err := writtenBytes(s.tbl)
			if err != nil {
				return err
			}
			bytes += n
			rows += s.rows
		}
	}
	w.bytes = float64(bytes) / float64(rows)
	return nil
}

func (w *filterScan) clients() int         { return 1 }
func (w *filterScan) bytesPerRow() float64 { return w.bytes }
func (w *filterScan) close()               {}

func (w *filterScan) op(_, _ int, rec *spanRecorder) (int64, bool) {
	parent := rec.op("filter_scan")
	var rows int64
	ok := true
	for _, s := range w.shapes {
		n, good := s.run(rec, parent)
		rows += n
		ok = ok && good
	}
	rec.end(parent)
	return rows, ok
}
