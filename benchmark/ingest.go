package main

import (
	"bytes"
	"fmt"

	"bipie/internal/encoding"
	"bipie/internal/engine"
	"bipie/internal/expr"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

// columns is a table's content in column-major form, as AppendColumns takes
// it.
type columns struct {
	ints map[string][]int64
	strs map[string][]string
}

// lineitemColumns generates n lineitem rows with the program's own
// generator and decodes them back into plain columns — the form data
// arrives in before the program has encoded anything.
func lineitemColumns(n int, seed int64) (columns, error) {
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: n, Seed: seed})
	if err != nil {
		return columns{}, err
	}
	return decodeColumns(tbl)
}

// decodeColumns materializes every column of a flushed table.
func decodeColumns(tbl *table.Table) (columns, error) {
	c := columns{ints: map[string][]int64{}, strs: map[string][]string{}}
	for _, col := range tbl.Schema() {
		for _, seg := range tbl.Segments() {
			switch col.Type {
			case table.Int64:
				ic, err := seg.IntCol(col.Name)
				if err != nil {
					return columns{}, err
				}
				c.ints[col.Name] = append(c.ints[col.Name], encoding.DecodeAll(ic)...)
			case table.String:
				sc, err := seg.StrCol(col.Name)
				if err != nil {
					return columns{}, err
				}
				for i := 0; i < sc.Len(); i++ {
					c.strs[col.Name] = append(c.strs[col.Name], sc.Get(i))
				}
			}
		}
	}
	return c, nil
}

// equal compares o, a decoded table, with the source columns c.
func (c columns) equal(o columns) error {
	for name, want := range c.ints {
		if err := diffColumn(name, o.ints[name], want); err != nil {
			return err
		}
	}
	for name, want := range c.strs {
		if err := diffColumn(name, o.strs[name], want); err != nil {
			return err
		}
	}
	return nil
}

func diffColumn[T comparable](name string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("column %s: %d rows, source has %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("column %s row %d: %v, source has %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// ingest: writes beside reads. One op takes pre-generated columns through
// the whole write path — New, AppendColumns, Flush (ChooseInt, dictionary
// build), WriteTo — then Load and one query on what was loaded. A layout
// change that speeds the scans but costs encode time or bytes shows here.
type ingest struct {
	src      columns
	check    *engine.Query
	wantRows int64
	wantQty  int64
	buf      bytes.Buffer
	bytes    float64
}

func (w *ingest) setup(sz sizes, seed int64) error {
	src, err := lineitemColumns(sz.ingest, seed)
	if err != nil {
		return err
	}
	w.src = src
	w.check = &engine.Query{Aggregates: []engine.Aggregate{
		engine.CountStar(), engine.SumOf(expr.Col(tpch.ColQuantity)),
	}}
	w.wantRows, w.wantQty = int64(sz.ingest), 0
	for _, q := range src.ints[tpch.ColQuantity] {
		w.wantQty += q
	}
	return nil
}

// roundTrip is the op: encode, serialize, reload. It returns the reloaded
// table.
func (w *ingest) roundTrip(rec *spanRecorder, parent spanID) (*table.Table, error) {
	sp := rec.begin("table.New", parent)
	tbl, err := table.New(tpch.Schema())
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("table.AppendColumns", parent)
	err = tbl.AppendColumns(w.src.ints, w.src.strs)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("table.Flush", parent)
	tbl.Flush()
	rec.end(sp)
	w.buf.Reset()
	sp = rec.begin("table.WriteTo", parent)
	_, err = tbl.WriteTo(&w.buf)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("table.Load", parent)
	loaded, err := table.Load(bytes.NewReader(w.buf.Bytes()))
	rec.end(sp)
	return loaded, err
}

func (w *ingest) verify() error {
	loaded, err := w.roundTrip(nil, 0)
	if err != nil {
		return err
	}
	w.bytes = float64(w.buf.Len()) / float64(w.wantRows)
	got, err := decodeColumns(loaded)
	if err != nil {
		return err
	}
	return w.src.equal(got)
}

func (w *ingest) clients() int         { return 1 }
func (w *ingest) bytesPerRow() float64 { return w.bytes }
func (w *ingest) close()               {}

func (w *ingest) op(_, _ int, rec *spanRecorder) (int64, bool) {
	root := rec.op("ingest")
	defer rec.end(root)
	loaded, err := w.roundTrip(rec, root)
	if err != nil {
		return w.wantRows, false
	}
	sp := rec.begin("engine.Run count,sum", root)
	res, err := engine.Run(loaded, w.check, engine.Options{})
	rec.end(sp)
	if err != nil || len(res.Rows) != 1 {
		return w.wantRows, false
	}
	st := res.Rows[0].Stats
	return w.wantRows, st[0].Count == w.wantRows && st[1].Sum == w.wantQty
}
