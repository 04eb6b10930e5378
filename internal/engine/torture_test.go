package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/expr"
	"bipie/internal/obs"
	"bipie/internal/sel"
	"bipie/internal/table"
)

// The capstone differential test: randomized tables exercising every
// feature at once — mixed encodings, deletes, unsealed mutable rows,
// string + integer group-by, string predicates, pushdown-eligible and
// residual filters, MIN/MAX next to SUM/AVG, HAVING, LIMIT, serialization
// round trips, and every forced strategy/selection combination — always
// compared against the naive oracle.
func TestTortureDifferential(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + seed))
			tbl := tortureTable(t, rng)
			for qi := 0; qi < 8; qi++ {
				q := tortureQuery(rng, qi)
				want, err := RunNaive(tbl, q)
				if err != nil {
					t.Fatal(err)
				}
				// Auto mode, a random forced combination, and a traced
				// parallel scan — with -race this pins that tracing does
				// not perturb results and that concurrent units merging
				// into one ScanTrace are race-free.
				combos := []struct {
					opts  Options
					trace *obs.ScanTrace
				}{
					{},
					{opts: Options{
						ForceSelection:   []*sel.Method{nil, ForceSel(sel.MethodGather), ForceSel(sel.MethodCompact), ForceSel(sel.MethodSpecialGroup)}[rng.Intn(4)],
						ForceAggregation: []*agg.Strategy{nil, ForceAgg(agg.StrategyScalar), ForceAgg(agg.StrategySortBased), ForceAgg(agg.StrategyMultiAggregate), ForceAgg(agg.StrategyReduce)}[rng.Intn(5)],
						Parallelism:      1 + rng.Intn(4),
					}},
					{
						opts:  Options{Parallelism: 2 + rng.Intn(3)},
						trace: obs.NewScanTrace(64),
					},
				}
				for ci, c := range combos {
					got, _ := runTraced(t, tbl, q, c.opts, c.trace)
					assertSameResult(t, fmt.Sprintf("q%d combo%d", qi, ci), got, want)
				}
			}

			// Flush, save, load; the loaded table must answer the last
			// query identically (modulo mutable rows, which flushing seals
			// for both sides).
			tbl.Flush()
			q := tortureQuery(rng, 99)
			want, err := Run(tbl, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := tbl.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := table.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(loaded, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "after save/load", got, want)
		})
	}
}

// tortureTable builds a table with columns that attract every encoding:
// a low-cardinality string, a small-domain int (groupable), a runny int
// (RLE), a sorted int (delta), a noisy int (bitpack), and a filter column;
// plus deletes and an unsealed tail.
func tortureTable(t *testing.T, rng *rand.Rand) *table.Table {
	t.Helper()
	tbl, err := table.New(table.Schema{
		{Name: "cat", Type: table.String},
		{Name: "bucket", Type: table.Int64},
		{Name: "runny", Type: table.Int64},
		{Name: "seq", Type: table.Int64},
		{Name: "noise", Type: table.Int64},
		{Name: "f", Type: table.Int64},
	}, table.WithSegmentRows(1500+rng.Intn(2000)))
	if err != nil {
		t.Fatal(err)
	}
	n := 6000 + rng.Intn(6000)
	run := int64(0)
	seq := int64(-50000)
	for i := 0; i < n; i++ {
		if rng.Intn(40) == 0 {
			run = rng.Int63n(5)
		}
		seq += rng.Int63n(4)
		err := tbl.AppendRow(
			fmt.Sprintf("c%02d", rng.Intn(1+rng.Intn(9))),
			int64(rng.Intn(6)),
			run,
			seq,
			rng.Int63n(1<<20)-(1<<19),
			rng.Int63n(1000),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Delete a few sealed rows; leave the tail unsealed.
	for _, seg := range tbl.Segments() {
		_ = seg
	}
	sealed := tbl.Rows() - tbl.MutableRows()
	for k := 0; k < 20 && sealed > 0; k++ {
		if err := tbl.Delete(rng.Intn(sealed)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func tortureQuery(rng *rand.Rand, qi int) *Query {
	groupPool := [][]string{
		{"cat"}, {"bucket"}, {"cat", "bucket"}, nil,
	}
	q := &Query{GroupBy: groupPool[qi%len(groupPool)]}

	aggPool := []Aggregate{
		CountStar(),
		SumOf(expr.Col("noise")),
		SumOf(expr.Col("runny")),
		SumOf(expr.Mul(expr.Col("runny"), expr.Sub(expr.Int(10), expr.Col("bucket")))),
		AvgOf(expr.Col("seq")),
		MinOf(expr.Col("seq")),
		MaxOf(expr.Col("noise")),
	}
	q.Aggregates = append(q.Aggregates, CountStar())
	for k := 0; k < 1+rng.Intn(4); k++ {
		q.Aggregates = append(q.Aggregates, aggPool[rng.Intn(len(aggPool))])
	}

	switch rng.Intn(5) {
	case 0:
		// no filter
	case 1:
		q.Filter = expr.Lt(expr.Col("f"), expr.Int(rng.Int63n(1100)))
	case 2:
		q.Filter = expr.AndP(
			expr.Ge(expr.Col("f"), expr.Int(100)),
			expr.StrInSet("cat", "c00", "c03", "zz"),
		)
	case 3:
		q.Filter = expr.OrP(
			expr.Lt(expr.Add(expr.Col("f"), expr.Col("bucket")), expr.Int(300)),
			expr.Eq(expr.Col("bucket"), expr.Int(2)),
		)
	default:
		q.Filter = expr.NotP(expr.StrEq("cat", "c01"))
	}

	if rng.Intn(3) == 0 {
		q.Having = []HavingCond{{Agg: 0, Op: expr.OpGE, Value: rng.Int63n(50)}}
	}
	if rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(5)
	}
	return q
}
