// Command bipie-demo loads a sample dataset and runs representative
// queries through both the BIPie fused scan and the naive row-at-a-time
// baseline, printing results, timings, and the speedup.
//
//	bipie-demo [-dataset tpch|grid] [-rows N] [-sel gather|compact|special] [-agg scalar|sort|register|multi]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"bipie/internal/agg"
	"bipie/internal/engine"
	"bipie/internal/expr"
	"bipie/internal/sel"
	"bipie/internal/table"
	"bipie/internal/tpch"
	"bipie/internal/workload"
)

func main() {
	dataset := flag.String("dataset", "tpch", "dataset: tpch or grid")
	rows := flag.Int("rows", 1_000_000, "rows to generate")
	selFlag := flag.String("sel", "", "force selection: gather|compact|special")
	aggFlag := flag.String("agg", "", "force aggregation: scalar|sort|register|multi")
	flag.Parse()

	opts := engine.Options{}
	switch *selFlag {
	case "":
	case "gather":
		opts.ForceSelection = engine.ForceSel(sel.MethodGather)
	case "compact":
		opts.ForceSelection = engine.ForceSel(sel.MethodCompact)
	case "special":
		opts.ForceSelection = engine.ForceSel(sel.MethodSpecialGroup)
	default:
		fmt.Fprintf(os.Stderr, "unknown -sel %q\n", *selFlag)
		os.Exit(2)
	}
	switch *aggFlag {
	case "":
	case "scalar":
		opts.ForceAggregation = engine.ForceAgg(agg.StrategyScalar)
	case "sort":
		opts.ForceAggregation = engine.ForceAgg(agg.StrategySortBased)
	case "register":
		opts.ForceAggregation = engine.ForceAgg(agg.StrategyInRegister)
	case "multi":
		opts.ForceAggregation = engine.ForceAgg(agg.StrategyMultiAggregate)
	default:
		fmt.Fprintf(os.Stderr, "unknown -agg %q\n", *aggFlag)
		os.Exit(2)
	}

	var tbl *table.Table
	var queries []*engine.Query
	var err error
	switch *dataset {
	case "tpch":
		fmt.Printf("generating %d lineitem rows...\n", *rows)
		tbl, err = tpch.Generate(tpch.GenOptions{Rows: *rows, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		queries = []*engine.Query{tpch.Q1()}
	case "grid":
		fmt.Printf("generating %d grid-workload rows...\n", *rows)
		tbl, err = workload.BuildTable(workload.TableSpec{
			Rows: *rows, Groups: 8, AggBits: 14, NumAggs: 3, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		queries = []*engine.Query{
			{
				GroupBy:    []string{"g"},
				Aggregates: []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("agg0"))},
				Filter:     expr.Lt(expr.Col("f"), expr.Int(100)),
			},
			{
				GroupBy: []string{"g"},
				Aggregates: []engine.Aggregate{
					engine.SumOf(expr.Col("agg0")),
					engine.SumOf(expr.Col("agg1")),
					engine.SumOf(expr.Col("agg2")),
				},
				Filter: expr.Lt(expr.Col("f"), expr.Int(900)),
			},
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -dataset %q\n", *dataset)
		os.Exit(2)
	}

	for qi, q := range queries {
		fmt.Printf("\n=== query %d ===\n", qi+1)
		// Prepare/Run split: planning happens once, outside the timed
		// region, as a serving tier would amortize it.
		p, err := engine.Prepare(tbl, q, opts)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		fast, stats, err := p.RunTraced(context.Background(), nil)
		if err != nil {
			log.Fatal(err)
		}
		fastDur := time.Since(start)
		start = time.Now()
		slow, err := engine.RunNaive(tbl, q)
		if err != nil {
			log.Fatal(err)
		}
		slowDur := time.Since(start)
		fmt.Print(fast.Format())
		agree := len(fast.Rows) == len(slow.Rows)
		for i := 0; agree && i < len(fast.Rows); i++ {
			for a := range fast.Rows[i].Stats {
				agree = agree && fast.Rows[i].Stats[a] == slow.Rows[i].Stats[a]
			}
		}
		fmt.Printf("bipie %v | naive %v | speedup %.1fx | oracle agrees: %v\n",
			fastDur.Round(time.Microsecond), slowDur.Round(time.Microsecond),
			slowDur.Seconds()/fastDur.Seconds(), agree)
		fmt.Print(stats.Format())
	}
}
