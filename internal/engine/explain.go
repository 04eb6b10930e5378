package engine

import (
	"fmt"
	"strconv"
	"strings"

	"bipie/internal/table"
)

// SegmentPlan describes how the scan would execute one segment: the
// runtime specialization decisions the paper's architecture makes (§3) —
// group domain from metadata, the chosen aggregation strategy, whether a
// special group is reserved, which filter conjuncts were pushed onto
// encoded data, and whether metadata eliminates the segment outright.
type SegmentPlan struct {
	// Segment is the ordinal position in scan order; the mutable-region
	// snapshot, when present, is the last entry.
	Segment int
	// Rows is the segment's row count (deleted rows included).
	Rows int
	// Eliminated reports metadata-based segment elimination; the remaining
	// fields are zero when true.
	Eliminated bool
	// Groups is the group-domain upper bound from metadata.
	Groups int
	// SpecialGroup reports whether a special group id is reserved for
	// filter fusion.
	SpecialGroup bool
	// Strategy is the aggregation strategy chosen for the segment.
	Strategy string
	// ModelCyclesPerRow is the cost model's estimate for the chosen
	// strategy (agg.EstimateCost under the active profile) — the "assumed"
	// side ExplainAnalyze compares measured aggregation cost against.
	ModelCyclesPerRow float64
	// FilterModelCyclesPerRow is the cost model's predicted encoded-filter
	// cost in cycles per conjunct-evaluated row, averaged over the live
	// pushed conjuncts — the unit the encoded-filter trace phase measures.
	// Zero when nothing live is pushed.
	FilterModelCyclesPerRow float64
	// DecodeModelCyclesPerRow is the cost model's predicted decode cost —
	// Σ unpack(width) over the columns the sum inputs and the residual
	// predicate read, plus one typed pass per operator of either's program
	// — in cycles per row of one timed decode pass over a batch whose values
	// load in full. Batches that gather or compact load fewer rows and
	// cost less. Zero when the plan decodes nothing.
	DecodeModelCyclesPerRow float64
	// PushedFilters counts filter conjuncts evaluated in their column's
	// encoded domain; PackedFilters counts how many of those run the
	// packed-domain SWAR compare kernels (the rest evaluate per run, in
	// dict-code space, by delta pruning, or unpack then compare);
	// ResidualFilter reports whether a residual predicate remains: what no
	// encoded domain could take (an OR tree, column-vs-column, a comparison
	// over arithmetic), evaluated as a typed narrow-word program over the
	// unpacked columns and combined into the mask after the pushed
	// conjuncts. A residual that metadata proves true does not count.
	PushedFilters  int
	PackedFilters  int
	ResidualFilter bool
	// PushedDomains labels each pushed conjunct's in-domain strategy, in
	// pushdown order: packed, unpack, rle-run, dict-eq, dict-ne,
	// dict-range, dict-bitmap, dict-const, delta-prune.
	PushedDomains []string
	// SumWordSizes lists, per distinct SUM/MIN/MAX input (equal inputs
	// share one; AVG reuses SUM's), the word size in bytes of the vector
	// the aggregation kernels consume: the unpacked word of a bit-packed
	// column, the narrowest word segment metadata proves an expression
	// fits, 8 for the int64 lane, 0 for a literal that needs no vector.
	SumWordSizes []int
	// WalkedSums, parallel to SumWordSizes, marks the inputs the
	// multi-aggregate walk computes per row from their operands — product
	// words — so no vector of them is ever stored; FormatPlans prints them
	// with a ×. Nil when the plan has none.
	WalkedSums []bool
	// RunLevelSums counts SUM slots aggregated at RLE run granularity —
	// the unfiltered whole-segment path and the span-filtered path both
	// count, since neither decodes a row.
	RunLevelSums int
	// MutableSnapshot marks the encoded snapshot of unsealed rows.
	MutableSnapshot bool
}

// Explain resolves the query against every segment and reports the
// per-segment execution plan without scanning any data. It is the one-shot
// form of Prepare + Prepared.Explain.
func Explain(t *table.Table, q *Query, opts Options) ([]SegmentPlan, error) {
	p, err := Prepare(t, q, opts)
	if err != nil {
		return nil, err
	}
	return p.Explain()
}

// Explain reports the per-segment execution plan from the shared plan
// cache — the same segPlans Run executes, read without building any scan
// state, so repeated calls over an unchanged table render byte-identical
// output. The per-batch selection choice is not in the output because it
// depends on measured selectivity at run time (paper §3); everything
// decided from metadata is.
func (p *Prepared) Explain() ([]SegmentPlan, error) {
	segments, nSealed := p.segments()
	plans := make([]SegmentPlan, 0, len(segments))
	for i, seg := range segments {
		sp, err := p.planFor(seg)
		if err != nil {
			return nil, err
		}
		out := SegmentPlan{Segment: i, Rows: seg.Rows(), MutableSnapshot: i >= nSealed}
		if sp.eliminated {
			out.Eliminated = true
			plans = append(plans, out)
			continue
		}
		out.Groups = sp.realGroups
		out.SpecialGroup = sp.special >= 0
		out.Strategy = sp.strategy.String()
		out.ModelCyclesPerRow = sp.modelCost
		out.PushedFilters = len(sp.pushed)
		live := 0
		for _, pp := range sp.pushed {
			if pp.domain() == domPacked {
				out.PackedFilters++
			}
			if !pp.planOp().constant() {
				live++
			}
			out.PushedDomains = append(out.PushedDomains, pp.strategyLabel())
		}
		if live > 0 {
			out.FilterModelCyclesPerRow = sp.filterModel / float64(live)
		}
		if sp.decodePasses > 0 {
			out.DecodeModelCyclesPerRow = sp.decodeModel / float64(sp.decodePasses)
		}
		out.ResidualFilter = sp.residual != nil
		for i, si := range sp.sums {
			out.SumWordSizes = append(out.SumWordSizes, si.wordSize)
			if si.walked {
				if out.WalkedSums == nil {
					out.WalkedSums = make([]bool, len(sp.sums))
				}
				out.WalkedSums[i] = true
			}
		}
		out.RunLevelSums = len(sp.runIdx) + len(sp.spanIdx)
		plans = append(plans, out)
	}
	return plans, nil
}

// FormatPlans renders segment plans as an aligned text table for the demo
// tools.
func FormatPlans(plans []SegmentPlan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %-8s %-9s %-10s %-8s %-12s %-8s %-8s %-9s %-8s %s\n",
		"segment", "rows", "groups", "special", "strategy", "model", "sumwords", "pushed", "packed", "residual", "runsums", "domains")
	for _, p := range plans {
		name := fmt.Sprint(p.Segment)
		if p.MutableSnapshot {
			name += "*"
		}
		if p.Eliminated {
			fmt.Fprintf(&b, "%-8s %-10d eliminated by metadata\n", name, p.Rows)
			continue
		}
		domains := strings.Join(p.PushedDomains, ",")
		if domains == "" {
			domains = "-"
		}
		words := "-"
		for i, w := range p.SumWordSizes {
			word := strconv.Itoa(w)
			if i < len(p.WalkedSums) && p.WalkedSums[i] {
				word += "×"
			}
			if i == 0 {
				words = word
			} else {
				words += "," + word
			}
		}
		fmt.Fprintf(&b, "%-8s %-10d %-8d %-9v %-10s %-8.1f %-12s %-8d %-8d %-9v %-8d %s\n",
			name, p.Rows, p.Groups, p.SpecialGroup, p.Strategy, p.ModelCyclesPerRow, words,
			p.PushedFilters, p.PackedFilters, p.ResidualFilter, p.RunLevelSums, domains)
	}
	if strings.ContainsRune(b.String(), '*') {
		b.WriteString("(* = encoded snapshot of the mutable region)\n")
	}
	return b.String()
}
