package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bipie/internal/obs"
	"bipie/internal/perfstat"
)

// ScanStats records what a scan actually did: how many segments were
// eliminated by metadata, which selection method each batch chose from its
// measured selectivity, and which aggregation strategy each segment ran.
// It makes the paper's runtime adaptivity (§3: per-segment strategy,
// per-batch selection) observable and testable. Every Prepared.RunTraced
// call returns its own by value. It is also the scan's one working record:
// units count their batches into private ones, the driver sums them, and
// the process-wide metrics derive from that sum.
type ScanStats struct {
	// SegmentsScanned and SegmentsEliminated partition the segment list.
	SegmentsScanned    int
	SegmentsEliminated int
	// Batches counts processed batch windows (skipped all-rejected batches
	// included).
	Batches int64
	// NoSelection counts batches processed whole: no filter, or a filter
	// that kept every row.
	NoSelection int64
	// Gather, Compact, SpecialGroup count batches per chosen method.
	Gather, Compact, SpecialGroup int64
	// EmptyBatches counts batches whose filter rejected every row,
	// zone-map skips included.
	EmptyBatches int64
	// BatchesSkipped counts batches skipped whole because a pushed
	// conjunct's zone map proved no row can match — batch-granularity
	// elimination, resolved from metadata before any kernel ran.
	BatchesSkipped int64
	// PackedKernelBatches counts batches where at least one pushed
	// conjunct ran a packed-domain compare kernel (no unpack).
	PackedKernelBatches int64
	// RLEFilterBatches and DictFilterBatches count batches where at least
	// one pushed conjunct evaluated in the RLE run domain or in
	// dictionary-code space, respectively — the per-encoding analogue of
	// PackedKernelBatches.
	RLEFilterBatches  int64
	DictFilterBatches int64
	// RunSpanBatches counts batches that ran the fully encoded span
	// pipeline: filter and sums both resolved at run granularity, no row
	// ever materialized. RunSkippedRows totals the rows those batches
	// discarded at run granularity without decoding them.
	RunSpanBatches int64
	RunSkippedRows int64
	// SelectivityHist buckets every processed batch by measured
	// selectivity: bucket i covers [i*10%, (i+1)*10%), except the last,
	// which includes 100%. Zone-skipped batches land in bucket 0.
	SelectivityHist [SelBuckets]int64
	// RowsTotal and RowsSelected measure the scan's overall selectivity.
	RowsTotal    int64
	RowsSelected int64
	// Strategies counts scan units per aggregation strategy (a segment
	// split across workers counts once per unit).
	Strategies map[string]int
	// Phases is the per-phase cycle attribution, indexed by obs.Phase,
	// filled only when the scan ran under a ScanTrace (nil otherwise).
	// Nanos/Rows/Calls per phase; convert to cycles with perfstat.
	Phases []obs.PhaseStat
}

// SelBuckets is the number of SelectivityHist buckets.
const SelBuckets = 10

// AvgSelectivity returns the scan's measured row survival rate in [0, 1];
// a scan that saw no rows reports 0 rather than dividing by zero — an
// empty scan selected nothing, and the finite answer keeps Format (and
// anything else doing arithmetic on the rate) free of NaN/Inf.
func (s *ScanStats) AvgSelectivity() float64 {
	if s.RowsTotal == 0 {
		return 0
	}
	return float64(s.RowsSelected) / float64(s.RowsTotal)
}

// add folds one scan unit's batch counters in. The driver owns the segment
// counts, Strategies and Phases, which no unit writes.
func (s *ScanStats) add(u *ScanStats) {
	s.Batches += u.Batches
	s.NoSelection += u.NoSelection
	s.Gather += u.Gather
	s.Compact += u.Compact
	s.SpecialGroup += u.SpecialGroup
	s.EmptyBatches += u.EmptyBatches
	s.BatchesSkipped += u.BatchesSkipped
	s.PackedKernelBatches += u.PackedKernelBatches
	s.RLEFilterBatches += u.RLEFilterBatches
	s.DictFilterBatches += u.DictFilterBatches
	s.RunSpanBatches += u.RunSpanBatches
	s.RunSkippedRows += u.RunSkippedRows
	for i, c := range u.SelectivityHist {
		s.SelectivityHist[i] += c
	}
	s.RowsTotal += u.RowsTotal
	s.RowsSelected += u.RowsSelected
}

// Format renders the stats for the demo tools.
func (s *ScanStats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "segments: %d scanned, %d eliminated\n", s.SegmentsScanned, s.SegmentsEliminated)
	fmt.Fprintf(&b, "batches:  %d total — %d unselected, %d gather, %d compact, %d special-group, %d empty\n",
		s.Batches, s.NoSelection, s.Gather, s.Compact, s.SpecialGroup, s.EmptyBatches)
	if s.BatchesSkipped > 0 || s.PackedKernelBatches > 0 || s.RLEFilterBatches > 0 || s.DictFilterBatches > 0 {
		fmt.Fprintf(&b, "encoded:  %d batches zone-skipped, %d on packed kernels, %d rle-run, %d dict-code\n",
			s.BatchesSkipped, s.PackedKernelBatches, s.RLEFilterBatches, s.DictFilterBatches)
	}
	if s.RunSpanBatches > 0 {
		fmt.Fprintf(&b, "rundom:   %d batches filtered and summed at run granularity, %d rows never decoded\n",
			s.RunSpanBatches, s.RunSkippedRows)
	}
	// AvgSelectivity is 0 (not NaN) for a zero-row scan, so the rows line
	// renders unconditionally and stays finite.
	fmt.Fprintf(&b, "rows:     %d of %d selected (%.1f%%)\n",
		s.RowsSelected, s.RowsTotal, 100*s.AvgSelectivity())
	if s.RowsTotal > 0 {
		fmt.Fprintf(&b, "selhist: ")
		for _, c := range s.SelectivityHist {
			fmt.Fprintf(&b, " %d", c)
		}
		b.WriteString("\n")
	}
	if len(s.Phases) > 0 {
		b.WriteString("phases:  ")
		for p, ps := range s.Phases {
			if ps.Calls == 0 {
				continue
			}
			fmt.Fprintf(&b, " %s %.2f", obs.Phase(p), perfstat.CyclesPerRow(time.Duration(ps.Nanos), int(s.RowsTotal)))
		}
		b.WriteString(" cycles/row\n")
	}
	var strategies []string
	for name, n := range s.Strategies {
		strategies = append(strategies, fmt.Sprintf("%s×%d", name, n))
	}
	sort.Strings(strategies) // map order would reshuffle the line run to run
	if len(strategies) > 0 {
		fmt.Fprintf(&b, "strategy: %s\n", strings.Join(strategies, ", "))
	}
	return b.String()
}

// domainSet is the set of encoded domains whose kernels ran for a batch,
// bit 1<<d per predDomain d; one batch can set several (a conjunction over
// mixed encodings).
type domainSet uint8

// note records one batch window's outcome: n rows seen (positive — the scan
// loop never counts an empty window), selected of them surviving the filter
// stage by way of how, with the conjuncts evaluated in domains. A batch
// resolved whole from metadata, before any kernel ran, is (n, 0, selWhole,
// 0). Span batches never choose a selection method — no row-level selection
// exists to classify — so by design they leave the gather/compact/special
// partition untouched and count under RunSpanBatches instead.
func (s *ScanStats) note(n, selected int, how selection, domains domainSet) {
	s.Batches++
	s.RowsTotal += int64(n)
	s.RowsSelected += int64(selected)
	if domains&(1<<domPacked) != 0 {
		s.PackedKernelBatches++
	}
	if domains&(1<<domRLE) != 0 {
		s.RLEFilterBatches++
	}
	if domains&(1<<domDict) != 0 {
		s.DictFilterBatches++
	}
	s.SelectivityHist[min(selected*SelBuckets/n, SelBuckets-1)]++
	if how == selSpans {
		s.RunSpanBatches++
		s.RunSkippedRows += int64(n - selected)
	}
	switch {
	case selected == 0:
		s.EmptyBatches++
	case how == selWhole:
		s.NoSelection++
	case how == selGather:
		s.Gather++
	case how == selCompact:
		s.Compact++
	case how == selSpecial:
		s.SpecialGroup++
	}
}
