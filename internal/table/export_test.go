package table

// AdoptSegment lets the external tests attach a segment they built
// themselves, through the same schema check Load applies.
var AdoptSegment = (*Table).adoptSegment

// ForEachColumn is the fan-out the write path runs per-column work on,
// and FanOutRows the fewest rows a column it spreads over the cores.
var ForEachColumn = forEachColumn

const FanOutRows = fanOutRows

// MutableCap is the largest capacity of the mutable region's int columns.
func MutableCap(t *Table) int {
	n := 0
	for _, col := range t.mutInts {
		n = max(n, cap(col))
	}
	return n
}
