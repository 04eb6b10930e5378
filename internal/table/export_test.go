package table

// AdoptSegment lets the external tests attach a segment they built
// themselves, through the same schema check Load applies.
var AdoptSegment = (*Table).adoptSegment

// MutableCap is the largest capacity of the mutable region's int columns.
func MutableCap(t *Table) int {
	n := 0
	for _, col := range t.mutInts {
		n = max(n, cap(col))
	}
	return n
}
