package table

// AdoptSegment lets the external tests attach a segment they built
// themselves, through the same schema check Load applies.
var AdoptSegment = (*Table).adoptSegment
