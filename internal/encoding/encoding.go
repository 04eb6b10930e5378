// Package encoding implements the columnstore segment encodings BIPie
// operates on (paper §2.1): integer bit packing (with frame-of-reference so
// signed ranges pack tightly), run-length encoding, delta encoding, and
// dictionary encoding for strings.
//
// An integer column's encoding is chosen per segment by ChooseInt, based on
// the two factors the paper names: size of the compressed data and
// usefulness for query execution (bit packing is what the fast aggregation
// kernels consume directly, so it wins ties). String columns are always
// dictionary-encoded (NewDict).
//
// The write path reads a column twice: one statistics pass (scanInts) from
// which every encoding's size follows exactly, then one pass that builds
// the winner straight from the source values.
package encoding

import (
	"fmt"

	"bipie/internal/bitpack"
)

// Kind identifies a column encoding.
type Kind uint8

const (
	// KindBitPack is frame-of-reference integer bit packing: values are
	// stored as (v - min) in the smallest fixed bit width.
	KindBitPack Kind = iota
	// KindRLE is run-length encoding of (value, count) pairs.
	KindRLE
	// KindDelta stores consecutive differences, bit packed, with periodic
	// checkpoints for random access.
	KindDelta
	// KindDict is dictionary encoding: distinct values in a dictionary plus
	// bit-packed integer ids.
	KindDict
)

// String returns the encoding name as used in segment metadata dumps.
func (k Kind) String() string {
	switch k {
	case KindBitPack:
		return "bitpack"
	case KindRLE:
		return "rle"
	case KindDelta:
		return "delta"
	case KindDict:
		return "dict"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IntColumn is an encoded integer column within one segment. All encodings
// support random access (Get) and batch decode (Decode); the scan hot paths
// additionally type-switch to the concrete encoding to run fused kernels on
// the encoded representation without materializing.
type IntColumn interface {
	// Kind reports the encoding.
	Kind() Kind
	// Len reports the number of rows.
	Len() int
	// Min and Max are the segment metadata bounds used for segment
	// elimination and overflow analysis (paper §2.1).
	Min() int64
	Max() int64
	// Get decodes the value at row i.
	Get(i int) int64
	// Decode materializes rows [start, start+len(dst)) into dst.
	Decode(dst []int64, start int)
	// SizeBytes is the encoded in-memory footprint.
	SizeBytes() int
}

// intStats is what one pass over a column tells the encoders: enough to
// size each integer encoding exactly, and to build any of them without
// deriving bounds, run count or monotonicity again.
type intStats struct {
	n        int
	min, max int64
	// runs is the number of maximal runs of equal values.
	runs int
	// deltaOr is the OR of the zig-zag deltas NewDelta packs, computed with
	// the same wrapping subtraction; its highest set bit is the largest
	// delta's, which is all the delta width needs.
	deltaOr uint64
	// asc and desc report a nondecreasing / nonincreasing column. They
	// compare values, not delta signs: a difference that wraps int64 has
	// the wrong sign.
	asc, desc bool
}

// scanInts is the statistics pass.
//
//bipie:kernel
//bipie:nobce
func scanInts(values []int64) intStats {
	st := intStats{n: len(values), asc: true, desc: true}
	if len(values) == 0 {
		return st
	}
	prev := values[0]
	mn, mx := prev, prev
	// steps counts the rows that differ from their predecessor, rises those
	// that exceed it; the rest of the steps are falls.
	var steps, rises int
	var deltaOr uint64
	for _, v := range values[1:] {
		mn, mx = min(mn, v), max(mx, v)
		deltaOr |= zigzag(v - prev)
		if v != prev {
			steps++
		}
		if v > prev {
			rises++
		}
		prev = v
	}
	st.min, st.max, st.runs, st.deltaOr = mn, mx, steps+1, deltaOr
	st.asc, st.desc = rises == steps, rises == 0
	return st
}

// bitPackWidth and deltaWidth are the bit widths NewBitPack and NewDelta
// pack at.
func (st intStats) bitPackWidth() uint8 { return bitpack.BitsFor(uint64(st.max - st.min)) }
func (st intStats) deltaWidth() uint8   { return bitpack.BitsFor(st.deltaOr) }

// bitPackBytes, rleBytes and deltaBytes are SizeBytes() of the column each
// constructor would build, computed without building it.
func (st intStats) bitPackBytes() int { return bitpack.WordsFor(st.n, st.bitPackWidth())*8 + 16 }
func (st intStats) rleBytes() int     { return st.runs*16 + 16 }
func (st intStats) deltaBytes() int {
	return bitpack.WordsFor(max(st.n-1, 0), st.deltaWidth())*8 + (st.n+deltaBlock-1)/deltaBlock*8 + 16
}

// ChooseInt encodes values with whichever supported integer encoding
// produces the smallest footprint, breaking ties in favor of bit packing
// (most useful to the scan kernels), then RLE, then delta. The footprints
// come from the statistics pass; only the winner is built.
func ChooseInt(values []int64) IntColumn {
	st := scanInts(values)
	kind, size := KindBitPack, st.bitPackBytes()
	if s := st.rleBytes(); s < size {
		kind, size = KindRLE, s
	}
	if s := st.deltaBytes(); s < size {
		kind = KindDelta
	}
	switch kind {
	case KindRLE:
		return newRLE(values, st)
	case KindDelta:
		return newDelta(values, st)
	default:
		return newBitPack(values, st)
	}
}

// blockRows is how many rows the encoders stage at a time on their way into
// a packed vector: small enough that the source rows and the staged values
// share the L1 cache, a multiple of 64 so every block starts on a word
// boundary of the packed vector (bitpack.Packer), and a divisor of ZoneRows
// so no block straddles a zone.
const blockRows = 512

const _ = -uint(ZoneRows%blockRows) - uint(blockRows%64) // both must be 0

// packBlocks bit-packs n values that fill produces a block at a time:
// fill(block, start) writes the values of rows [start, start+len(block))
// into block, and is called for consecutive blocks of blockRows rows (the
// last may be short). The encoders compute their packed values (offsets,
// deltas, ids) straight from the source column this way, so no full-length
// intermediate exists. width must hold every value; it was derived from the
// same data.
func packBlocks(n int, width uint8, fill func(block []uint64, start int)) *bitpack.Vector {
	p, err := bitpack.NewPacker(n, width)
	if err != nil {
		panic(err)
	}
	block := make([]uint64, min(n, blockRows))
	for start := 0; start < n; start += blockRows {
		b := block[:min(blockRows, n-start)]
		fill(b, start)
		p.Append(b)
	}
	v, err := p.Vector()
	if err != nil {
		panic(err)
	}
	return v
}

// DecodeAll fully materializes a column; a convenience for tests, result
// assembly, and the naive baseline engine.
func DecodeAll(c IntColumn) []int64 {
	out := make([]int64, c.Len())
	if c.Len() > 0 {
		c.Decode(out, 0)
	}
	return out
}

func checkDecodeRange(n, start, dstLen int) {
	if start < 0 || dstLen < 0 || start+dstLen > n {
		panic(fmt.Sprintf("encoding: decode range [%d,%d) out of bounds, len %d", start, start+dstLen, n))
	}
}
