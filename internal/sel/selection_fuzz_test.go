package sel

import (
	"math/rand"
	"reflect"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
)

// FuzzSelection holds the selection kernels whose cost follows the kept rows
// to the ones they replace, on a batch that ends at the vector's last value:
//
//   - GatherIndices at every batch position equals Vector.Get, the last
//     value's window reading the pad word;
//   - the sparse position loop, and Positions either side of its threshold,
//     equal CompactIndices;
//   - ReduceSumMasked equals physical compaction followed by ReduceSum, at
//     each of the four word sizes;
//   - GatherSum at the kept positions equals the sum of Get products, of
//     the vector with a second one of another width and with no second
//     one, under frames of reference drawn from the full 64-bit range.
//
// Mask bytes are raw fuzz bytes, so non-canonical ones (neither 0x00 nor
// 0xFF) check that every kernel reads a row's low bit, as compaction does.
func FuzzSelection(f *testing.F) {
	for width := 1; width <= 64; width += 7 {
		f.Add(uint8(width), uint16(width*13), []byte{0xFF, 0, 0, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0xFF, 1, 2, 0xFE})
	}
	f.Add(uint8(24), uint16(4096), make([]byte, 4096))
	f.Add(uint8(64), uint16(0), []byte{0xFF})
	f.Add(uint8(3), uint16(1), []byte{})
	f.Fuzz(func(t *testing.T, width uint8, start uint16, mask []byte) {
		width = 1 + width%64
		n := len(mask)
		rng := rand.New(rand.NewSource(int64(width)<<16 | int64(start)))
		vals := make([]uint64, int(start)+n)
		for i := range vals {
			vals[i] = rng.Uint64() >> (64 - width)
		}
		if len(vals) > 0 {
			vals[len(vals)-1] = ^uint64(0) >> (64 - width) // every bit of the last window
		}
		v := bitpack.MustPack(vals, width)
		sel := ByteVec(mask)

		all := make(IndexVec, n)
		for i := range all {
			all[i] = int32(i)
		}
		got := GatherIndices(nil, v, int(start), all)
		for j := range all {
			if got.Get(j) != v.Get(int(start)+j) {
				t.Fatalf("w=%d start=%d: gathered [%d] = %#x, Get %#x", width, start, j, got.Get(j), v.Get(int(start)+j))
			}
		}

		dense := CompactIndices(nil, sel)
		if sparse := sparseIndices(nil, sel); !reflect.DeepEqual(sparse, dense) {
			t.Fatalf("sparse positions %v, CompactIndices %v", sparse, dense)
		}
		for _, kept := range []int{0, len(dense), n} {
			if pos := Positions(nil, sel, kept); !reflect.DeepEqual(pos, dense) {
				t.Fatalf("Positions(kept=%d) %v, CompactIndices %v", kept, pos, dense)
			}
		}

		yWidth := 1 + (int(width)*7+int(start))%64
		yVals := make([]uint64, len(vals))
		for i := range yVals {
			yVals[i] = rng.Uint64() >> (64 - yWidth)
		}
		y := bitpack.MustPack(yVals, uint8(yWidth))
		a, c := rng.Uint64(), rng.Uint64()
		var dot, sum uint64
		for _, i := range dense {
			dot += (v.Get(int(start)+int(i)) + a) * (y.Get(int(start)+int(i)) + c)
			sum += v.Get(int(start)+int(i)) + a
		}
		if got := GatherSum(v, y, a, c, int(start), dense); got != dot {
			t.Fatalf("w=%d×%d start=%d: gathered product sum %#x, want %#x", width, yWidth, start, got, dot)
		}
		if got := GatherSum(v, nil, a, 1, int(start), dense); got != sum {
			t.Fatalf("w=%d start=%d: gathered sum %#x, want %#x", width, start, got, sum)
		}

		for _, bits := range []uint8{8, 16, 32, 64} {
			in := bitpack.NewUnpacked(bits, n)
			for i := 0; i < n; i++ {
				setLane(in, i, vals[int(start)+i])
			}
			want := compactLanes(in, sel)
			if got := agg.ReduceSumMasked(in, mask); got != agg.ReduceSum(want) {
				t.Fatalf("%d-byte lanes: masked sum %d, compacted sum %d", in.WordSize, got, agg.ReduceSum(want))
			}
		}
	})
}

// setLane stores x, truncated to u's word size, at row i.
func setLane(u *bitpack.Unpacked, i int, x uint64) {
	switch u.WordSize {
	case 1:
		u.U8[i] = uint8(x)
	case 2:
		u.U16[i] = uint16(x)
	case 4:
		u.U32[i] = uint32(x)
	default:
		u.U64[i] = x
	}
}

// compactLanes is physical compaction of a copy of in by sel.
func compactLanes(in *bitpack.Unpacked, sel ByteVec) *bitpack.Unpacked {
	n := in.Len()
	out := bitpack.NewUnpacked(uint8(8*in.WordSize), n)
	var k int
	switch in.WordSize {
	case 1:
		k = CompactU8(out.U8, in.U8, sel)
	case 2:
		k = CompactU16(out.U16, in.U16, sel)
	case 4:
		k = CompactU32(out.U32, in.U32, sel)
	default:
		k = CompactU64(out.U64, in.U64, sel)
	}
	out.Resize(k)
	return out
}
