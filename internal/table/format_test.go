package table_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"bipie/internal/encoding"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

// pinnedTables are the tables whose serialized bytes the format is pinned
// to: one 131 072-row lineitem segment (the ingest op's shape), three
// lineitem segments with deletes in each, and a table whose columns encode
// as RLE and delta.
var pinnedTables = []struct {
	name   string
	build  func() (*table.Table, error)
	sha256 string
}{
	{"lineitem 131072 rows", func() (*table.Table, error) {
		return tpch.Generate(tpch.GenOptions{Rows: 131072, Seed: 7})
	}, "824e754f70e5c8f801db5d40563ea6c3ac174e3e153771166b315c42058f2da6"},
	{"lineitem 3 segments with deletes", func() (*table.Table, error) {
		tbl, err := tpch.Generate(tpch.GenOptions{Rows: 300000, Seed: 39, SegmentRows: 100000})
		if err != nil {
			return nil, err
		}
		for _, row := range []int{0, 63, 64, 4095, 99999, 100000, 123456, 200063, 299999} {
			if err := tbl.Delete(row); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	}, "0eb465d2813513abaefae0067b57bc2104bc497df22cc625f80801be58a50806"},
	{"runs and timestamps", runsAndTimestamps, "77e142d1b8ae20ac62533decb8c9dcdf77f367657621f9afe729649fbf6ba218"},
}

// runsAndTimestamps is 50 000 rows in segments of 20 000: a column of long
// runs of wide values (RLE), an ascending timestamp (delta), a uniform
// column (bit packing) and a tag.
func runsAndTimestamps() (*table.Table, error) {
	const n = 50000
	tbl, err := table.New(table.Schema{
		{Name: "tag", Type: table.String},
		{Name: "runs", Type: table.Int64},
		{Name: "ts", Type: table.Int64},
		{Name: "v", Type: table.Int64},
	}, table.WithSegmentRows(20000))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(39))
	runs, ts, v, tags := make([]int64, n), make([]int64, n), make([]int64, n), make([]string, n)
	run, at := int64(0), int64(1)<<50
	for i := range runs {
		if rng.Intn(100) == 0 {
			run = rng.Int63n(1<<40) - 1<<39
		}
		at += rng.Int63n(16)
		runs[i], ts[i], v[i] = run, at, rng.Int63n(1000)
		tags[i] = []string{"", "east", "north", "south", "west"}[rng.Intn(5)]
	}
	err = tbl.AppendColumns(map[string][]int64{"runs": runs, "ts": ts, "v": v}, map[string][]string{"tag": tags})
	tbl.Flush()
	return tbl, err
}

func serialized(t testing.TB, tbl *table.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := tbl.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestWriteToFormatPinned: the serialized bytes of each pinned table hash
// to the digest they had when the format was pinned, and Load followed by
// WriteTo reproduces them byte for byte. Any change to the table or segment
// format, or to an encoder's choice or words, fails here.
func TestWriteToFormatPinned(t *testing.T) {
	kinds := map[encoding.Kind]bool{}
	for _, c := range pinnedTables {
		tbl, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range tbl.Segments() {
			for _, name := range seg.Columns() {
				if col, err := seg.IntCol(name); err == nil {
					kinds[col.Kind()] = true
				}
			}
		}
		raw := serialized(t, tbl)
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != c.sha256 {
			t.Errorf("%s: %d bytes hash to %s, pinned %s", c.name, len(raw), got, c.sha256)
		}
		loaded, err := table.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again := serialized(t, loaded); !bytes.Equal(again, raw) {
			t.Errorf("%s: Load then WriteTo wrote %d bytes that differ from the %d loaded", c.name, len(again), len(raw))
		}
	}
	for _, k := range []encoding.Kind{encoding.KindBitPack, encoding.KindRLE, encoding.KindDelta} {
		if !kinds[k] {
			t.Errorf("no pinned table has a %v column", k)
		}
	}
}

// allocated is the fewest bytes f allocated over three runs (a collection
// or another goroutine can only add to one).
func allocated(f func()) uint64 {
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// decodedBytes is the in-memory footprint of a table's encoded columns.
func decodedBytes(tbl *table.Table) int {
	n := 0
	for _, c := range tbl.Stats().Columns {
		n += c.EncodedBytes
	}
	return n
}

// Load copies each byte once: what it reads, and the columns it decodes
// into their own words. Staging the stream or growing a buffer from empty
// costs a multiple of that.
func TestLoadAllocatesOnce(t *testing.T) {
	tbl, err := pinnedTables[0].build()
	if err != nil {
		t.Fatal(err)
	}
	raw := serialized(t, tbl)
	bound := 1.2 * float64(len(raw)+decodedBytes(tbl))
	got := allocated(func() {
		if _, err := table.Load(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
	if float64(got) > bound {
		t.Errorf("Load of %d bytes (%d decoded) allocated %d, bound %.0f", len(raw), decodedBytes(tbl), got, bound)
	}
}

// WriteTo encodes each segment once, into one buffer sized up front.
func TestWriteToAllocatesOnce(t *testing.T) {
	tbl, err := pinnedTables[0].build()
	if err != nil {
		t.Fatal(err)
	}
	raw := serialized(t, tbl)
	bound := 1.2 * float64(len(raw))
	got := allocated(func() {
		if _, err := tbl.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if float64(got) > bound {
		t.Errorf("WriteTo of %d bytes allocated %d, bound %.0f", len(raw), got, bound)
	}
}

// loadAllocBound is the most Load may allocate on n bytes of input: a
// fixed allowance (the first chunk of a segment read, whatever length its
// prefix claims) and a multiple of what actually arrived (the read buffer,
// the decoded words, and per column and per segment bookkeeping).
func loadAllocBound(n int) uint64 { return 2<<20 + 16*uint64(n) }

// FuzzLoad: on arbitrary bytes Load never panics and allocates within
// loadAllocBound of the input's length, whatever its headers claim; a table
// it accepts writes back as exactly the bytes it read, and so does the same
// input loaded again through the recycled read buffer. The data Load
// derives from the packed words it accepted holds against a decode of
// them (checkDerived), so hostile words are checked against the packed
// kernels and not only for panics.
func FuzzLoad(f *testing.F) {
	addLoadSeeds(f)
	f.Fuzz(checkLoad)
}

// FuzzLoadChecksummed is FuzzLoad on inputs whose segments' length
// prefixes and checksums are rewritten to fit what the mutation left
// (resealed), so a mutated segment gets past DecodeSegment's CRC and its
// hostile bytes reach the column decoders.
func FuzzLoadChecksummed(f *testing.F) {
	addLoadSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkLoad(t, resealed(data)) })
}

// addLoadSeeds seeds a Load fuzz target with the pinned tables, a huge
// segment claim and nothing at all.
func addLoadSeeds(f *testing.F) {
	for _, c := range pinnedTables {
		tbl, err := c.build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(serialized(f, tbl))
	}
	f.Add(hugeSegmentTable())
	f.Add([]byte{})
}

// checkLoad is the check of FuzzLoad on one input.
func checkLoad(t *testing.T, data []byte) {
	r := bytes.NewReader(data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tbl, err := table.Load(r)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > loadAllocBound(len(data)) {
		t.Fatalf("Load of %d bytes allocated %d", len(data), got)
	}
	if err != nil {
		return
	}
	// Load stops at the table's end; what follows is not its to check.
	read := data[:len(data)-r.Len()]
	// A second load reads through the buffer the first gave back; the
	// first table must not see it.
	second, err := table.Load(bytes.NewReader(read))
	if err != nil {
		t.Fatalf("accepted %d bytes once, then refused them: %v", len(read), err)
	}
	for i, got := range []*table.Table{tbl, second} {
		if again := serialized(t, got); !bytes.Equal(again, read) {
			t.Fatalf("load %d: accepted %d bytes, wrote back %d that differ", i+1, len(read), len(again))
		}
	}
	checkDerived(t, tbl)
}

// resealed is a copy of a serialized table whose segments' length prefixes
// and trailing CRC32s are rewritten to fit their bytes: each segment runs
// as far as its prefix says, or to the end of the input, and its last four
// bytes become the checksum of the rest. A header that does not parse is
// left as it is.
func resealed(data []byte) []byte {
	b := bytes.Clone(data)
	if len(b) < 12 {
		return b
	}
	at := uint64(12)
	for range le.Uint32(b[8:]) { // columns: name length, name, type byte
		if uint64(len(b))-at < 4 {
			return b
		}
		if at += 4 + uint64(le.Uint32(b[at:])) + 1; at > uint64(len(b)) {
			return b
		}
	}
	if uint64(len(b))-at < 4 {
		return b
	}
	nsegs := le.Uint32(b[at:])
	at += 4
	for range nsegs {
		if uint64(len(b))-at < 8 {
			return b
		}
		n := min(le.Uint64(b[at:]), uint64(len(b))-at-8)
		le.PutUint64(b[at:], n)
		at += 8
		if n >= 4 {
			seg := b[at : at+n]
			le.PutUint32(seg[n-4:], crc32.ChecksumIEEE(seg[:n-4]))
		}
		at += n
	}
	return b
}

// checkDerived holds what Load derives from the packed words to a decode of
// them: every zone's bounds of a bit-packed column are the extrema of that
// zone's offsets, and a delta column's monotonicity flags are those of its
// values replayed from the first checkpoint.
func checkDerived(t *testing.T, tbl *table.Table) {
	t.Helper()
	for s, seg := range tbl.Segments() {
		for _, name := range seg.Columns() {
			col, err := seg.IntCol(name)
			if err != nil {
				continue // a string column
			}
			switch c := col.(type) {
			case *encoding.BitPackColumn:
				for start := 0; start < c.Len(); start += encoding.ZoneRows {
					rows := min(encoding.ZoneRows, c.Len()-start)
					wmn, wmx := ^uint64(0), uint64(0)
					for i := start; i < start+rows; i++ {
						wmn, wmx = min(wmn, c.Packed().Get(i)), max(wmx, c.Packed().Get(i))
					}
					if mn, mx := c.ZoneBounds(start, rows); mn != wmn || mx != wmx {
						t.Fatalf("segment %d column %s zone at %d: bounds [%d,%d], decoded [%d,%d]", s, name, start, mn, mx, wmn, wmx)
					}
				}
			case *encoding.DeltaColumn:
				vals := make([]int64, c.Len())
				c.Decode(vals, 0)
				asc, desc := true, true
				for i := 1; i < len(vals); i++ {
					asc, desc = asc && vals[i] >= vals[i-1], desc && vals[i] <= vals[i-1]
				}
				if a, d := c.Monotonic(); a != asc || d != desc {
					t.Fatalf("segment %d column %s: Monotonic (%v, %v), replayed (%v, %v)", s, name, a, d, asc, desc)
				}
			}
		}
	}
}

var le = binary.LittleEndian

// hugeSegmentTable is a valid table header of one column and one segment
// whose length prefix claims 16 GiB, followed by four bytes of it.
func hugeSegmentTable() []byte {
	b := append([]byte("BIPT"), 1, 0, 0, 0, 1, 0, 0, 0)
	b = append(le.AppendUint32(b, 1), 'a', byte(table.Int64))
	b = le.AppendUint32(b, 1)
	return append(le.AppendUint64(b, 16<<30), "BIPS"...)
}

// A length prefix of 16 GiB over four bytes fails on the missing bytes
// after allocating one chunk, not the claim.
func TestLoadHugeSegmentLength(t *testing.T) {
	raw := hugeSegmentTable()
	var err error
	got := allocated(func() { _, err = table.Load(bytes.NewReader(raw)) })
	if err == nil {
		t.Fatal("a truncated 16 GiB segment loaded")
	}
	if got > loadAllocBound(len(raw)) {
		t.Fatalf("a %d-byte input allocated %d MiB", len(raw), got>>20)
	}
}
