package encoding

import (
	"math"
	"slices"
	"sort"
	"strings"

	"bipie/internal/bitpack"
)

// DictColumn is a dictionary-encoded string column: a dictionary of the
// distinct values and a bit-packed vector of integer ids (paper §2.1). Ids
// are consecutive integers assigned from 0 in dictionary sort order, which
// gives BIPie's Group ID Mapper a perfect, collision-free hash of the
// column (paper §3): grouping on a dictionary column needs no hash table at
// all — the id *is* the group id.
type DictColumn struct {
	dict []string // sorted distinct values; index = id
	ids  *bitpack.Vector
}

const (
	// dictScanMax is the dictionary size up to which firstSeen finds a value
	// by scanning; past it a map takes over. Low-cardinality columns (flags,
	// statuses) never leave the scan.
	dictScanMax = 8
	// shortKeyLen is the longest string shortKey represents exactly.
	shortKeyLen = 7
)

// shortKey maps a string of at most shortKeyLen bytes to a word, one to
// one: the bytes, big-endian, under a byte holding the length.
func shortKey(s string) uint64 {
	k := uint64(len(s))
	for i := 0; i < len(s); i++ {
		k = k<<8 | uint64(s[i])
	}
	return k
}

// firstSeen hands out provisional dictionary ids in first-seen order, at
// most one lookup per row. A one-byte string (a flag, a status) is one load
// from a table indexed by its byte: Append reads that table inline and
// calls id only for a byte it has not seen. Other strings go through id:
// while the dictionary is tiny and its strings are short, a lookup compares
// the value's shortKey with every key in the table, without a data-dependent
// branch (a random three-valued flag column mispredicts every other
// compare-and-exit otherwise). Beyond that it is a map lookup, skipped when
// the row repeats the previous one.
type firstSeen struct {
	values []string            // values[id]
	keys   [dictScanMax]uint64 // shortKey(values[id]), while index is nil
	index  map[string]uint32   // value -> id, once the table is scanned no longer
	last   uint32              // the id handed out last
	// one[c] is 1 + the id of the one-byte string c, 0 while c is unseen.
	// Ids never change, so an entry stays right after the switch to the
	// map.
	one [256]uint32
}

func (f *firstSeen) id(v string) uint32 {
	if f.index == nil {
		if len(v) <= shortKeyLen {
			k, hit := shortKey(v), -1
			for j, kj := range f.keys[:len(f.values)] {
				if kj == k {
					hit = j
				}
			}
			if hit >= 0 {
				return uint32(hit)
			}
			if len(f.values) < dictScanMax {
				f.keys[len(f.values)] = k
				return f.add(v)
			}
		}
		f.index = make(map[string]uint32, 4*dictScanMax)
		for j, s := range f.values {
			f.index[s] = uint32(j)
		}
	}
	if len(f.values) > 0 && f.values[f.last] == v {
		return f.last
	}
	id, ok := f.index[v]
	if !ok {
		if uint64(len(f.values)) >= math.MaxUint32 {
			panic("encoding: dictionary exceeds 2^32 entries")
		}
		id = f.add(v)
		f.index[v] = id
	}
	f.last = id
	return id
}

// add gives v the next id, entering it in the one-byte table if it fits.
// A one-byte string gets its id here or nowhere, so the table holds every
// one-byte string seen.
func (f *firstSeen) add(v string) uint32 {
	id := uint32(len(f.values))
	f.values = append(f.values, v)
	if len(v) == 1 {
		f.one[v[0]] = id + 1
	}
	return id
}

// DictBuilder dictionary-encodes a string column as its rows arrive. Each
// value is interned on arrival: rows get provisional ids in first-seen order
// (firstSeen), and the builder keeps those ids, which hold no pointers, and
// the distinct values, never the rows' strings. Column sorts the distinct
// values, which yields the permutation to sort-order ids, and applies it as
// the ids are packed. The zero value is an empty builder.
type DictBuilder struct {
	seen firstSeen
	prov []uint32 // prov[row] = provisional id
}

// NewDictBuilder returns an empty builder that keeps its rows' ids in ids'
// storage, from ids[:0]; Release hands that storage back. The write path
// recycles id slices this way.
func NewDictBuilder(ids []uint32) *DictBuilder { return &DictBuilder{prov: ids[:0]} }

// Release empties the builder and returns its id storage, which the builder
// no longer references. Columns built before stay as they were: Column
// copies the ids it packs.
func (b *DictBuilder) Release() []uint32 {
	ids := b.prov[:0]
	*b = DictBuilder{}
	return ids
}

// Append interns values, in order. The id slice grows at most once per call,
// to at least twice its capacity, so many short appends stay linear.
func (b *DictBuilder) Append(values []string) {
	n := len(b.prov)
	if cap(b.prov)-n < len(values) {
		grown := make([]uint32, n, max(n+len(values), 2*cap(b.prov)))
		copy(grown, b.prov)
		b.prov = grown
	}
	b.prov = b.prov[:n+len(values)]
	prov := b.prov[n : n+len(values)]
	one := &b.seen.one
	for i := 0; i < len(values); i++ {
		// Rows whose byte is in the table take the inner loop, which makes
		// no call, so its state stays in registers; a row that needs id
		// leaves it.
		for ; i < len(values); i++ {
			v := values[i]
			if len(v) != 1 || one[v[0]] == 0 {
				break
			}
			prov[i] = one[v[0]] - 1
		}
		if i < len(values) {
			prov[i] = b.seen.id(values[i])
		}
	}
}

// Add interns one value.
func (b *DictBuilder) Add(v string) { b.prov = append(b.prov, b.seen.id(v)) }

// Len reports the number of rows appended.
func (b *DictBuilder) Len() int { return len(b.prov) }

// Column encodes the rows appended so far. It leaves the builder as it was:
// rows appended later extend it, and do not change a column already built.
func (b *DictBuilder) Column() *DictColumn {
	first := b.seen.values
	order := make([]uint32, len(first)) // order[sorted id] = provisional id
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(first[a], first[b]) })
	dict := make([]string, len(first))
	rank := make([]uint32, len(first)) // rank[provisional id] = sorted id
	for i, p := range order {
		dict[i], rank[p] = first[p], uint32(i)
	}
	width := bitpack.BitsFor(uint64(max(len(dict)-1, 0)))
	prov := b.prov
	ids := packBlocks(len(prov), width, func(block []uint64, start int) {
		for i, p := range prov[start : start+len(block)] {
			block[i] = uint64(rank[p])
		}
	})
	return &DictColumn{dict: dict, ids: ids}
}

// NewDict dictionary-encodes values: a DictBuilder run over one slice.
func NewDict(values []string) *DictColumn {
	var b DictBuilder
	b.Append(values)
	return b.Column()
}

// Kind reports KindDict.
func (c *DictColumn) Kind() Kind { return KindDict }

// Len reports the number of rows.
func (c *DictColumn) Len() int { return c.ids.Len() }

// Cardinality reports the number of distinct values — the upper bound on
// group count the strategy chooser reads from segment metadata (paper §5.3).
func (c *DictColumn) Cardinality() int { return len(c.dict) }

// Dict exposes the sorted dictionary; Dict()[id] is the value for id.
func (c *DictColumn) Dict() []string { return c.dict }

// IDs exposes the bit-packed id vector for the scan kernels.
func (c *DictColumn) IDs() *bitpack.Vector { return c.ids }

// ID returns the id at row i.
func (c *DictColumn) ID(i int) uint64 { return c.ids.Get(i) }

// Get returns the string value at row i.
func (c *DictColumn) Get(i int) string { return c.dict[c.ids.Get(i)] }

// IDOf returns the id for value v and whether v occurs in the column.
// Filters on dictionary columns use it to rewrite string predicates into
// integer id predicates evaluated on encoded data.
func (c *DictColumn) IDOf(v string) (uint64, bool) {
	i := sort.SearchStrings(c.dict, v)
	if i < len(c.dict) && c.dict[i] == v {
		return uint64(i), true
	}
	return 0, false
}

// SizeBytes reports the encoded footprint.
func (c *DictColumn) SizeBytes() int {
	n := c.ids.SizeBytes()
	for _, s := range c.dict {
		n += len(s) + 16
	}
	return n
}
