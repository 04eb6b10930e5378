package tpch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// TestGenerateDigest pins the serialized bytes of three generated tables:
// one chunk, a ragged last chunk, and a table crossing a segment boundary.
// The generator's draw order defines every benchmark table, so a change to
// the row loop that moves one draw changes these digests.
func TestGenerateDigest(t *testing.T) {
	for _, c := range []struct {
		rows int
		seed int64
		want string
	}{
		{1000, 1, "0bcb68bd0559db3dc5f32bae1acfdfa094136b0285e2ef8ca86a5dd44a7f4904"},
		{1<<18 + 123, 7, "64b38ba51917c5d7a6f26cf6f00f1f30a86df3578550ea305937a25489e86dd9"},
		{2<<20 + 1234, 3, "2b44fc194f9e0d4f66f3467b4452af6d1e51748d19d980ab8167241b05e1e224"},
	} {
		t.Run(fmt.Sprintf("rows=%d,seed=%d", c.rows, c.seed), func(t *testing.T) {
			tbl, err := Generate(GenOptions{Rows: c.rows, Seed: c.seed})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if _, err := tbl.WriteTo(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestInt63nMatchesRand holds int63n to rand.Int63n draw for draw: the
// bounds fill uses, and one that rejects about half its first draws so
// redraw runs. The two sources must end at the same place in the stream.
func TestInt63nMatchesRand(t *testing.T) {
	const draws = 1_000_000
	for _, n := range []int64{MaxOrderDay + 1, 121, 30, 50, 209899 - 90100 + 1, 11, 9, 1<<62 + 1} {
		got, want := rand.New(rand.NewSource(n)), rand.New(rand.NewSource(n))
		for i := range draws {
			if g, w := int63n(got, got.Int63(), n), want.Int63n(n); g != w {
				t.Fatalf("n=%d draw %d: int63n %d, Int63n %d", n, i, g, w)
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("n=%d: the streams parted", n)
		}
	}
}

// BenchmarkGenerate times Generate over four chunks, table building
// included; ns/row is the figure to compare.
func BenchmarkGenerate(b *testing.B) {
	const rows = 1 << 20
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Generate(GenOptions{Rows: rows, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}
