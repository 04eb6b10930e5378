package gcdiag

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestParseDiagnosticsGolden parses a canned -m=2 -d=ssa/check_bce/debug=1
// stream (testdata/diag.txt) and pins the exact fact list: package headers
// and indented escape-flow traces are skipped, out-of-family verdicts
// ("does not escape", "leaking param") are dropped, and the duplicated
// escape spelling (-m=2 prints "escapes to heap:" with a trace and then
// "escapes to heap" bare) collapses to one fact. The test never shells out,
// so it holds on any toolchain.
func TestParseDiagnosticsGolden(t *testing.T) {
	f, err := os.Open("testdata/diag.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	facts, err := ParseDiagnostics(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []Fact{
		{File: "internal/sel/compact.go", Line: 41, Col: 6, Kind: CanInline, Detail: "grow"},
		{File: "internal/bitpack/fastunpack.go", Line: 110, Col: 6, Kind: CanInline, Detail: "spreadNibbles"},
		{File: "internal/bitpack/vector.go", Line: 88, Col: 6, Kind: CanInline, Detail: "(*Vector).Get"},
		{File: "internal/bitpack/fastunpack.go", Line: 145, Col: 6, Kind: CannotInline, Detail: "putU64: function too complex: cost 90 exceeds budget 80"},
		{File: "internal/bitpack/fastunpack.go", Line: 58, Col: 3, Kind: InlineCall, Detail: "putU64"},
		{File: "internal/bitpack/fastunpack.go", Line: 37, Col: 16, Kind: BoundsCheck, Detail: "IsSliceInBounds"},
		{File: "internal/bitpack/fastunpack.go", Line: 102, Col: 21, Kind: BoundsCheck, Detail: "IsInBounds"},
		{File: "internal/bitpack/alloc.go", Line: 30, Col: 2, Kind: MovedToHeap, Detail: "scratch"},
		{File: "internal/bitpack/alloc.go", Line: 33, Col: 12, Kind: Escape, Detail: "make([]uint64, n)"},
	}
	if !reflect.DeepEqual(facts, want) {
		t.Errorf("ParseDiagnostics mismatch:\n got %d facts", len(facts))
		for i, fa := range facts {
			t.Errorf("  got[%d]  = %+v", i, fa)
		}
		for i, fa := range want {
			t.Errorf("  want[%d] = %+v", i, fa)
		}
	}
}

func TestClassifyDrops(t *testing.T) {
	for _, msg := range []string{
		"dst does not escape",
		"leaking param: v",
		"leaking param content: dst",
		"func literal does not escape",
		"ignoring self-assignment in v.words = v.words[:n]",
	} {
		if fa, ok := classify(msg); ok {
			t.Errorf("classify(%q) = %+v, want dropped", msg, fa)
		}
	}
}

func TestCheckNoBCE(t *testing.T) {
	dir := Directive{
		Kind: DirNoBCE, File: "a.go", Func: "(*V).unpack",
		DeclLine: 10, StartLine: 10, EndLine: 50,
	}
	facts := []Fact{
		{File: "a.go", Line: 20, Col: 3, Kind: BoundsCheck, Detail: "IsInBounds"},      // inside → finding
		{File: "a.go", Line: 60, Col: 3, Kind: BoundsCheck, Detail: "IsSliceInBounds"}, // outside span
		{File: "b.go", Line: 20, Col: 3, Kind: BoundsCheck, Detail: "IsInBounds"},      // other file
		{File: "a.go", Line: 20, Col: 3, Kind: Escape, Detail: "x"},                    // wrong kind
	}
	got := Check([]Directive{dir}, facts)
	if len(got) != 1 {
		t.Fatalf("Check = %d findings, want 1: %v", len(got), got)
	}
	f := got[0]
	if f.Check != "nobce" || f.File != "a.go" || f.Line != 20 || f.Func != "(*V).unpack" || f.Detail != "IsInBounds" {
		t.Errorf("finding = %+v", f)
	}
}

func TestCheckNoEscape(t *testing.T) {
	dir := Directive{
		Kind: DirNoEscape, File: "a.go", Func: "Sum", Arg: "accArr",
		DeclLine: 10, StartLine: 10, EndLine: 50,
	}
	cases := []struct {
		name string
		fact Fact
		want int
	}{
		{"moved-to-heap", Fact{File: "a.go", Line: 12, Kind: MovedToHeap, Detail: "accArr"}, 1},
		{"escape-addr", Fact{File: "a.go", Line: 12, Kind: Escape, Detail: "&accArr"}, 1},
		{"escape-bare", Fact{File: "a.go", Line: 12, Kind: Escape, Detail: "accArr"}, 1},
		{"other-ident", Fact{File: "a.go", Line: 12, Kind: MovedToHeap, Detail: "other"}, 0},
		{"composite-expr", Fact{File: "a.go", Line: 12, Kind: Escape, Detail: "make([]int, accArr)"}, 0},
		{"outside-span", Fact{File: "a.go", Line: 99, Kind: MovedToHeap, Detail: "accArr"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Check([]Directive{dir}, []Fact{c.fact})
			if len(got) != c.want {
				t.Errorf("Check = %d findings, want %d: %v", len(got), c.want, got)
			}
			if c.want == 1 && got[0].Check != "noescape" {
				t.Errorf("finding check = %q, want noescape", got[0].Check)
			}
		})
	}
}

func TestCheckInline(t *testing.T) {
	dir := Directive{
		Kind: DirInline, File: "a.go", Func: "putU64",
		DeclLine: 30, StartLine: 30, EndLine: 40,
	}
	t.Run("inlinable", func(t *testing.T) {
		facts := []Fact{{File: "a.go", Line: 30, Col: 6, Kind: CanInline, Detail: "putU64"}}
		if got := Check([]Directive{dir}, facts); len(got) != 0 {
			t.Errorf("Check = %v, want none", got)
		}
	})
	t.Run("cannot-inline", func(t *testing.T) {
		facts := []Fact{{File: "a.go", Line: 30, Col: 6, Kind: CannotInline, Detail: "putU64: function too complex: cost 90 exceeds budget 80"}}
		got := Check([]Directive{dir}, facts)
		if len(got) != 1 {
			t.Fatalf("Check = %d findings, want 1", len(got))
		}
		if got[0].Detail != "not-inlinable" || !strings.Contains(got[0].Message, "cost 90 exceeds budget 80") {
			t.Errorf("finding = %+v", got[0])
		}
	})
	t.Run("no-decision", func(t *testing.T) {
		// No inline fact at the decl position at all (e.g. the function
		// grew a go statement): still a finding.
		got := Check([]Directive{dir}, nil)
		if len(got) != 1 || got[0].Check != "inline" {
			t.Fatalf("Check = %v, want one inline finding", got)
		}
	})
}

func TestEscapeSubject(t *testing.T) {
	cases := []struct{ in, want string }{
		{"accArr", "accArr"},
		{"&accArr", "accArr"},
		{"&x1_y", "x1_y"},
		{"make([]uint64, n)", ""},
		{"v.words", ""},
		{"&v.words", ""},
	}
	for _, c := range cases {
		if got := escapeSubject(c.in); got != c.want {
			t.Errorf("escapeSubject(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
