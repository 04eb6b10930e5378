// Package gcdiag implements bipiegc, the compiler-diagnostic half of
// BIPie's static-analysis suite. Where bipievet (internal/lint) checks the
// *source* of the kernels — no allocating constructs, no panics, SWAR width
// discipline — gcdiag checks what the compiler actually *produced*: it
// parses the diagnostic stream of
//
//	go build -gcflags='<module>/...=-m=2 -d=ssa/check_bce/debug=1' ./...
//
// into per-position facts (bounds checks, escaping values, inlining
// decisions) and asserts three directives against them:
//
//	//bipie:nobce
//	    In a function's doc comment: the compiled function body contains no
//	    bounds-check (IsInBounds / IsSliceInBounds) the prove pass failed to
//	    eliminate. A refactor that re-introduces a per-row bounds check in a
//	    SWAR lane loop fails the gate instead of silently costing cycles.
//
//	//bipie:noescape <ident>
//	    In a function's doc comment: the named local (scratch buffers,
//	    accumulator arrays) must stay on the stack — any "moved to heap" or
//	    "escapes to heap" verdict for it is a finding.
//
//	//bipie:inline
//	    In a function's doc comment: the function must stay inlinable ("can
//	    inline" in the -m stream). Helpers on kernel hot paths (putU64, the
//	    spread* bit-spreaders, laneCmp.le) lose their entire benefit if an
//	    edit pushes them over the inline budget.
//
// Enforcement is zero-new, not zero-total: a checked-in baseline file
// records the accepted residual diagnostics (counted per function, without
// line numbers so unrelated edits do not churn it), and only diagnostics
// beyond the baseline fail the gate. The baseline pins the toolchain
// version it was produced with; on any other toolchain the gate skips with
// a notice rather than failing on diagnostics the pinned compiler never
// emitted.
//
// Everything in this package is pure parsing and bookkeeping — it never
// shells out — so unit tests run offline against canned compiler output in
// testdata. Only the cmd/bipiegc driver invokes the go tool.
package gcdiag

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// A FactKind classifies one compiler diagnostic line.
type FactKind int

const (
	// BoundsCheck is a check_bce "Found IsInBounds" / "Found
	// IsSliceInBounds" line: a bounds check the prove pass could not
	// eliminate.
	BoundsCheck FactKind = iota
	// Escape is an escape-analysis "<expr> escapes to heap" verdict.
	Escape
	// MovedToHeap is an escape-analysis "moved to heap: <ident>" verdict
	// for a named local.
	MovedToHeap
	// CanInline is an inliner "can inline <func>" decision.
	CanInline
	// CannotInline is an inliner "cannot inline <func>: <reason>" decision.
	CannotInline
	// InlineCall is an "inlining call to <func>" record at a call site.
	InlineCall
)

func (k FactKind) String() string {
	switch k {
	case BoundsCheck:
		return "bounds-check"
	case Escape:
		return "escape"
	case MovedToHeap:
		return "moved-to-heap"
	case CanInline:
		return "can-inline"
	case CannotInline:
		return "cannot-inline"
	case InlineCall:
		return "inline-call"
	}
	return "unknown"
}

// A Fact is one parsed compiler diagnostic, resolved to a file position.
// File is exactly as the compiler printed it (relative to the build's
// working directory, i.e. the module root for the bipiegc driver).
type Fact struct {
	File      string
	Line, Col int
	Kind      FactKind
	// Detail is the kind-specific payload: "IsInBounds"/"IsSliceInBounds"
	// for BoundsCheck, the subject expression or identifier for
	// Escape/MovedToHeap, the function name for the inline kinds.
	Detail string
}

// diagLineRE matches the position prefix of a compiler diagnostic line.
// Indented continuation lines (escape flow traces) and "# package" headers
// do not match and are skipped.
var diagLineRE = regexp.MustCompile(`^([^\s:]+\.go):(\d+):(\d+): (.*)$`)

// ParseDiagnostics reads a -m=2 -d=ssa/check_bce/debug=1 diagnostic stream
// and returns the facts the checks consume, in input order, deduplicated
// (-m=2 prints some escape verdicts twice: once with a flow trace and once
// bare).
func ParseDiagnostics(r io.Reader) ([]Fact, error) {
	var facts []Fact
	seen := map[Fact]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := diagLineRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		fact, ok := classify(m[4])
		if !ok {
			continue
		}
		fact.File, fact.Line, fact.Col = m[1], line, col
		if !seen[fact] {
			seen[fact] = true
			facts = append(facts, fact)
		}
	}
	return facts, sc.Err()
}

// classify maps a diagnostic message to a fact kind and detail. Messages
// outside the three checked families ("leaking param", "does not escape",
// cost annotations, ...) report ok=false and are dropped.
func classify(msg string) (Fact, bool) {
	switch {
	case msg == "Found IsInBounds":
		return Fact{Kind: BoundsCheck, Detail: "IsInBounds"}, true
	case msg == "Found IsSliceInBounds":
		return Fact{Kind: BoundsCheck, Detail: "IsSliceInBounds"}, true
	case strings.HasPrefix(msg, "moved to heap: "):
		return Fact{Kind: MovedToHeap, Detail: strings.TrimPrefix(msg, "moved to heap: ")}, true
	case strings.HasPrefix(msg, "can inline "):
		name := strings.TrimPrefix(msg, "can inline ")
		if i := strings.Index(name, " with cost "); i >= 0 {
			name = name[:i]
		}
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
		return Fact{Kind: CanInline, Detail: name}, true
	case strings.HasPrefix(msg, "cannot inline "):
		return Fact{Kind: CannotInline, Detail: strings.TrimPrefix(msg, "cannot inline ")}, true
	case strings.HasPrefix(msg, "inlining call to "):
		return Fact{Kind: InlineCall, Detail: strings.TrimPrefix(msg, "inlining call to ")}, true
	}
	// Escape verdicts come in two spellings: "x escapes to heap:" (with a
	// following indented flow trace) and "x escapes to heap".
	if expr, ok := strings.CutSuffix(strings.TrimSuffix(msg, ":"), " escapes to heap"); ok {
		return Fact{Kind: Escape, Detail: expr}, true
	}
	return Fact{}, false
}

// A Finding is one directive violation: a compiler fact that contradicts a
// //bipie:nobce, //bipie:noescape, or //bipie:inline annotation.
type Finding struct {
	File      string // file of the offending fact (== directive file)
	Line, Col int    // position of the offending fact
	Check     string // "nobce", "noescape", "inline"
	Func      string // annotated function's display name
	Detail    string // baseline-stable detail (no positions)
	Message   string // human-readable message
}

// Key returns the baseline identity of the finding: file, function, check,
// and detail — everything except line/column, so a baseline survives edits
// that only move code.
func (f Finding) Key() string {
	return fmt.Sprintf("%s\t%s\t%s\t%s", f.File, f.Func, f.Check, f.Detail)
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [bipiegc/%s]", f.File, f.Line, f.Col, f.Message, f.Check)
}

// Check evaluates every directive against the parsed compiler facts and
// returns the violations, in directive order then fact order.
func Check(directives []Directive, facts []Fact) []Finding {
	// Index facts by file for span matching, and inline decisions by
	// declaration position.
	byFile := map[string][]Fact{}
	type declPos struct {
		file string
		line int
	}
	canInline := map[declPos]bool{}
	cannotInline := map[declPos]string{}
	for _, fa := range facts {
		byFile[fa.File] = append(byFile[fa.File], fa)
		switch fa.Kind {
		case CanInline:
			canInline[declPos{fa.File, fa.Line}] = true
		case CannotInline:
			if i := strings.Index(fa.Detail, ": "); i >= 0 {
				cannotInline[declPos{fa.File, fa.Line}] = fa.Detail[i+2:]
			} else {
				cannotInline[declPos{fa.File, fa.Line}] = fa.Detail
			}
		}
	}

	var findings []Finding
	for _, d := range directives {
		switch d.Kind {
		case DirNoBCE:
			for _, fa := range byFile[d.File] {
				if fa.Kind != BoundsCheck || fa.Line < d.StartLine || fa.Line > d.EndLine {
					continue
				}
				findings = append(findings, Finding{
					File: fa.File, Line: fa.Line, Col: fa.Col,
					Check: "nobce", Func: d.Func, Detail: fa.Detail,
					Message: fmt.Sprintf("%s is //bipie:nobce but the compiler kept a bounds check (%s) here; add a length pre-check or hoist the slice header", d.Func, fa.Detail),
				})
			}
		case DirNoEscape:
			for _, fa := range byFile[d.File] {
				if fa.Line < d.StartLine || fa.Line > d.EndLine {
					continue
				}
				esc := (fa.Kind == MovedToHeap && fa.Detail == d.Arg) ||
					(fa.Kind == Escape && escapeSubject(fa.Detail) == d.Arg)
				if !esc {
					continue
				}
				findings = append(findings, Finding{
					File: fa.File, Line: fa.Line, Col: fa.Col,
					Check: "noescape", Func: d.Func, Detail: d.Arg,
					Message: fmt.Sprintf("%s declares //bipie:noescape %s but the compiler moved it to the heap", d.Func, d.Arg),
				})
			}
		case DirInline:
			pos := declPos{d.File, d.DeclLine}
			if canInline[pos] {
				continue
			}
			msg := fmt.Sprintf("%s is //bipie:inline but the compiler did not mark it inlinable", d.Func)
			if reason, ok := cannotInline[pos]; ok {
				msg = fmt.Sprintf("%s is //bipie:inline but cannot inline: %s", d.Func, reason)
			}
			findings = append(findings, Finding{
				File: d.File, Line: d.DeclLine, Col: 1,
				Check: "inline", Func: d.Func, Detail: "not-inlinable",
				Message: msg,
			})
		}
	}
	return findings
}

// escapeSubject reduces an escape-verdict expression to the identifier it
// is about, when it is about one: "&scratch" → "scratch", "scratch" →
// "scratch"; composite expressions return "" and never match a directive.
func escapeSubject(expr string) string {
	expr = strings.TrimPrefix(expr, "&")
	for _, r := range expr {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return ""
		}
	}
	return expr
}
