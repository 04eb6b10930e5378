package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bipie/internal/datagen"
)

// testShell builds a shell over a small events table with its output
// streams captured.
func testShell(t *testing.T) (*shell, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	tbl, err := datagen.Events(2_000)
	if err != nil {
		t.Fatal(err)
	}
	s := newShell(tbl, "events")
	out, errOut := &bytes.Buffer{}, &bytes.Buffer{}
	s.out, s.errOut = out, errOut
	return s, out, errOut
}

// longINQuery renders a query whose IN-list pushes the line past n bytes.
func longINQuery(n int) string {
	var b strings.Builder
	b.WriteString("SELECT count(*) FROM events WHERE country IN ('us'")
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, ", 'v%06d'", i)
	}
	b.WriteString(") GROUP BY device")
	return b.String()
}

// TestReplLongLine is the regression test for the silent-exit bug: the
// old loop used bufio.Scanner's default 64 KB ceiling and dropped
// sc.Err(), so a long generated IN-list ended the session as if the user
// had hit ctrl-d. A >64 KB query must now execute, and the session must
// keep going afterwards.
func TestReplLongLine(t *testing.T) {
	s, out, errOut := testShell(t)
	long := longINQuery(96 * 1024)
	if len(long) <= 64*1024 {
		t.Fatalf("test query is only %d bytes, need >64K to cover the bug", len(long))
	}
	input := long + "\nSELECT sum(bytes) FROM events WHERE status = 200\n"
	if err := s.repl(strings.NewReader(input)); err != nil {
		t.Fatalf("repl returned %v on a %d-byte line", err, len(long))
	}
	if errOut.Len() != 0 {
		t.Fatalf("queries reported errors: %s", errOut.String())
	}
	// Both queries must have produced result rows: the long one groups by
	// device (2 rows), the follow-up is a plain aggregate (1 row).
	if got := strings.Count(out.String(), "row(s) in"); got != 2 {
		t.Fatalf("ran %d queries, want 2; output:\n%s", got, out.String())
	}
}

// TestReplOversizedLineReported pins the other half of the fix: a line
// beyond maxQueryLine is a reported error, not a clean-looking exit.
func TestReplOversizedLineReported(t *testing.T) {
	s, _, _ := testShell(t)
	err := s.repl(strings.NewReader(longINQuery(maxQueryLine+1024) + "\n"))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("repl returned %v, want bufio.ErrTooLong", err)
	}
}

// TestReplCleanExit: EOF and blank lines still end the session without
// error.
func TestReplCleanExit(t *testing.T) {
	s, _, _ := testShell(t)
	if err := s.repl(strings.NewReader("")); err != nil {
		t.Fatalf("EOF exit returned %v", err)
	}
	if err := s.repl(strings.NewReader("\n")); err != nil {
		t.Fatalf("blank-line exit returned %v", err)
	}
}

// TestReplSharedPlanCache: repeating a query through the REPL hits the
// shell's serve.Cache.
func TestReplSharedPlanCache(t *testing.T) {
	s, _, errOut := testShell(t)
	const q = "SELECT country, count(*) FROM events GROUP BY country\n"
	if err := s.repl(strings.NewReader(q + q + q)); err != nil {
		t.Fatal(err)
	}
	if errOut.Len() != 0 {
		t.Fatalf("unexpected errors: %s", errOut.String())
	}
	st := s.cache.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("cache saw %d hits / %d misses, want 2/1", st.Hits, st.Misses)
	}
}
