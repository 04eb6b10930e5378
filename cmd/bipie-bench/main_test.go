package main

import (
	"bytes"
	"strings"
	"testing"

	"bipie/internal/bench"
)

// The usage text lists exactly the registry's experiment ids, in order: the
// command keeps no list of its own.
func TestUsageListsTheRegistry(t *testing.T) {
	var out bytes.Buffer
	usage(&out)
	var listed []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "  ") {
			listed = append(listed, strings.Fields(line)[0])
		}
	}
	var want []string
	for _, e := range bench.Experiments() {
		want = append(want, e.ID)
	}
	if got := strings.Join(listed, " "); got != strings.Join(want, " ") {
		t.Errorf("usage lists %q, registry holds %q", got, want)
	}
}

func TestRender(t *testing.T) {
	tbl := &bench.Table{
		Title: "demo (cycles/row)",
		Head:  []string{"bits", "mode", "this repo"},
		Rows:  [][]any{{5, "gather", 1.234}, {}, {20, "sel·x", 12.0}},
		Note:  "paper: 1.08",
	}
	var out bytes.Buffer
	render(&out, "table9", tbl)
	want := "== table9: demo (cycles/row) ==\n" +
		"bits  mode    this repo\n" +
		"5     gather  1.23\n" +
		"\n" +
		"20    sel·x   12.00\n" +
		"(paper: 1.08)\n\n"
	if out.String() != want {
		t.Errorf("render:\n%s\nwant:\n%s", out.String(), want)
	}
}
