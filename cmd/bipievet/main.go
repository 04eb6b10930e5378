// Command bipievet runs BIPie's kernel-invariant analyzers (internal/lint)
// over the repository:
//
//	go run ./cmd/bipievet ./...
//	go run ./cmd/bipievet ./internal/bitpack ./internal/agg
//
// It prints one line per finding (file:line:col: message [analyzer]) and
// exits 1 when anything is flagged, 2 on load/type-check errors, 0 when
// clean. The suite and its directives (//bipie:kernel, //bipie:allow, ...)
// are documented in internal/lint and DESIGN.md §"Static invariants".
//
// The driver is standalone rather than a go vet -vettool because the
// vettool protocol is defined by golang.org/x/tools/go/analysis/unitchecker
// and this repository deliberately has no dependencies; CI runs bipievet as
// its own pipeline stage right next to go vet.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bipie/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	flags := flag.NewFlagSet("bipievet", flag.ExitOnError)
	list := flags.Bool("list", false, "list analyzers and exit")
	flags.Usage = func() {
		fmt.Fprintf(flags.Output(), "usage: bipievet [-list] [packages]\n\npackages are directories or ./... patterns relative to the current module\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bipievet:", err)
		return 2
	}
	loader, err := lint.NewModuleLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bipievet:", err)
		return 2
	}

	dirs, err := expandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bipievet:", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "bipievet: no packages matched")
		return 2
	}

	var diags []lint.Diagnostic
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bipievet:", err)
			return 2
		}
		pass := lint.NewPass(loader.Fset, pkg.Files, pkg.TestFiles, pkg.Types, pkg.Info, &diags)
		if err := pass.RunAnalyzers(analyzers); err != nil {
			fmt.Fprintln(os.Stderr, "bipievet:", err)
			return 2
		}
	}

	lint.SortDiagnostics(diags)
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Printf("%s: %s [%s]\n", pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "bipievet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// expandPatterns resolves package patterns to package directories:
// "./..."-style recursive patterns walk the tree (skipping testdata,
// hidden, and vendor directories, like the go tool), anything else is a
// single directory.
func expandPatterns(cwd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, pat := range patterns {
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				pat = cwd
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		st, err := os.Stat(dir)
		if err != nil || !st.IsDir() {
			return nil, fmt.Errorf("package pattern %q: not a directory", pat)
		}
		if !rec {
			if ok, err := hasGoFiles(dir); err != nil {
				return nil, err
			} else if ok {
				add(dir)
			}
			continue
		}
		err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if ok, err := hasGoFiles(path); err != nil {
				return err
			} else if ok {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test
// .go file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		return true, nil
	}
	return false, nil
}
