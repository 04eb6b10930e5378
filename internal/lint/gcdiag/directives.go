package gcdiag

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A DirKind identifies one of the three compiler-fact directives.
type DirKind int

const (
	// DirNoBCE is //bipie:nobce — no residual bounds check in the body.
	DirNoBCE DirKind = iota
	// DirNoEscape is //bipie:noescape <ident> — the named local stays on
	// the stack.
	DirNoEscape
	// DirInline is //bipie:inline — the function must stay inlinable.
	DirInline
)

func (k DirKind) String() string {
	switch k {
	case DirNoBCE:
		return "nobce"
	case DirNoEscape:
		return "noescape"
	case DirInline:
		return "inline"
	}
	return "unknown"
}

// A Directive is one annotation on one function, resolved to the file span
// the compiler facts will be matched against.
type Directive struct {
	Kind DirKind
	// File is the path as the compiler will print it: relative to the
	// module root, slash-separated.
	File string
	// Func is the compiler's display name for the function:
	// "(*Vector).scalarCmp" for pointer-receiver methods, "Type.Name"
	// for value receivers, a bare name for functions.
	Func string
	// Arg is the noescape identifier; empty for the other kinds.
	Arg string
	// DeclLine is the line of the func keyword — where the inliner anchors
	// its can/cannot-inline decision. StartLine..EndLine spans the whole
	// declaration including the body.
	DeclLine, StartLine, EndLine int
}

// ScanFile parses one Go source file (no type checking) and returns its
// directives. relFile is the module-root-relative path recorded on each
// directive. A //bipie:noescape naming an identifier that does not appear
// in the function is an error — a misspelled directive must not silently
// assert nothing.
func ScanFile(fset *token.FileSet, path, relFile string) ([]Directive, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return scanAST(fset, f, relFile)
}

func scanAST(fset *token.FileSet, f *ast.File, relFile string) ([]Directive, error) {
	var dirs []Directive
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil {
			continue
		}
		name := displayName(fn)
		declLine := fset.Position(fn.Pos()).Line
		endLine := fset.Position(fn.End()).Line
		for _, c := range fn.Doc.List {
			verb, rest, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			d := Directive{
				File: relFile, Func: name,
				DeclLine: declLine, StartLine: declLine, EndLine: endLine,
			}
			switch verb {
			case "nobce":
				d.Kind = DirNoBCE
			case "noescape":
				ident := strings.TrimSpace(rest)
				if ident == "" || !identInFunc(fn, ident) {
					return nil, fmt.Errorf("%s: //bipie:noescape %q names no identifier in %s", fset.Position(c.Pos()), ident, name)
				}
				d.Kind, d.Arg = DirNoEscape, ident
			case "inline":
				d.Kind = DirInline
			default:
				continue
			}
			dirs = append(dirs, d)
		}
	}
	return dirs, nil
}

// ScanModule walks every package directory under root (skipping testdata,
// vendor, hidden, and underscore directories, like the go tool) and
// collects the directives of all non-test Go files, with paths relative to
// root.
func ScanModule(root string) ([]Directive, error) {
	fset := token.NewFileSet()
	var dirs []Directive
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ds, err := ScanFile(fset, path, filepath.ToSlash(rel))
		if err != nil {
			return err
		}
		dirs = append(dirs, ds...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(dirs, func(i, j int) bool {
		if dirs[i].File != dirs[j].File {
			return dirs[i].File < dirs[j].File
		}
		return dirs[i].DeclLine < dirs[j].DeclLine
	})
	return dirs, nil
}

// displayName reconstructs the name the compiler's -m diagnostics use for
// a function: methods are qualified by their receiver type, with a (*T)
// prefix for pointer receivers.
func displayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	ptr := false
	if st, ok := t.(*ast.StarExpr); ok {
		ptr = true
		t = st.X
	}
	// Strip generic receiver type parameters: T[E] → T.
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	base := "?"
	if id, ok := t.(*ast.Ident); ok {
		base = id.Name
	}
	if ptr {
		return "(*" + base + ")." + fn.Name.Name
	}
	return base + "." + fn.Name.Name
}

// identInFunc reports whether ident occurs anywhere in the function
// declaration (parameters, results, or body).
func identInFunc(fn *ast.FuncDecl, ident string) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == ident {
			found = true
		}
		return !found
	})
	return found
}

// parseDirective splits a comment into a bipie directive verb and rest,
// the same shape internal/lint uses (duplicated here so gcdiag stays
// importable without the analyzer framework).
func parseDirective(text string) (verb, rest string, ok bool) {
	const prefix = "//bipie:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	body := text[len(prefix):]
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return body[:i], strings.TrimSpace(body[i+1:]), true
	}
	return body, "", true
}
