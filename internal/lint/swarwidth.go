package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"strconv"
)

// laneIdentRE matches the SWAR mask-constant naming convention: lo8/hi8,
// lo16/hi16, lo32/hi32 (low bit of every lane, high bit of every lane) and
// the Lanes8/Lanes16/Lanes32 lane counts.
var laneIdentRE = regexp.MustCompile(`^(?:[Ll]o|[Hh]i|[Ll]anes|[Mm]ask|[Oo]nes)(8|16|32|64)$`)

// trailingDigitsRE extracts a function name's trailing lane-width suffix.
var trailingDigitsRE = regexp.MustCompile(`^(.*?)(\d+)$`)

// laneShiftAmounts are shift distances that carry lane-geometry meaning on a
// 64-bit SWAR word: lane boundaries (multiples of 8) and high-bit
// extractions (width-1). Shifts outside this set (e.g. the >>6 of bit-packed
// word addressing) say nothing about lane width and are ignored.
var laneShiftAmounts = map[int]bool{
	7: true, 15: true, 31: true, 63: true,
	8: true, 16: true, 24: true, 32: true, 40: true, 48: true, 56: true,
}

// NewSWARWidth builds the swarwidth analyzer.
//
// Invariant: a kernel named for a lane width uses masks and shifts
// consistent with that width. The SWAR kernels come in near-identical
// 8/16/32-bit variants (CmpEq8/CmpEq16/CmpEq32, Add8/..., InRegisterSum8/...),
// which makes copy-paste the dominant bug source: an hi8 mask left behind in
// a 16-bit body corrupts every second lane silently. For a function whose
// name ends in 8, 16, or 32 (inside a //bipie:kernelpkg package):
//
//   - lane-constant identifiers (lo*/hi*/Lanes*) must carry the same width
//     suffix;
//   - 64-bit composite mask literals must have a bit-pattern period
//     divisible by the lane width (a 16-bit-periodic mask is legal in an
//     8-bit kernel — that is how 8-bit lanes widen into 16-bit
//     accumulators — but an 8-bit-periodic mask in a 16-bit kernel is a
//     copy-paste bug);
//   - every run of ones in such a mask must lie inside one lane or cover
//     whole lanes: the unpack kernels' spread steps legally use masks of
//     twice their lane width (0x003F003F003F003F selects the low 6-bit
//     field of every other byte), but a 16-bit spread's 0x0FFF0FFF0FFF0FFF
//     pasted into the byte-lane spread leaves fields across byte
//     boundaries;
//   - constant shift distances with lane meaning (multiples of 8, or
//     width-1 high-bit extractions) must be a multiple of the lane width or
//     exactly width-1 — unless the shifted value goes, through ORs only,
//     into an AND with a mask literal: that is a spread step moving a field
//     to its lane (c<<8&0x00FFFFFF00000000), and the mask, checked as
//     above, says where it lands.
//
// Width-64 suffixes (CompactU64, putU64) have no sub-word lane structure
// and are not checked.
func NewSWARWidth() *Analyzer {
	a := &Analyzer{
		Name: "swarwidth",
		Doc:  "check SWAR masks and shifts against the declared lane width",
	}
	a.Run = func(pass *Pass) error {
		if !pass.KernelPkg {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					w, ok := funcLaneWidth(d.Name.Name)
					if !ok {
						continue
					}
					checkSWARBody(pass, d, w)
				case *ast.GenDecl:
					if d.Tok == token.CONST || d.Tok == token.VAR {
						checkMaskDecls(pass, d)
					}
				}
			}
		}
		return nil
	}
	return a
}

// funcLaneWidth extracts a checkable lane width from a function name:
// trailing digits that are exactly 8, 16, or 32.
func funcLaneWidth(name string) (int, bool) {
	m := trailingDigitsRE.FindStringSubmatch(name)
	if m == nil {
		return 0, false
	}
	switch m[2] {
	case "8", "16", "32":
		w, _ := strconv.Atoi(m[2])
		return w, true
	}
	return 0, false
}

// checkMaskDecls validates package- and file-level lane-mask declarations:
// a constant named with a width suffix (lo16, hi32, ...) must have exactly
// that bit-pattern period.
func checkMaskDecls(pass *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			m := laneIdentRE.FindStringSubmatch(name.Name)
			if m == nil || i >= len(vs.Values) {
				continue
			}
			w, _ := strconv.Atoi(m[1])
			if w == 64 {
				continue
			}
			v, ok := constUint64(pass, vs.Values[i])
			if !ok || v <= 0xFF {
				continue
			}
			if p := bitPeriod(v); p != w {
				pass.Reportf(vs.Values[i].Pos(), "mask constant %s declares %d-bit lanes but its bit pattern repeats every %d bits", name.Name, w, p)
			}
		}
	}
}

func checkSWARBody(pass *Pass, fn *ast.FuncDecl, width int) {
	masked := maskedShifts(pass, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if m := laneIdentRE.FindStringSubmatch(n.Name); m != nil {
				if d, _ := strconv.Atoi(m[1]); d != width {
					pass.Reportf(n.Pos(), "%d-bit lane identifier %s in %d-bit lane kernel %s", d, n.Name, width, fn.Name.Name)
				}
			}
		case *ast.BasicLit:
			if n.Kind != token.INT {
				return true
			}
			v, ok := constUint64(pass, n)
			if !ok || v <= 0xFF {
				return true
			}
			if p := bitPeriod(v); p < 64 && p%width != 0 {
				pass.Reportf(n.Pos(), "mask %s has a %d-bit-periodic pattern, inconsistent with %d-bit lanes in %s", n.Value, p, width, fn.Name.Name)
			} else if lo, hi, bad := straddlingRun(v, width); bad {
				pass.Reportf(n.Pos(), "mask %s has a run of ones over bits [%d,%d) that straddles a %d-bit lane boundary in %s", n.Value, lo, hi, width, fn.Name.Name)
			}
		case *ast.BinaryExpr:
			if (n.Op == token.SHL || n.Op == token.SHR) && !masked[n] {
				checkShift(pass, fn, n.Y, width)
			}
		case *ast.AssignStmt:
			if n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN {
				for _, rhs := range n.Rhs {
					checkShift(pass, fn, rhs, width)
				}
			}
		}
		return true
	})
}

func checkShift(pass *Pass, fn *ast.FuncDecl, amount ast.Expr, width int) {
	v, ok := constUint64(pass, amount)
	if !ok || v > 63 {
		return
	}
	s := int(v)
	if !laneShiftAmounts[s] {
		return
	}
	if s%width != 0 && s != width-1 {
		pass.Reportf(amount.Pos(), "shift by %d crosses %d-bit lane boundaries in %s (want a multiple of %d, or %d for the lane high bit)", s, width, fn.Name.Name, width, width-1)
	}
}

// maskedShifts collects the shift expressions of body whose value reaches,
// through ORs and parentheses only, an AND with a constant mask wider than
// a byte: field moves whose landing place the mask pins.
func maskedShifts(pass *Pass, body *ast.BlockStmt) map[*ast.BinaryExpr]bool {
	masked := map[*ast.BinaryExpr]bool{}
	var mark func(e ast.Expr)
	mark = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			mark(e.X)
		case *ast.BinaryExpr:
			switch e.Op {
			case token.OR:
				mark(e.X)
				mark(e.Y)
			case token.SHL, token.SHR:
				masked[e] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if and, ok := n.(*ast.BinaryExpr); ok && and.Op == token.AND {
			if v, ok := constUint64(pass, and.Y); ok && v > 0xFF {
				mark(and.X)
			} else if v, ok := constUint64(pass, and.X); ok && v > 0xFF {
				mark(and.Y)
			}
		}
		return true
	})
	return masked
}

// straddlingRun finds a maximal run of ones [lo, hi) in v that neither lies
// inside one width-bit lane nor covers whole lanes.
func straddlingRun(v uint64, width int) (lo, hi int, bad bool) {
	for lo < 64 {
		if v>>lo&1 == 0 {
			lo++
			continue
		}
		for hi = lo; hi < 64 && v>>hi&1 == 1; hi++ {
		}
		if lo/width != (hi-1)/width && (lo%width != 0 || hi%width != 0) {
			return lo, hi, true
		}
		lo = hi
	}
	return 0, 0, false
}

// constUint64 evaluates e as a constant uint64 if possible.
func constUint64(pass *Pass, e ast.Expr) (uint64, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	val := constant.ToInt(tv.Value)
	if val.Kind() != constant.Int {
		return 0, false
	}
	u, ok := constant.Uint64Val(val)
	return u, ok
}

// bitPeriod returns the smallest p in {8, 16, 32} such that v's 64-bit
// pattern is a repetition of its low p bits, or 64 when the pattern does
// not repeat.
func bitPeriod(v uint64) int {
	for _, p := range []int{8, 16, 32} {
		mask := uint64(1)<<p - 1
		chunk := v & mask
		repeated := uint64(0)
		for off := 0; off < 64; off += p {
			repeated |= chunk << off
		}
		if repeated == v {
			return p
		}
	}
	return 64
}
