package simt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// storageFuncs are the functions that may name a unit's storage —
// Unit.Regs and Unit.Local, or the gpu.Pages under them: the traced
// accessors of the two ISAs (gather reads one source operand of every
// lane and scatter writes one destination register of every lane, each
// after one tracer call that covers the lanes it touches; a local-memory
// access is traced per lane, beside it), the fault itself, and the paging
// functions of the machine, which copy, share or clear whole pages that
// no fault can sit between.
var storageFuncs = map[string][]string{
	"../nvsim":  {"gather", "scatter", "execShared"},
	"../amdsim": {"readVGPR", "gather", "scatter", "execLDS"},
	".":         {"New", "applyFault", "written", "image", "setImage", "zero", "restoreStats"},
}

// storageNames are the selectors that reach a unit's storage.
var storageNames = []string{"Regs", "Local", "regPages", "localPages"}

// parseDir parses the non-test files of a package directory.
func parseDir(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			files = append(files, file)
		}
	}
	return fset, files
}

// TestStorageAccessIsTraced guards the premise of fault-site pruning
// (ace.Recorder, read by finject): a flip is declared Masked without a
// simulation when the traced reference run shows no read of the entry
// before its next write, so an access of the register file or of local
// memory that reports nothing to the tracer would make pruned campaigns
// silently wrong. Unit state on copy-on-write pages rests on the same
// list from the other side: the only writers are the accessors and the
// fault, so the machine knows which pages may have changed without being
// told by the per-lane path. Any mention of the storage outside the
// functions above fails here; a new access path goes through an
// accessor, or joins the list with its tracer call.
func TestStorageAccessIsTraced(t *testing.T) {
	for dir, allowed := range storageFuncs {
		fset, files := parseDir(t, dir)
		seen := map[string]bool{}
		for _, file := range files {
			for _, decl := range file.Decls {
				fn, isFunc := decl.(*ast.FuncDecl)
				name := "a package-level declaration"
				if isFunc {
					name = fn.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || !slices.Contains(storageNames, sel.Sel.Name) {
						return true
					}
					if isFunc && slices.Contains(allowed, name) {
						seen[name] = true
					} else {
						t.Errorf("%s: .%s is named in %s, outside the traced accessors", fset.Position(sel.Pos()), sel.Sel.Name, name)
					}
					return true
				})
			}
		}
		for _, name := range allowed {
			if !seen[name] {
				t.Errorf("%s: %s no longer names a unit's storage; drop it from the list", dir, name)
			}
		}
	}
}

// TestTracerCallsSitOutsideLaneLoops: a register event covers every lane
// of one operand (gpu.Tracer.RegAccess takes a lane mask), so no loop of
// either ISA calls it; the lane loops of gather and scatter are then a
// bit test, a load and a store, traced or not.
func TestTracerCallsSitOutsideLaneLoops(t *testing.T) {
	for _, dir := range []string{"../nvsim", "../amdsim"} {
		fset, files := parseDir(t, dir)
		calls := 0
		for _, file := range files {
			var stack []ast.Node
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if call, ok := n.(*ast.CallExpr); ok && calleeName(call) == "RegAccess" {
					calls++
					for _, outer := range stack {
						switch outer.(type) {
						case *ast.ForStmt, *ast.RangeStmt:
							t.Errorf("%s: a RegAccess call inside the loop at %s: trace the lanes once, before it",
								fset.Position(call.Pos()), fset.Position(outer.Pos()))
						}
					}
				}
				stack = append(stack, n)
				return true
			})
		}
		if calls == 0 {
			t.Errorf("%s: no RegAccess call found; the register file is traced somewhere this test does not look", dir)
		}
	}
}

// TestStoresStayInsideTheBlock guards the second premise of unit state
// on copy-on-write pages: a store of an ISA lands inside the windows of
// the block its wave belongs to, so dropping the pages under a resident
// block's windows covers everything the block can write — in faulty
// runs too, because nothing in the index is data a flip can reach
// unchecked. In both ISA packages, every use of .Regs or .Local must be
// an element or a sub-slice (never the array itself, which could be
// copied into or aliased), and every store through one — an assignment
// to an element, or a PutUint32 into a sub-slice — must take its index
// from a variable defined in the same function from the wave's RegBase
// (directly, or through a one-line index function that adds to it) or
// from the block's LocalBase, the latter only in a function that also
// refuses addresses against the block's LocalCount.
func TestStoresStayInsideTheBlock(t *testing.T) {
	for _, dir := range []string{"../nvsim", "../amdsim"} {
		fset, files := parseDir(t, dir)
		// indexFuncs are the functions whose single statement returns an
		// expression that adds to a RegBase.
		indexFuncs := map[string]bool{}
		for _, file := range files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || len(fn.Body.List) != 1 {
					continue
				}
				if ret, ok := fn.Body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 && mentions(ret.Results[0], "RegBase") {
					indexFuncs[fn.Name.Name] = true
				}
			}
		}
		stores := 0
		for _, file := range files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				// based reports whether the index expression is a variable
				// this function defines from the named base.
				based := func(index ast.Expr, base string) bool {
					id, ok := index.(*ast.Ident)
					if !ok {
						return false
					}
					found := false
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						as, ok := n.(*ast.AssignStmt)
						if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
							return true
						}
						if lhs, ok := as.Lhs[0].(*ast.Ident); !ok || lhs.Name != id.Name {
							return true
						}
						if mentions(as.Rhs[0], base) {
							found = true
						} else if call, ok := as.Rhs[0].(*ast.CallExpr); ok && base == "RegBase" && indexFuncs[calleeName(call)] {
							found = true
						}
						return true
					})
					return found
				}
				bad := func(n ast.Node, format string, args ...any) {
					t.Errorf("%s: in %s: "+format, append([]any{fset.Position(n.Pos()), fn.Name.Name}, args...)...)
				}
				checkStore := func(at ast.Node, array string, index ast.Expr) {
					stores++
					switch array {
					case "Regs":
						if !based(index, "RegBase") {
							bad(at, "a store into .Regs whose index is not a variable defined from the wave's RegBase")
						}
					case "Local":
						if !based(index, "LocalBase") {
							bad(at, "a store into .Local whose index is not a variable defined from the block's LocalBase")
						}
						if !refusesBeyond(fn.Body, "LocalCount") {
							bad(at, "a store into .Local in a function that does not refuse addresses beyond the block's LocalCount")
						}
					}
				}
				var stack []ast.Node
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return true
					}
					stack = append(stack, n)
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Regs" && sel.Sel.Name != "Local" {
						return true
					}
					if len(stack) < 2 {
						return true
					}
					switch use := stack[len(stack)-2].(type) {
					case *ast.IndexExpr:
						// An element: a store when it is assigned to.
						if len(stack) >= 3 {
							switch st := stack[len(stack)-3].(type) {
							case *ast.AssignStmt:
								if slices.Contains(st.Lhs, ast.Expr(use)) {
									checkStore(st, sel.Sel.Name, use.Index)
								}
							case *ast.IncDecStmt:
								checkStore(st, sel.Sel.Name, use.Index)
							case *ast.UnaryExpr:
								if st.Op == token.AND {
									bad(st, "the address of an element of .%s is taken", sel.Sel.Name)
								}
							}
						}
					case *ast.SliceExpr:
						// A sub-slice: only as an argument of a binary.ByteOrder
						// call, a store when that is a Put.
						call, ok := stack[len(stack)-3].(*ast.CallExpr)
						name := ""
						if ok {
							name = calleeName(call)
						}
						switch {
						case strings.HasPrefix(name, "Put") && use.High == nil:
							checkStore(call, sel.Sel.Name, use.Low)
						case strings.HasPrefix(name, "Uint") && use.High == nil:
						default:
							bad(use, "a sub-slice of .%s goes somewhere other than a byte-order load or store", sel.Sel.Name)
						}
					default:
						bad(sel, ".%s is used whole, not as an element or a sub-slice", sel.Sel.Name)
					}
					return true
				})
			}
		}
		// scatter and the one local-memory store of each ISA.
		if stores != 2 {
			t.Errorf("%s: found %d stores into unit storage, want 2 (one register accessor, one local-memory store)", dir, stores)
		}
	}
}

// mentions reports whether e contains a selector of the given name.
func mentions(e ast.Node, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// calleeName returns the called function's or method's bare name.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// refusesBeyond reports whether body holds an if statement whose
// condition compares against a selector of the given name and whose
// block returns.
func refusesBeyond(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !mentions(ifs.Cond, name) {
			return true
		}
		for _, st := range ifs.Body.List {
			if _, ok := st.(*ast.ReturnStmt); ok {
				found = true
			}
		}
		return true
	})
	return found
}
