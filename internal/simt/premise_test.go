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
// Unit.regFile and Unit.localMem, or the gpu.Pages under them — per
// package: in the machine, the lane accessors of lanes.go (ReadRegs reads
// one operand of every lane and WriteRegs writes one, each after one
// tracer call that covers the lanes it touches; AccessLocal traces a
// local-memory access per lane, beside it), the fault itself, the
// constructor that makes the arrays, and the paging functions, which
// copy, share or clear whole pages that no fault can sit between. The ISA
// plug-ins name none of it: they reach it through the accessors.
var storageFuncs = map[string][]string{
	".":         {"New", "ReadRegs", "WriteRegs", "AccessLocal", "applyFault", "written", "image", "setImage", "zero", "restoreStats"},
	"../nvsim":  nil,
	"../amdsim": nil,
}

// isaDirs are the ISA plug-ins.
var isaDirs = []string{"../nvsim", "../amdsim"}

// storageNames are the selectors that reach a unit's storage.
var storageNames = []string{"regFile", "localMem", "regPages", "localPages"}

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
// functions above fails here, and in an ISA plug-in any mention at all; a
// new access path goes through an accessor, or joins the list with its
// tracer call.
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
// the machine calls it; the lane loops of ReadRegs and WriteRegs are then
// a bit test, a load and a store, traced or not. The ISA plug-ins call
// the tracer nowhere.
func TestTracerCallsSitOutsideLaneLoops(t *testing.T) {
	for _, dir := range append([]string{"."}, isaDirs...) {
		fset, files := parseDir(t, dir)
		calls := 0
		for _, file := range files {
			var stack []ast.Node
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if call, ok := n.(*ast.CallExpr); ok {
					switch name := calleeName(call); {
					case name == "RegAccess" && dir == ".":
						calls++
						for _, outer := range stack {
							switch outer.(type) {
							case *ast.ForStmt, *ast.RangeStmt:
								t.Errorf("%s: a RegAccess call inside the loop at %s: trace the lanes once, before it",
									fset.Position(call.Pos()), fset.Position(outer.Pos()))
							}
						}
					case (name == "RegAccess" || name == "LocalAccess") && dir != ".":
						t.Errorf("%s: a %s call in an ISA plug-in: its accesses are traced by simt's lane accessors", fset.Position(call.Pos()), name)
					}
				}
				stack = append(stack, n)
				return true
			})
		}
		if dir == "." && calls == 0 {
			t.Errorf("no RegAccess call found; the register file is traced somewhere this test does not look")
		}
	}
}

// TestStoresStayInsideTheBlock guards the second premise of unit state
// on copy-on-write pages: a store of a lane accessor lands inside the
// windows of the block its wave belongs to, so dropping the pages under a
// resident block's windows covers everything the block can write — in
// faulty runs too, because nothing in the index is data a flip can reach
// unchecked. The ISA plug-ins name no storage (TestStorageAccessIsTraced)
// and make no store into it. In the machine, every use of .regFile or
// .localMem outside New (which makes the arrays) and applyFault (the
// fault, which drops its own page) must be an element, a sub-slice, or
// the definition of a local that names the array (regs := u.regFile),
// whose every use is then held to the same rule. Every store through one
// — an assignment to an element, or a PutUint32 into a sub-slice — must
// take its index from a variable the function defines from the wave's
// RegBase or from the block's LocalBase, the latter only in a function
// that also refuses addresses against the block's LocalCount.
func TestStoresStayInsideTheBlock(t *testing.T) {
	// want is the number of stores per package: WriteRegs and AccessLocal.
	want := map[string]int{".": 2, "../nvsim": 0, "../amdsim": 0}
	for dir, n := range want {
		fset, files := parseDir(t, dir)
		stores := 0
		for _, file := range files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || dir == "." && (fn.Name.Name == "New" || fn.Name.Name == "applyFault") {
					continue
				}
				// aliases are the locals defined as a whole array, by name:
				// the array and the definition.
				type alias struct {
					array string
					def   *ast.AssignStmt
				}
				aliases := map[string]alias{}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
						return true
					}
					lhs, ok := as.Lhs[0].(*ast.Ident)
					if sel, isSel := as.Rhs[0].(*ast.SelectorExpr); ok && isSel && isArray(sel.Sel.Name) {
						aliases[lhs.Name] = alias{sel.Sel.Name, as}
					}
					return true
				})
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
						if lhs, ok := as.Lhs[0].(*ast.Ident); ok && lhs.Name == id.Name && mentions(as.Rhs[0], base) {
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
					case "regFile":
						if !based(index, "RegBase") {
							bad(at, "a store into .regFile whose index is not a variable defined from the wave's RegBase")
						}
					case "localMem":
						if !based(index, "LocalBase") {
							bad(at, "a store into .localMem whose index is not a variable defined from the block's LocalBase")
						}
						if !refusesBeyond(fn.Body, "LocalCount") {
							bad(at, "a store into .localMem in a function that does not refuse addresses beyond the block's LocalCount")
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
					array := ""
					switch x := n.(type) {
					case *ast.SelectorExpr:
						if isArray(x.Sel.Name) {
							array = x.Sel.Name
						}
					case *ast.Ident:
						// An alias, unless it is the name a selector picks.
						if sel, ok := stack[len(stack)-2].(*ast.SelectorExpr); !ok || sel.Sel != x {
							array = aliases[x.Name].array
						}
					}
					if array == "" || len(stack) < 2 {
						return true
					}
					switch use := stack[len(stack)-2].(type) {
					case *ast.AssignStmt:
						// The definition of an alias, from either side.
						if lhs, ok := use.Lhs[0].(*ast.Ident); !ok || aliases[lhs.Name].def != use {
							bad(use, ".%s is assigned whole, not through an element or a sub-slice", array)
						}
					case *ast.IndexExpr:
						// An element: a store when it is assigned to.
						if len(stack) >= 3 {
							switch st := stack[len(stack)-3].(type) {
							case *ast.AssignStmt:
								if slices.Contains(st.Lhs, ast.Expr(use)) {
									checkStore(st, array, use.Index)
								}
							case *ast.IncDecStmt:
								checkStore(st, array, use.Index)
							case *ast.UnaryExpr:
								if st.Op == token.AND {
									bad(st, "the address of an element of .%s is taken", array)
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
							checkStore(call, array, use.Low)
						case strings.HasPrefix(name, "Uint") && use.High == nil:
						default:
							bad(use, "a sub-slice of .%s goes somewhere other than a byte-order load or store", array)
						}
					default:
						bad(n, ".%s is used whole, not as an element or a sub-slice", array)
					}
					return true
				})
			}
		}
		if stores != n {
			t.Errorf("%s: found %d stores into unit storage, want %d", dir, stores, n)
		}
	}
}

// isArray reports whether name is the selector of one of a unit's two
// arrays.
func isArray(name string) bool { return name == "regFile" || name == "localMem" }

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
