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

// storageFuncs are the functions that may name Unit.Regs or Unit.Local:
// the traced accessors of the two ISAs (a tracer call beside every
// access), the fault itself, and whole-structure resets and copies that
// no fault can sit between.
var storageFuncs = map[string][]string{
	"../nvsim":  {"readReg", "writeReg", "execShared"},
	"../amdsim": {"readVGPR", "writeVGPR", "execLDS"},
	".":         {"applyFault", "Reset", "capture", "Restore"},
}

// TestStorageAccessIsTraced guards the premise of fault-site pruning
// (internal/finject/liveness.go): a flip is declared Masked without a
// simulation when the traced reference run shows no read of the entry
// before its next write, so an access of the register file or of local
// memory that reports nothing to the tracer would make pruned campaigns
// silently wrong. Any mention of .Regs or .Local outside the functions
// above fails here; a new access path goes through an accessor, or joins
// the list with its tracer call.
func TestStorageAccessIsTraced(t *testing.T) {
	for dir, allowed := range storageFuncs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, isFunc := decl.(*ast.FuncDecl)
					name := "a package-level declaration"
					if isFunc {
						name = fn.Name.Name
					}
					ast.Inspect(decl, func(n ast.Node) bool {
						sel, ok := n.(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != "Regs" && sel.Sel.Name != "Local" {
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
		}
		for _, name := range allowed {
			if !seen[name] {
				t.Errorf("%s: %s no longer names Regs or Local; drop it from the list", dir, name)
			}
		}
	}
}
