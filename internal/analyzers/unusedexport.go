package analyzers

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"repro/internal/analyzers/framework"
	"repro/internal/analyzers/load"
)

// analyzerTestPkg is the fixture harness: only _test.go files import it,
// so its exports have no non-test referrer by design.
const analyzerTestPkg = "repro/internal/analyzers/analyzertest"

// UnusedExport returns the unusedexport analyzer over a referrer set:
// the objects the module's non-test code uses (RunSuite folds it from the
// whole module, whatever the patterns). It flags every exported
// non-method function of an internal/ package that nothing in the set or
// in its own package refers to. Each export gets a caller that a figure,
// CLI or example needs, or it goes with its tests; an allow is for a
// shim kept for bench/ or a cross-package test reference, never for
// deferring a deletion.
//
// Methods are out of scope: interface satisfaction hides their callers.
// A nil set leaves each package's own references only.
func UnusedExport(used map[types.Object]bool) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "unusedexport",
		Doc:  "flags exported functions of internal/ packages that no non-test code in the module refers to",
		Run: func(pass *framework.Pass) error {
			runUnusedExport(pass, used)
			return nil
		},
	}
}

func runUnusedExport(pass *framework.Pass, used map[types.Object]bool) {
	path := pass.Pkg.Path()
	if path == analyzerTestPkg || !slices.Contains(strings.Split(path, "/"), "internal") {
		return
	}
	own := make(map[types.Object]bool)
	foldUses(own, pass.TypesInfo)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if used[obj] || own[obj] {
				continue
			}
			pass.Reportf(fd.Pos(),
				"exported function %s has no non-test referrer in the module: give it a caller a figure, CLI or example needs, or delete it with its tests", fd.Name.Name)
		}
	}
}

// moduleUses folds the Uses of every package into one referrer set. The
// loader parses no _test.go file, so the set is exactly the module's
// non-test references.
func moduleUses(pkgs []*load.Package) map[types.Object]bool {
	used := make(map[types.Object]bool)
	for _, p := range pkgs {
		foldUses(used, p.TypesInfo)
	}
	return used
}

// foldUses adds the objects info's identifiers use to set, a generic
// function as its declaration.
func foldUses(set map[types.Object]bool, info *types.Info) {
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		set[obj] = true
	}
}
