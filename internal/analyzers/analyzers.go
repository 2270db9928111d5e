// Package analyzers holds the hxlint suite: five static checks that turn
// the engine's prose determinism contracts (README "Engine architecture",
// codec comments) into machine-checked invariants, and a sixth,
// unusedexport, that keeps dead exports from regrowing. Each analyzer
// documents its contract in its Doc string; false positives are silenced
// in place with a reasoned `//hx:allow <analyzer> <reason>` comment (see
// the framework package — a reasonless allow is itself a finding).
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analyzers/framework"
)

// All returns the full suite in reporting order. used is the module's
// non-test referrer set unusedexport consults (see UnusedExport).
func All(used map[types.Object]bool) []*framework.Analyzer {
	return []*framework.Analyzer{
		MapRange,
		RNGDiscipline,
		ShardSafe,
		UnstableSort,
		CodecCoverage,
		UnusedExport(used),
	}
}

// deterministicPackages are the import paths whose code feeds Result
// bytes, cache keys or golden output: the scope of the order-sensitivity
// analyzers (maprange, unstablesort).
var deterministicPackages = []string{
	"repro/internal/sim",
	"repro/internal/topo",
	"repro/internal/routing",
	"repro/internal/experiments",
	"repro/internal/cache",
}

// inScope reports whether the package is one of the listed paths (or a
// child of one), or an analyzer-named test fixture package (fixtures load
// under an import path whose first segment is the analyzer name).
func inScope(pkgPath, analyzerName string, scope []string) bool {
	for _, p := range scope {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	first, _, _ := strings.Cut(pkgPath, "/")
	return first == analyzerName
}

// rootIdent strips selectors, indexing, dereferences and parens from an
// expression and returns the identifier at its base, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method with a statically known callee), or nil for
// dynamic calls, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isPkgLevelVar reports whether obj is a package-level variable.
func isPkgLevelVar(obj types.Object, pkg *types.Package) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Parent() == pkg.Scope()
}
