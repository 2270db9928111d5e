package analyzers

import (
	"repro/internal/analyzers/framework"
	"repro/internal/analyzers/load"
)

// RunSuite loads the packages the patterns match and applies the whole
// suite to every module package among them, returning the surviving
// diagnostics sorted by position. It is the programmatic form of
// `hxlint <patterns>`, shared by cmd/hxlint and the self-hosting test.
func RunSuite(patterns ...string) ([]framework.Diagnostic, error) {
	l := load.New("")
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	// unusedexport's referrers are the whole module's, whatever the
	// patterns: `hxlint ./examples/...` must not flag an internal export
	// that only other packages call. Packages the patterns already loaded
	// cost only the listing.
	mod, err := l.ModulePath()
	if err != nil {
		return nil, err
	}
	modPkgs, err := l.Load(mod + "/...")
	if err != nil {
		return nil, err
	}
	suite := All(moduleUses(modPkgs))
	var diags []framework.Diagnostic
	for _, p := range pkgs {
		if !p.InModule {
			continue // dependencies are type-checked but never lint subjects
		}
		ds, err := framework.Run(l.Fset, p.Syntax, p.Types, p.TypesInfo, suite)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	return diags, nil
}
