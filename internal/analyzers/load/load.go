// Package load turns `go list` package metadata into parsed, type-checked
// packages for the hxlint analyzers, using only the standard library's
// go/parser and go/types. It is the offline stand-in for
// golang.org/x/tools/go/packages: dependencies (including the standard
// library) are type-checked from source in `go list -deps` order, so no
// export data, module proxy or pre-built artifacts are needed.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded package. Syntax and TypesInfo are populated only
// for packages of the main module (the analyzers' subjects); dependencies
// carry just their type information.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string // source import path -> resolved path, when vendored
	Standard   bool
	InModule   bool

	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Loader loads and type-checks packages on demand, caching everything it
// has seen. A single Loader (and its FileSet) must be used for all
// packages that will be analyzed together.
type Loader struct {
	Fset  *token.FileSet
	dir   string // working directory for go list
	pkgs  map[string]*Package
	sizes types.Sizes
}

// New returns a loader running `go list` in dir (empty means the current
// directory).
func New(dir string) *Loader {
	return &Loader{
		Fset:  token.NewFileSet(),
		dir:   dir,
		pkgs:  make(map[string]*Package),
		sizes: types.SizesFor("gc", runtime.GOARCH),
	}
}

// goCmd returns the go command with args, run in the loader's directory
// with CGO disabled.
func (l *Loader) goCmd(args ...string) *exec.Cmd {
	cmd := exec.Command("go", args...)
	cmd.Dir = l.dir
	cmd.Env = append(cmd.Environ(), "CGO_ENABLED=0")
	return cmd
}

// ModulePath returns the import path of the main module the loader lists
// packages in.
func (l *Loader) ModulePath() (string, error) {
	out, err := l.goCmd("list", "-m").Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// goList runs `go list -deps -json` for the patterns and decodes the
// concatenated JSON stream. CGO is disabled so every listed package is
// pure Go and can be type-checked from source.
func (l *Loader) goList(patterns []string) ([]*listedPackage, error) {
	cmd := l.goCmd(append([]string{"list", "-deps", "-json"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []*listedPackage
	for {
		lp := &listedPackage{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %s: decoding output: %w", strings.Join(patterns, " "), err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// Load lists the patterns, type-checks every not-yet-seen package of the
// dependency closure (dependencies first, the order `go list -deps`
// guarantees), and returns the packages the patterns matched directly.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	deps := make(map[string]bool, len(listed))
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if err := l.check(lp); err != nil {
			return nil, err
		}
		deps[lp.ImportPath] = true
	}
	// A second, dependency-free listing distinguishes the packages the
	// patterns matched from the closure `go list -deps` mixed them into.
	out, err := l.goCmd(append([]string{"list"}, patterns...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w", strings.Join(patterns, " "), err)
	}
	var targets []*Package
	for _, path := range strings.Fields(string(out)) {
		p := l.pkgs[path]
		if p == nil || !deps[path] {
			return nil, fmt.Errorf("go list: package %s matched but not loaded", path)
		}
		targets = append(targets, p)
	}
	return targets, nil
}

// check parses and type-checks one listed package, if not cached yet.
func (l *Loader) check(lp *listedPackage) error {
	if _, done := l.pkgs[lp.ImportPath]; done {
		return nil
	}
	if lp.ImportPath == "unsafe" {
		l.pkgs["unsafe"] = &Package{ImportPath: "unsafe", Standard: true, Types: types.Unsafe}
		return nil
	}
	p := &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		GoFiles:    lp.GoFiles,
		ImportMap:  lp.ImportMap,
		Standard:   lp.Standard,
		InModule:   lp.Module != nil && !lp.Standard,
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", lp.ImportPath, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		p.Types = types.NewPackage(lp.ImportPath, lp.Name)
		p.Types.MarkComplete()
		l.pkgs[lp.ImportPath] = p
		return nil
	}
	var info *types.Info
	if p.InModule {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
	}
	tpkg, err := l.typeCheck(lp.ImportPath, lp.ImportMap, files, info)
	if err != nil {
		return err
	}
	p.Types = tpkg
	p.TypesInfo = info
	if p.InModule {
		p.Syntax = files
	}
	l.pkgs[lp.ImportPath] = p
	return nil
}

// typeCheck runs go/types over the files with imports resolved from the
// loader's cache (honoring the package's vendor import map).
func (l *Loader) typeCheck(path string, importMap map[string]string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var firstErr error
	conf := types.Config{
		Importer: importerFunc(func(spec string) (*types.Package, error) {
			resolved := spec
			if mapped, ok := importMap[spec]; ok {
				resolved = mapped
			}
			dep := l.pkgs[resolved]
			if dep == nil || dep.Types == nil {
				return nil, fmt.Errorf("import %q not loaded (resolved %q)", spec, resolved)
			}
			return dep.Types, nil
		}),
		Sizes: l.sizes,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return tpkg, nil
}

// CheckDir parses every non-test .go file of dir as a package with the
// given import path and type-checks it, loading any imports it needs on
// demand. It backs the analyzer test fixtures, which live in testdata and
// are invisible to `go list`.
func (l *Loader) CheckDir(dir, importPath string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var imports []string
	for _, name := range matches {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			imports = append(imports, strings.Trim(imp.Path.Value, `"`))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	var missing []string
	for _, imp := range imports {
		if _, ok := l.pkgs[imp]; !ok {
			missing = append(missing, imp)
		}
	}
	if len(missing) > 0 {
		if _, err := l.Load(missing...); err != nil {
			return nil, err
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	tpkg, err := l.typeCheck(importPath, nil, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		InModule:   true,
		Syntax:     files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
