package main

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis/framework"
)

const (
	// benchModule is the benchmark's own module directory. It imports
	// internal packages of this module through a replace directive, so
	// its references count as non-test uses.
	benchModule = "dfbench"

	deadcodeName = "deadcode"
	deadcodeDoc  = "every internal package has a non-test importer and every exported " +
		"package-level identifier of one has a non-test reference; retired " +
		"baselines and test oracles live in _test.go files"
)

// loadWithBench loads the packages matching patterns in dir and, when
// dir holds the benchmark module, that module's packages too. The extra
// packages only feed the dead-code index; the caller runs the rest of
// the suite over pkgs.
func loadWithBench(dir string, patterns ...string) (pkgs, all []*framework.Package, err error) {
	pkgs, err = framework.Load(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	all = pkgs
	bench := filepath.Join(dir, benchModule)
	if _, err := os.Stat(filepath.Join(bench, "go.mod")); err == nil {
		extra, err := framework.Load(bench, "./...")
		if err != nil {
			return nil, nil, err
		}
		all = append(append([]*framework.Package(nil), pkgs...), extra...)
	}
	return pkgs, all, nil
}

// deadcodeAnalyzer returns the dead-code check over an index built from
// every non-test package in all. It flags an internal package that no
// other non-test package imports, and a package-level exported
// identifier of an internal package that no non-test code references
// outside its own declaration. Methods are out of scope. A flagged
// package's identifiers are not reported again one by one.
func deadcodeAnalyzer(all []*framework.Package) *framework.Analyzer {
	imported := map[string]bool{}
	used := map[string]bool{}
	for _, p := range all {
		for _, imp := range p.Types.Imports() {
			imported[imp.Path()] = true
		}
		for _, f := range p.Syntax {
			for _, decl := range f.Decls {
				own := declared(p.TypesInfo, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if obj := packageLevel(p.TypesInfo.Uses[id]); obj != nil && !own[objKey(obj)] {
						used[objKey(obj)] = true
					}
					return true
				})
			}
		}
	}
	return &framework.Analyzer{
		Name: deadcodeName,
		Doc:  deadcodeDoc,
		AppliesTo: func(p *framework.Package) bool {
			return p.Module != "" && strings.HasPrefix(p.ImportPath, p.Module+"/internal/")
		},
		Run: func(pass *framework.Pass) error {
			pkg := pass.Pkg
			if !imported[pkg.ImportPath] {
				pass.Reportf(pass.Files()[0].Name.Pos(),
					"package %s has no non-test importer: delete it, or move what its tests need into them", pkg.ImportPath)
				return nil
			}
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if obj.Exported() && !used[objKey(obj)] {
					pass.Reportf(obj.Pos(),
						"%s is exported but no non-test code references it: delete it, or move it into a _test.go file", name)
				}
			}
			return nil
		},
	}
}

// declared returns the keys of the package-level objects decl declares.
// A method declares none: it is out of scope, and its references to its
// receiver type count as uses.
func declared(info *types.Info, decl ast.Decl) map[string]bool {
	own := map[string]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			own[objKey(info.Defs[d.Name])] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[objKey(info.Defs[s.Name])] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					own[objKey(info.Defs[n])] = true
				}
			}
		}
	}
	return own
}

// packageLevel returns obj's generic origin when it is declared at
// package scope, and nil for locals, fields, methods and universe
// objects.
func packageLevel(obj types.Object) types.Object {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return nil
	}
	return obj
}

// objKey names a package-level object across separately type-checked
// packages, whose imported objects are distinct values.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
