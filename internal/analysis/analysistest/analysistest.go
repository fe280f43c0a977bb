// Package analysistest runs a framework.Analyzer over a deliberately-bad
// fixture package and checks its diagnostics against golden expectations
// embedded in the fixture source, mirroring the x/tools analysistest
// convention:
//
//	rates := map[string]float64{}        // want `map literal`
//	for k := range m {                   // want `range over a map`
//
// Each `// want` comment carries one or more backquoted regular
// expressions; every regexp must match a diagnostic reported on that
// line, every diagnostic must be matched by an expectation, and a
// fixture line without a want comment must produce no diagnostics.
package analysistest //df:ignore deadcode — a test helper: only the analyzers' tests import it

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// wantRE extracts the backquoted expectations of one want comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

// Run loads testdata/src/<fixture> relative to the caller's package
// directory, applies the analyzer (ignoring its AppliesTo scope), and
// reports any mismatch between diagnostics and `// want` expectations as
// test failures.
func Run(t *testing.T, analyzer *framework.Analyzer, fixture string) {
	t.Helper()
	fixtureDir := filepath.Join("testdata", "src", fixture)
	moduleDir := moduleRoot(t)
	pkg, err := framework.LoadFixture(moduleDir, fixtureDir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags, err := framework.RunSingle(analyzer, pkg)
	if err != nil {
		t.Fatalf("running %s on %s: %v", analyzer.Name, fixture, err)
	}

	wants := collectWants(t, pkg)
	matched := make([]bool, len(diags))
	for key, patterns := range wants {
		for _, pat := range patterns {
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
			}
			found := false
			for i, d := range diags {
				if matched[i] {
					continue
				}
				if diagKey(pkg, d) == key && re.MatchString(d.Message) {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no diagnostic matching %q (analyzer %s)", key, pat, analyzer.Name)
			}
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic: %s", diagKey(pkg, d), d.Message)
		}
	}
}

// collectWants scans the fixture's comments for want expectations keyed
// by file:line.
func collectWants(t *testing.T, pkg *framework.Package) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pats := wantRE.FindAllStringSubmatch(text, -1)
				if len(pats) == 0 {
					t.Fatalf("%s: want comment without backquoted pattern: %s",
						pkg.Fset.Position(c.Pos()), c.Text)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, m := range pats {
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

func diagKey(pkg *framework.Package, d framework.Diagnostic) string {
	return fmt.Sprintf("%s:%d", filepath.Base(d.Position.Filename), d.Position.Line)
}

// moduleRoot walks up from the working directory to the enclosing go.mod
// so fixtures can resolve standard-library and in-module imports.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found above working directory")
		}
		dir = parent
	}
}
