package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// TestRepoIsClean runs the full analyzer suite, deadcode included, over
// the whole module and fails on any finding, making "dfvet is clean"
// part of the ordinary test gate — a seeded violation anywhere in the
// repo fails `go test ./...` too, not just the CI lint step.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	pkgs, all, err := loadWithBench(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	suite := append(analyzers[:len(analyzers):len(analyzers)], deadcodeAnalyzer(all))
	diags, err := framework.RunAnalyzers(suite, pkgs)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d.String())
	}
}

// TestAnalyzerNamesUnique guards the -only flag's name lookup.
func TestAnalyzerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" {
			t.Error("analyzer with empty name")
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
	}
	if len(seen) != 5 {
		t.Errorf("expected the 5-analyzer suite, have %d", len(seen))
	}
}

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	for _, a := range analyzers {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"-only", "nosuch", "."}, &out, &errOut); code != 2 {
		t.Errorf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("unknown-analyzer stderr: %q", errOut.String())
	}
}

func TestRunCleanPackage(t *testing.T) {
	// The test binary's working directory is this package's directory,
	// so "." resolves to repro/cmd/dfvet — which must be clean.
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "determinism,hotpath", "."}, &out, &errOut); code != 0 {
		t.Fatalf("exited %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

// TestRunFlagsSeededViolation is the acceptance check from the analyzer
// suite's introduction: a synthetic module containing a raw float64
// json-tagged field (the PR-4 ±Inf encoding bug as source code) must
// make dfvet exit 1 with a jsonfloat finding.
func TestRunFlagsSeededViolation(t *testing.T) {
	dir := t.TempDir()
	mustWrite := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("go.mod", "module repro\n\ngo 1.24\n")
	mustWrite("schema/schema.go", "package schema\n\n"+
		"// Report is a seeded violation: Epsilon must be a JSONFloat.\n"+
		"type Report struct {\n"+
		"\tEpsilon float64 `json:\"epsilon\"`\n"+
		"}\n")
	t.Chdir(dir)

	var out, errOut bytes.Buffer
	if code := run([]string{"./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exited %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "jsonfloat") || !strings.Contains(out.String(), "Epsilon") {
		t.Errorf("diagnostics did not name the seeded violation:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "finding(s)") {
		t.Errorf("stderr missing findings summary: %q", errOut.String())
	}
}

// TestRunFlagsDeadCode seeds a module with an internal package nothing
// imports and exported identifiers that only tests or their own
// declaration reference; dfvet must exit 1 naming exactly those, and
// must count a reference from the dfbench module as a real use.
func TestRunFlagsDeadCode(t *testing.T) {
	dir := t.TempDir()
	mustWrite := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("go.mod", "module repro\n\ngo 1.24\n")
	mustWrite("internal/orphan/orphan.go", "package orphan\n\nfunc Helper() int { return 1 }\n")
	mustWrite("internal/lib/lib.go", "package lib\n\n"+
		"func Used() int { return Recursive(1) }\n\n"+
		"func Recursive(n int) int {\n\tif n == 0 {\n\t\treturn 0\n\t}\n\treturn Recursive(n - 1)\n}\n\n"+
		"func SelfOnly(n int) int {\n\tif n == 0 {\n\t\treturn 0\n\t}\n\treturn SelfOnly(n - 1)\n}\n\n"+
		"func TestOnly() int { return 2 }\n\n"+
		"func BenchOnly() int { return 3 }\n")
	mustWrite("internal/lib/lib_test.go", "package lib\n\n"+
		"import \"testing\"\n\n"+
		"func TestTestOnly(t *testing.T) { _ = TestOnly() }\n")
	mustWrite("cmd/app/main.go", "package main\n\n"+
		"import \"repro/internal/lib\"\n\n"+
		"func main() { println(lib.Used()) }\n")
	mustWrite("dfbench/go.mod", "module repro/dfbench\n\ngo 1.24\n\nrequire repro v0.0.0\n\nreplace repro => ../\n")
	mustWrite("dfbench/main.go", "package main\n\n"+
		"import \"repro/internal/lib\"\n\n"+
		"func main() { println(lib.BenchOnly()) }\n")
	t.Chdir(dir)

	var out, errOut bytes.Buffer
	if code := run([]string{"./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exited %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"[deadcode] package repro/internal/orphan has no non-test importer",
		"[deadcode] SelfOnly is exported but no non-test code references it",
		"[deadcode] TestOnly is exported but no non-test code references it",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, got)
		}
	}
	for _, clean := range []string{"Helper", "Used ", "Recursive", "BenchOnly"} {
		if strings.Contains(got, clean) {
			t.Errorf("diagnostics flag %q, which is either in a flagged package or used:\n%s", clean, got)
		}
	}
	if n := strings.Count(got, "[deadcode]"); n != 3 {
		t.Errorf("got %d deadcode findings, want 3:\n%s", n, got)
	}
}
