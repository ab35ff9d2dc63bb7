package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"strings"
	"testing"

	"wasched/internal/lint"
	"wasched/internal/lint/analysis"
	"wasched/internal/lint/linttest"
	"wasched/internal/lint/load"
)

func TestNodeterminism(t *testing.T) {
	linttest.Run(t, "testdata/src/nodeterminism", lint.Nodeterminism)
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, "testdata/src/maporder", lint.Maporder)
}

func TestTickerstop(t *testing.T) {
	linttest.Run(t, "testdata/src/tickerstop", lint.Tickerstop)
}

func TestCheckederr(t *testing.T) {
	linttest.Run(t, "testdata/src/checkederr", lint.Checkederr)
}

func TestFloatguard(t *testing.T) {
	linttest.Run(t, "testdata/src/floatguard", lint.Floatguard)
}

func TestGoroleak(t *testing.T) {
	linttest.Run(t, "testdata/src/goroleak", lint.Goroleak)
}

func TestUnitsafe(t *testing.T) {
	linttest.Run(t, "testdata/src/unitsafe", lint.Unitsafe)
}

func TestHotalloc(t *testing.T) {
	linttest.Run(t, "testdata/src/hotalloc", lint.Hotalloc)
}

// TestRepoIsClean is the self-application gate: the shipped tree must lint
// clean under the production suite and scoping — the same invocation as
// `make lint`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	fset := token.NewFileSet()
	pkgs, err := load.Packages(fset, "../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags, err := lint.Check(pkgs, lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// TestSuiteScopesExist: every Include/Exclude prefix in the production
// suite must name at least one package of the module. A prefix left
// behind when its package is deleted guards nothing, and would otherwise
// go unnoticed.
func TestSuiteScopesExist(t *testing.T) {
	out, err := exec.Command("go", "list", "wasched/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := strings.Fields(string(out))
	if len(pkgs) == 0 {
		t.Fatal("go list returned no packages")
	}
	for _, sa := range lint.Suite() {
		for _, prefix := range append(append([]string(nil), sa.Include...), sa.Exclude...) {
			found := false
			for _, p := range pkgs {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: scope %q names no package under wasched/...", sa.Analyzer.Name, prefix)
			}
		}
	}
}

// TestCheckDeterministic pins the parallel Check's ordering contract:
// two runs over the same load must format to byte-identical findings, so
// CI artifacts and problem-matcher annotations never churn with
// goroutine scheduling.
func TestCheckDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	fset := token.NewFileSet()
	pkgs, err := load.Packages(fset, "../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		diags, err := lint.Check(pkgs, lint.Suite())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&b, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		return b.String()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n--- first ---\n%s--- run %d ---\n%s", i+2, first, i+2, got)
		}
	}
}

// TestUnknownAnalyzerAllow: an allow naming an analyzer the suite does
// not know suppresses nothing it could ever match, so it is reported —
// the typo would otherwise silently disarm the suppression.
func TestUnknownAnalyzerAllow(t *testing.T) {
	src := `package p

//waschedlint:allow nosuchanalyzer the analyzer name is a typo
var x int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := load.NewInfo()
	tpkg, err := (&types.Config{}).Check("wasched/internal/p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &load.Package{ImportPath: "wasched/internal/p", Fset: fset, Files: []*ast.File{f}, Pkg: tpkg, Info: info}
	diags, err := lint.Check([]*load.Package{pkg}, lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the unknown-analyzer finding, got %+v", diags)
	}
	d := diags[0]
	if d.Analyzer != "allowdirective" || !strings.Contains(d.Message, `"nosuchanalyzer"`) {
		t.Fatalf("unexpected finding: %s: %s", d.Analyzer, d.Message)
	}
}

// TestMalformedAllowDirective: an allow without a reason suppresses
// nothing and is itself reported, so every suppression in the tree
// documents its rationale.
func TestMalformedAllowDirective(t *testing.T) {
	src := `package p

func f() {
	//waschedlint:allow nodeterminism
	g()
	//waschedlint:allow
	g()
}

func g() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allows, malformed := analysis.ParseAllows(fset, []*ast.File{f})
	if len(malformed) != 2 {
		t.Fatalf("want 2 malformed-directive findings, got %d", len(malformed))
	}
	for _, d := range malformed {
		if d.Analyzer != "allowdirective" || !strings.Contains(d.Message, "malformed allow directive") {
			t.Fatalf("unexpected malformed finding: %+v", d)
		}
	}
	if len(allows) != 0 {
		t.Fatalf("malformed directives must not suppress anything: %+v", allows)
	}
}

// TestAllowCoverage pins the directive's reach: its own line, the line
// below, the right analyzer — and nothing else.
func TestAllowCoverage(t *testing.T) {
	src := `package p

func f() {
	//waschedlint:allow check reason here
	g()
	g()
}

func g() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allows, malformed := analysis.ParseAllows(fset, []*ast.File{f})
	if len(malformed) != 0 || len(allows) != 1 {
		t.Fatalf("parse: allows=%v malformed=%v", allows, malformed)
	}
	if allows[0].Analyzer != "check" || allows[0].Reason != "reason here" {
		t.Fatalf("directive parsed wrong: %+v", allows[0])
	}
	mk := func(line int, analyzer string) analysis.Diagnostic {
		return analysis.Diagnostic{Pos: fset.File(f.Pos()).LineStart(line), Analyzer: analyzer, Message: "m"}
	}
	diags := []analysis.Diagnostic{
		mk(5, "check"), // covered: line below the directive
		mk(6, "check"), // not covered: two lines below
		mk(5, "other"), // not covered: different analyzer
	}
	kept := analysis.Filter(fset, diags, allows)
	if len(kept) != 2 {
		t.Fatalf("want 2 surviving diagnostics, got %d: %+v", len(kept), kept)
	}
}
