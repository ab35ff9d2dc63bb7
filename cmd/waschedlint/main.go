// Command waschedlint runs the repository's static-analysis suite: the
// analyzers that pin the invariants bit-identical replay and the farm's
// worker-count-independent sweeps depend on (see internal/lint).
//
// Usage:
//
//	waschedlint [-list] [-json] [packages...]
//
// With no arguments it analyzes ./... . Exit status is 1 when any
// diagnostic is reported, 0 on a clean run. -json emits the findings as
// a JSON array (one object per finding, with file/line/column split out)
// for CI artifact upload and tooling; the human-readable form stays on
// stdout otherwise. Suppress a deliberate exception with a trailing or
// preceding comment:
//
//	//waschedlint:allow <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"

	"wasched/internal/lint"
	"wasched/internal/lint/load"
)

// jsonFinding is one finding in -json output. The schema is consumed by
// .github/waschedlint-problem-matcher.json's regexp on the plain form and
// by the CI artifact upload on this form; keep the two in sync.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array instead of plain lines")
	flag.Parse()
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset := token.NewFileSet()
	pkgs, err := load.Packages(fset, "", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "waschedlint:", err)
		os.Exit(2)
	}
	diags, err := lint.Check(pkgs, lint.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "waschedlint:", err)
		os.Exit(2)
	}
	if *asJSON {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			findings = append(findings, jsonFinding{
				File:     pos.Filename,
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "waschedlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "waschedlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
