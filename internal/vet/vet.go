// Package vet implements marvel-vet, the repository's custom
// static-analysis suite. Every headline claim the engines make — verdict
// digests that are bit-identical across worker counts, ladder depths and
// adaptive sizing — rests on a small set of source-level invariants:
//
//   - determinism: engine packages never read wall-clock time or ambient
//     randomness (pass "determinism");
//   - ordered iteration: map iteration order never reaches a slice,
//     journal, digest or event stream (pass "maporder");
//   - RNG discipline: every fault coordinate derives from internal/core's
//     SplitMix64 streams, never from an ad-hoc generator (pass
//     "rngsource");
//   - zero-cost observability: tracer and profiler call sites follow the
//     nil-guarded value-span pattern and keep formatting out of span
//     brackets (pass "obscost");
//   - error discipline: engine code never panics and never drops a
//     writer's error (pass "errdiscipline").
//
// The runtime differential suites prove these properties on the schedules
// they happen to exercise; marvel-vet proves the source can't express the
// violation in the first place. The analyzer API mirrors
// golang.org/x/tools/go/analysis (Name/Doc/Run over a typed Pass) so
// passes could later migrate to the real driver, but is built on the
// standard library's go/ast, go/parser and go/types only — the module
// stays dependency-free.
//
// Call sites that legitimately break an invariant (wall-clock progress
// reporting, the pinned legacy mask generator) carry an allowlist
// directive:
//
//	//marvel:allow pass1,pass2 reason the exemption is sound
//
// A directive suppresses the named passes' diagnostics on its own line
// and on the line directly below it, and must state a reason.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Class buckets a package by how strict the invariants are.
type Class uint8

const (
	// ClassEngine marks the simulation-engine packages whose outputs feed
	// verdict digests. The full invariant set applies.
	ClassEngine Class = 1 << iota
	// ClassSupport marks the remaining library packages (obs, server,
	// figures, the facade, ...). Ordering and error discipline apply;
	// wall-clock use is legitimate there.
	ClassSupport
	// ClassCmd marks binaries and examples. Only output-determinism
	// (maporder) and writer-error discipline apply.
	ClassCmd

	// ClassAll is every class.
	ClassAll = ClassEngine | ClassSupport | ClassCmd
)

// enginePaths are the import paths (and path prefixes) of the engine
// packages: the code whose behaviour is pinned by verdict-stream digests.
var enginePaths = []string{
	"marvel/internal/core",
	"marvel/internal/cpu",
	"marvel/internal/isa",
	"marvel/internal/mem",
	"marvel/internal/accel",
	"marvel/internal/campaign",
	"marvel/internal/dispatch",
	"marvel/internal/classify",
	"marvel/internal/sweep",
	"marvel/internal/program",
	"marvel/internal/workloads",
}

// Classify buckets an import path. The engine list is matched by path
// prefix so nested packages (program/ir) inherit the engine class.
func Classify(importPath string) Class {
	for _, p := range enginePaths {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return ClassEngine
		}
	}
	if strings.HasPrefix(importPath, "marvel/cmd/") || strings.HasPrefix(importPath, "marvel/examples/") {
		return ClassCmd
	}
	return ClassSupport
}

// An Analyzer is one invariant checker. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so a pass body ports over
// verbatim if the driver ever migrates.
type Analyzer struct {
	// Name identifies the pass in diagnostics and allow directives.
	Name string
	// Doc is a one-line description shown by `marvel-vet -list`.
	Doc string
	// Classes selects the package classes the pass runs on.
	Classes Class
	// Run reports the pass's diagnostics for one package.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the package's import path. Fixture harnesses may load a
	// file under a pretend path to exercise class-scoped passes.
	PkgPath string
	// Class is Classify(PkgPath), precomputed by the driver.
	Class Class

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pass:     p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned in the original source.
type Diagnostic struct {
	Pass     string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Pass, d.Message)
}

// All returns the full marvel-vet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapOrderAnalyzer,
		RNGSourceAnalyzer,
		ObsCostAnalyzer,
		ErrDisciplineAnalyzer,
	}
}

// ByName resolves a comma-separated pass list against All. An empty spec
// selects the whole suite.
func ByName(spec string) ([]*Analyzer, error) {
	if strings.TrimSpace(spec) == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a := byName[name]
		if a == nil {
			return nil, fmt.Errorf("vet: unknown pass %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the packages, filters allowlisted
// findings, and returns the surviving diagnostics sorted by position.
// Malformed allow directives (unknown pass, missing reason) surface as
// diagnostics themselves so a sloppy exemption cannot silently widen.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows, dirDiags := parseAllowDirectives(pkg)
		diags = append(diags, dirDiags...)
		for _, a := range analyzers {
			if a.Classes&pkg.Class == 0 {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				PkgPath:   pkg.Path,
				Class:     pkg.Class,
				report: func(d Diagnostic) {
					if !allows.covers(d) {
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("vet: pass %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Pass < b.Pass
	})
	return diags, nil
}
