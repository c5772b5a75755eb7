// Package detlint is a from-scratch static-analysis framework (stdlib
// go/parser + go/ast + go/types only, no x/tools) enforcing the
// repository's determinism, accounting and snapshot invariants.
//
// The paper's guarantees are deterministic worst-case bounds, and the
// whole verification story — invariance fixtures, engine equivalence,
// fault-free bit-identity, schedule replay — rests on the simulation
// being bit-identical run to run. detlint machine-checks the coding
// rules that keep it so (DESIGN.md §9):
//
//   - maprange: no nondeterministic map iteration in deterministic
//     packages (sorted keys or a recognized order-insensitive idiom);
//   - wallclock: no wall-clock reads or unseeded randomness in
//     deterministic packages;
//   - checkederr: no silently discarded step errors or lost-packet
//     counts from the fault-aware entry points;
//   - snapshotfields: every Simulator field is either carried by the
//     snapshot (Save and Load) or explicitly annotated why not;
//   - ledgerphase: every ledger span Begin has a matching End on all
//     return paths, so cost trees always close.
//
// Four v2 checks build on a shared call-graph + taint layer (taint.go,
// DESIGN.md §14):
//
//   - determtaint: interprocedural — values derived from map iteration
//     order, wall clocks, or unseeded randomness must not flow, through
//     any chain of package-internal helpers, into wire encodings,
//     canonical keys, or ledger charges;
//   - goroutineshare: goroutine bodies must not write captured shared
//     variables outside the per-shard-arena + index-ordered-merge idiom
//     of the parallel sweep;
//   - chanorder: no multi-case selects, channel ranges, or
//     completion-order result merges in deterministic packages;
//   - ignoreaudit: a //detlint:ignore directive that suppresses nothing
//     is itself a finding, so the suppression inventory cannot rot.
//
// One check sees the whole program at once (deadcode.go, DESIGN.md
// §14.5):
//
//   - deadcode: every function and method must be reachable through
//     non-test code from a root — a main or init function, or a
//     package-level initializer of a main package (cmd/*, examples/*,
//     bench/) — or implement an interface the program uses. It runs
//     only when the load includes a main package, after the
//     per-package analyzers and before ignoreaudit, so a test seam kept
//     with //detlint:ignore deadcode fails ignoreaudit as soon as
//     production code calls it.
//
// A finding can be suppressed with a trailing (or immediately
// preceding) comment:
//
//	//detlint:ignore <check>[,<check>...] <reason>
//
// The reason is free text; write why the flagged code is safe.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Msg)
}

// Analyzer is one named check over a typechecked package.
type Analyzer struct {
	Name string
	Doc  string
	// Packages restricts the analyzer to packages whose import path
	// ends in one of these elements (the repository's deterministic
	// packages). Empty means the analyzer runs everywhere.
	Packages []string
	// Run performs the check. A nil Run and Program marks a synthetic
	// analyzer evaluated by the framework itself (ignoreaudit, which
	// consumes the suppression-usage ledger the real analyzers leave
	// behind).
	Run func(*Pass)
	// Program, set instead of Run, checks the whole load at once
	// (deadcode): it gets one Pass per package, ignoring Packages, and
	// returns the passes it covered, whose directives ignoreaudit then
	// audits.
	Program func([]*Pass) []*Pass
}

func (a *Analyzer) applies(pkg *Package) bool {
	if len(a.Packages) == 0 {
		return true
	}
	base := pkg.Path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	for _, want := range a.Packages {
		if base == want {
			return true
		}
	}
	return false
}

// Pass is one analyzer run over one package.
type Pass struct {
	*Package
	Check    string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:   p.Fset.Position(pos),
		Check: p.Check,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, WallClock, CheckedErr, SnapshotFields, LedgerPhase,
		DetermTaint, GoroutineShare, ChanOrder, DeadCode, IgnoreAudit}
}

// DetPackages is the one canonical list of packages whose execution
// must be bit-identical run to run: the protocol core and everything
// it charges through, the scenario API, the gossip fault-view layer
// and its wire format, the seeded workload generators, and the
// service's execution/encoding layer (serve's transport layer carries
// explicit chanorder suppressions — it never feeds charged costs or
// response bodies). Every package-restricted analyzer references this
// list; per-check copies are not allowed.
var DetPackages = []string{
	"core", "route", "culling", "mesh", "hmos", "fault", "trace",
	"sim", "serve", "faultview", "workload",
}

// Run applies the analyzers to the packages, drops suppressed findings,
// and returns the rest sorted by position. Malformed or unknown-check
// ignore directives are themselves reported (check "detlint").
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	// Directives are validated against every registered check, not just
	// the ones selected for this run: a -checks subset must not turn
	// suppressions of the other checks into "unknown check" findings.
	known := make(map[string]bool, len(analyzers))
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	type pkgRun struct {
		ig  ignoreIndex
		ran map[string]bool
	}
	var all []Finding
	keep := func(r pkgRun, fs []Finding) {
		for _, f := range fs {
			if !r.ig.suppressed(f) {
				all = append(all, f)
			}
		}
	}
	runs := make([]pkgRun, len(pkgs))
	for i, pkg := range pkgs {
		ig, bad := collectIgnores(pkg, known)
		all = append(all, bad...)
		runs[i] = pkgRun{ig, map[string]bool{}}
		for _, a := range analyzers {
			if a.Run != nil && a.applies(pkg) {
				runs[i].ran[a.Name] = true
				var fs []Finding
				a.Run(&Pass{Package: pkg, Check: a.Name, findings: &fs})
				keep(runs[i], fs)
			}
		}
	}
	// Program checks see every package at once, after the per-package
	// analyzers and before the audit of the directives.
	for _, a := range analyzers {
		if a.Program == nil {
			continue
		}
		passes := make([]*Pass, len(pkgs))
		found := make([][]Finding, len(pkgs))
		for i, pkg := range pkgs {
			passes[i] = &Pass{Package: pkg, Check: a.Name, findings: &found[i]}
		}
		for _, p := range a.Program(passes) {
			i := slices.Index(passes, p)
			runs[i].ran[a.Name] = true
			keep(runs[i], found[i])
		}
	}
	if slices.Contains(analyzers, IgnoreAudit) {
		for _, r := range runs {
			keep(r, auditIgnores(r.ig, r.ran))
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
	return all
}

// ignoreKey locates one suppression directive.
type ignoreKey struct {
	file  string
	line  int
	check string
}

// ignoreEntry is one parsed directive occurrence plus its usage state —
// whether it actually suppressed a finding in this run (ignoreaudit's
// input).
type ignoreEntry struct {
	pos  token.Position
	used bool
}

type ignoreIndex map[ignoreKey]*ignoreEntry

// suppressed reports whether a directive for the finding's check sits
// on the finding's line or the line directly above it, marking the
// matching directive as load-bearing.
func (ig ignoreIndex) suppressed(f Finding) bool {
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		if ent := ig[ignoreKey{f.Pos.Filename, line, f.Check}]; ent != nil {
			ent.used = true
			return true
		}
	}
	return false
}

// auditIgnores returns one ignoreaudit finding per directive that
// suppressed nothing, restricted to checks that ran on the package.
func auditIgnores(ig ignoreIndex, ran map[string]bool) []Finding {
	keys := make([]ignoreKey, 0, len(ig))
	for k := range ig {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.check < b.check
	})
	var out []Finding
	for _, k := range keys {
		ent := ig[k]
		if ent.used || k.check == IgnoreAudit.Name || !ran[k.check] {
			continue
		}
		out = append(out, Finding{Pos: ent.pos, Check: IgnoreAudit.Name,
			Msg: fmt.Sprintf("suppression of %s no longer matches any finding; delete the stale directive (or annotate it with ignoreaudit if it must outlive a quiet spell)", k.check)})
	}
	return out
}

var ignoreRe = regexp.MustCompile(`^//\s*detlint:ignore\s+([A-Za-z0-9_,-]+)(\s+\S.*)?$`)

// collectIgnores scans every comment of the package for
// //detlint:ignore directives. Directives naming an unknown check are
// reported as findings so a typo cannot silently disable a rule.
func collectIgnores(pkg *Package, known map[string]bool) (ignoreIndex, []Finding) {
	ig := ignoreIndex{}
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//") {
					continue
				}
				// Only comments that START with the directive count (and
				// must then parse); prose mentioning the syntax is not one.
				if !strings.HasPrefix(strings.TrimSpace(text[2:]), "detlint:ignore") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := ignoreRe.FindStringSubmatch(text)
				if m == nil {
					bad = append(bad, Finding{Pos: pos, Check: "detlint",
						Msg: "malformed directive; want //detlint:ignore <check>[,<check>] <reason>"})
					continue
				}
				for _, check := range strings.Split(m[1], ",") {
					if !known[check] {
						bad = append(bad, Finding{Pos: pos, Check: "detlint",
							Msg: fmt.Sprintf("ignore directive names unknown check %q", check)})
						continue
					}
					ig[ignoreKey{pos.Filename, pos.Line, check}] = &ignoreEntry{pos: pos}
				}
			}
		}
	}
	return ig, bad
}

// forEachStmtList visits every statement list of the file (block
// bodies, switch/select clause bodies). Analyzers that need a
// statement's successor (idiom checks) hook in here.
func forEachStmtList(root ast.Node, fn func(list []ast.Stmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BlockStmt:
			fn(s.List)
		case *ast.CaseClause:
			fn(s.Body)
		case *ast.CommClause:
			fn(s.Body)
		}
		return true
	})
}
