package meshpram_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameTests reads the `go test` commands of
// .github/workflows/ci.yml and fails when an alternative of a -run,
// -bench or -fuzz pattern names no Test, Benchmark or Fuzz function in
// the command's packages. Such a pattern matches nothing, and go test
// passes silently: a renamed test would drop out of its CI step.
func TestCIPatternsNameTests(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked, misses := ciPatternMisses(t, string(yml))
	for _, m := range misses {
		t.Error(m)
	}
	if checked < 10 {
		t.Fatalf("checked %d pattern alternatives in ci.yml; the command parser found too few", checked)
	}
	// The check itself must fire on a stale name.
	stale := "go test ./internal/route -run 'TestRouteTilesIdentity|TestNoSuchRouterTest' -bench 'GreedyRoute(Dense|Gone)'"
	if _, misses := ciPatternMisses(t, stale); len(misses) != 2 {
		t.Fatalf("stale patterns gave %d misses, want 2: %q", len(misses), misses)
	}
}

// ciPatternMisses checks every `go test` line of a workflow file and
// returns the number of pattern alternatives checked and one message per
// alternative that names no function.
func ciPatternMisses(t *testing.T, yml string) (checked int, misses []string) {
	t.Helper()
	prefixes := map[string][]string{
		"-run":   {"Test", "Fuzz", "Example"},
		"-bench": {"Benchmark"},
		"-fuzz":  {"Fuzz"},
	}
	for _, line := range strings.Split(yml, "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		// No pattern in ci.yml holds a space, so dropping the quotes
		// leaves one word per argument.
		args := strings.Fields(strings.NewReplacer("'", "", `"`, "").Replace(line[i+len("go test "):]))
		var pkgs []string
		patterns := map[string]string{}
		for k := 0; k < len(args); k++ {
			a := args[k]
			if flag, val, ok := strings.Cut(a, "="); ok && prefixes[flag] != nil {
				patterns[flag] = val
			} else if prefixes[a] != nil && k+1 < len(args) {
				patterns[a] = args[k+1]
				k++
			} else if strings.HasPrefix(a, ".") {
				pkgs = append(pkgs, a)
			}
		}
		funcs := testFuncs(t, pkgs)
		for flag, pat := range patterns {
			top := splitTop(pat, '/')[0] // -run matches subtests after a '/'
			for _, alt := range alternatives(top) {
				if alt == "^$" {
					continue // deliberately runs nothing
				}
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					misses = append(misses, "bad pattern "+alt+": "+err.Error())
					continue
				}
				if !matchesAny(re, funcs, prefixes[flag]) {
					misses = append(misses, flag+" alternative "+alt+" names no function in "+strings.Join(pkgs, " ")+": "+strings.TrimSpace(line))
				}
			}
		}
	}
	return checked, misses
}

func matchesAny(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, f := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) && re.MatchString(f) {
				return true
			}
		}
	}
	return false
}

// testFuncs returns the top-level function names declared in the _test.go
// files of the package patterns ("./x", or "./x/..." for the tree).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	add := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
	}
	for _, pkg := range pkgs {
		dir, tree := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != dir && (!tree || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
				add(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// alternatives expands a pattern into the names it lists: a top-level
// '|' separates alternatives, and a parenthesized group of alternatives
// multiplies out, so "A(B|C)" lists AB and AC.
func alternatives(p string) []string {
	var out []string
	for _, part := range splitTop(p, '|') {
		out = append(out, expandGroup(part)...)
	}
	return out
}

// expandGroup multiplies out the first parenthesized group of s and,
// recursively, the ones after it.
func expandGroup(s string) []string {
	i := strings.IndexByte(s, '(')
	if i < 0 {
		return []string{s}
	}
	depth, j := 0, i
	for ; j < len(s); j++ {
		if s[j] == '(' {
			depth++
		} else if s[j] == ')' {
			if depth--; depth == 0 {
				break
			}
		}
	}
	if j == len(s) {
		return []string{s} // unbalanced: let regexp.Compile report it
	}
	var out []string
	for _, inner := range alternatives(s[i+1 : j]) {
		for _, rest := range expandGroup(s[j+1:]) {
			out = append(out, s[:i]+inner+rest)
		}
	}
	return out
}

// splitTop splits s at each sep outside parentheses.
func splitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
