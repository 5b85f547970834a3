package ttastar

// The dead-export ratchet: every exported function or method under
// internal/ must be named somewhere else in the repository's non-test
// code (cmd/, examples/, perfbench/ and internal/ itself). An export
// only tests call belongs in a _test.go file of its package, or on the
// allowlist below with the reason it stays.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the internal exports that stay with no
// non-test caller, each with its reason.
var exportAllowlist = map[string]string{
	"CheckInvariant":           "mc: the string-state entry point of the documented API, used by its package example and by tests across packages",
	"CheckTransitionInvariant": "mc: the string-state entry point of the documented API, used by tests across packages",
	"CheckInvariantBytes":      "mc: the byte-state entry point for state invariants, which the dist tests drive across the worker fleet",
	"FromBits":                 "bitstr: the literal constructor the frame, channel and guardian tests build bit strings with",
	"Flip":                     "bitstr: the bit-corruption primitive the frame tests inject faults with",
	"Adjust":                   "sim: the clock-correction step the clocksync precision test applies its corrections through",
}

func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ name, pos string }
	var decls []decl
	uses := map[string]int{} // identifier name → occurrences outside declarations
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					declared[fn.Name] = true
					decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos()).String()})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/")
	}
	var dead []string
	for _, d := range decls {
		if uses[d.name] == 0 && exportAllowlist[d.name] == "" {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but unused outside tests: %s", d)
	}
	for name := range exportAllowlist {
		if uses[name] > 0 {
			t.Errorf("allowlisted export %s now has a non-test use; drop it from the allowlist", name)
		}
	}
}
