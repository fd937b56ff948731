package vini_test

// The docs name what exists: a backticked reference in README.md or
// DESIGN.md to a .go file or to a test is checked against the tree, so a
// PR that deletes a file or a test also deletes what the docs say about
// it. History — what a PR removed — belongs in CHANGES.md.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// goRef is a .go path; a trailing :line or :from-to is ignored.
	goRef    = regexp.MustCompile(`^([\w./-]+\.go)(?::[\d-]+)?$`)
	testName = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
)

// TestDocReferences: a `….go` path is the suffix of a file in the tree,
// and a `Test…` / `Fuzz…` name is declared in some _test.go file — a
// top-level func or type, or a string literal there (the Click class a
// test registers).
func TestDocReferences(t *testing.T) {
	src := readSource(t, ".")
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for file, text := range src {
		if !isTest(file) {
			continue
		}
		f, err := parser.ParseFile(fset, file, text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					declared[n.Name.Name] = true
				}
			case *ast.TypeSpec:
				declared[n.Name.Name] = true
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
					declared[s] = true
				}
			}
			return true
		})
	}
	inTree := func(ref string) bool {
		for file := range src {
			if file == ref || strings.HasSuffix(file, "/"+ref) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range codeSpan.FindAllStringSubmatchIndex(string(text), -1) {
			span := string(text[m[2]:m[3]])
			line := 1 + strings.Count(string(text[:m[0]]), "\n")
			if g := goRef.FindStringSubmatch(span); g != nil && !inTree(g[1]) {
				t.Errorf("%s:%d: %s is no file in the tree", doc, line, g[1])
			}
			for _, name := range testName.FindAllString(span, -1) {
				if !declared[name] {
					t.Errorf("%s:%d: %s is declared in no _test.go file", doc, line, name)
				}
			}
		}
	}
}
