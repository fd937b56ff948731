package vini_test

// The docs name what exists: a backticked reference in README.md,
// DESIGN.md or the verify notes (.claude/skills/verify/SKILL.md) to a
// .go file, to a test, to a declaration of a package under internal/ or
// to a vinibench experiment is checked against the tree, so a PR that
// deletes a file, a test or an identifier also deletes what the docs
// say about it. History — what a PR removed — belongs in CHANGES.md.

import (
	"bytes"
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
	// fence is a fenced code block, blanked before spans are paired:
	// its backticks would pair with the text around it.
	fence = regexp.MustCompile("(?s)```.*?```")
	// goRef is a .go path; a trailing :line or :from-to is ignored. The
	// file name starts with a letter or digit (the go tool ignores
	// files starting with _), so a bare `_test.go` is no path.
	goRef    = regexp.MustCompile(`^((?:[\w.-]+/)*[A-Za-z0-9][\w.-]*\.go)(?::[\d-]+)?$`)
	testName = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
	// runFlag marks a span holding a go test -run pattern, which is
	// unanchored: a name there may be the prefix of the tests it runs.
	runFlag = regexp.MustCompile(`-(?:test\.)?run\b`)
	// identRef is a span that starts with pkg.Name or pkg.Type.Member:
	// `core.New(seed)`, `*sim.Loop`, `ospf.Parse…`.
	identRef = regexp.MustCompile(`^[*&]?([a-z][a-z0-9]*)\.([A-Za-z]\w*)(?:\.([A-Za-z]\w*))?`)
	// expRef is a vinibench experiment: `-exp fig8`, `vinibench -exp scale`.
	expRef = regexp.MustCompile(`(?:^|\s)-exp ([a-z][a-z0-9]*)`)
)

// goDecls is what the packages under internal/ declare, by package
// name, test files included.
type goDecls map[string]*pkgDecls

type pkgDecls struct {
	top     map[string]bool            // top-level names
	members map[string]map[string]bool // type -> its methods and fields
	any     map[string]bool            // every method and field name
}

func (p *pkgDecls) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
	p.any[name] = true
}

// typeName is the name of a receiver or embedded type: T, *T, T[K] or
// pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// add records the declarations of one file of package pkg.
func (d goDecls) add(pkg string, f *ast.File) {
	p := d[pkg]
	if p == nil {
		p = &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}, any: map[string]bool{}}
		d[pkg] = p
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				p.top[decl.Name.Name] = true
			} else {
				p.member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						p.top[n.Name] = true
					}
				case *ast.TypeSpec:
					p.top[spec.Name.Name] = true
					var fields *ast.FieldList
					switch t := spec.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					default:
						continue
					}
					for _, f := range fields.List {
						for _, n := range f.Names {
							p.member(spec.Name.Name, n.Name)
						}
						if len(f.Names) == 0 { // an embedded field is named by its type
							p.member(spec.Name.Name, typeName(f.Type))
						}
					}
				}
			}
		}
	}
}

// has reports whether pkg declares name or, with member set, whether
// type name has that method or field.
func (d goDecls) has(pkg, name, member string) bool {
	p := d[pkg]
	if member == "" {
		return p.top[name] || p.any[name]
	}
	return p.members[name][member]
}

// experiments is what -exp accepts: "all" and the names in
// cmd/vinibench's experiments table.
func experiments(t *testing.T, src sourceTree) map[string]bool {
	t.Helper()
	const file = "cmd/vinibench/main.go"
	f, err := parser.ParseFile(token.NewFileSet(), file, src[file], parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{"all": true}
	ast.Inspect(f, func(n ast.Node) bool {
		v, ok := n.(*ast.ValueSpec)
		if !ok || len(v.Names) != 1 || v.Names[0].Name != "experiments" || len(v.Values) != 1 {
			return true
		}
		for _, e := range v.Values[0].(*ast.CompositeLit).Elts {
			if row, ok := e.(*ast.CompositeLit); ok && len(row.Elts) > 0 {
				if lit, ok := row.Elts[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					names[name] = true
				}
			}
		}
		return false
	})
	if len(names) == 1 {
		t.Fatalf("%s declares no experiments table", file)
	}
	return names
}

// TestDocReferences: a `….go` path is the suffix of a file in the tree;
// a `Test…` / `Fuzz…` name is declared in some _test.go file — a
// top-level func or type, or a string literal there (the Click class a
// test registers); and a `pkg.Name` or `pkg.Type.Member` whose pkg is a
// package under internal/ names a top-level declaration, method or field
// of that package (for pkg.Type.Member, one of that type); and a
// `-exp NAME` names an experiment of cmd/vinibench. A name with an
// underscore is a benchmark metric (`fib.lookup_ns`), not a reference.
// In a span with a -run pattern a test name counts if a declared test
// starts with it: `go test -run TestPathFollows` runs
// TestPathFollowsTheSubstrate.
func TestDocReferences(t *testing.T) {
	src := readSource(t, ".")
	declared := map[string]bool{}
	decls := goDecls{}
	fset := token.NewFileSet()
	for file, text := range src {
		internal := strings.HasPrefix(file, "internal/")
		if !isTest(file) && !internal {
			continue
		}
		f, err := parser.ParseFile(fset, file, text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if internal {
			decls.add(strings.TrimSuffix(f.Name.Name, "_test"), f)
		}
		if !isTest(file) {
			continue
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
	exps := experiments(t, src)
	inTree := func(ref string) bool {
		for file := range src {
			if file == ref || strings.HasSuffix(file, "/"+ref) {
				return true
			}
		}
		return false
	}
	isPrefix := func(name string) bool {
		for d := range declared {
			if strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text = fence.ReplaceAllFunc(text, func(b []byte) []byte {
			return bytes.Map(func(r rune) rune {
				if r == '\n' {
					return r
				}
				return ' '
			}, b)
		})
		for _, m := range codeSpan.FindAllStringSubmatchIndex(string(text), -1) {
			span := string(text[m[2]:m[3]])
			line := 1 + strings.Count(string(text[:m[0]]), "\n")
			if g := goRef.FindStringSubmatch(span); g != nil {
				if !inTree(g[1]) {
					t.Errorf("%s:%d: %s is no file in the tree", doc, line, g[1])
				}
			} else if r := identRef.FindStringSubmatch(span); r != nil && decls[r[1]] != nil &&
				!strings.Contains(r[0], "_") && !decls.has(r[1], r[2], r[3]) {
				t.Errorf("%s:%d: %s is declared nowhere in internal/%s", doc, line, strings.TrimLeft(r[0], "*&"), r[1])
			}
			for _, e := range expRef.FindAllStringSubmatch(span, -1) {
				if !exps[e[1]] {
					t.Errorf("%s:%d: -exp %s is no vinibench experiment", doc, line, e[1])
				}
			}
			run := runFlag.MatchString(span)
			for _, name := range testName.FindAllString(span, -1) {
				if !declared[name] && !(run && isPrefix(name)) {
					t.Errorf("%s:%d: %s is declared in no _test.go file", doc, line, name)
				}
			}
		}
	}
}
