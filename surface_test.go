package vini_test

// Nothing unreachable: what no front door (cmd/, examples/, the root
// facade, benchmark/) can reach is not part of what this repository
// reproduces, measures or pins, so it is not kept. Three rules, all
// computed from one type-checked load of the source:
//
//	(a) every exported func, method, type, const and var declared under
//	    internal/ is used from a non-test file of another package, or
//	    named by benchmark/, or reached structurally: a type in the
//	    signature or an exported field of something reached, a method
//	    that makes its receiver satisfy an interface that is in use;
//	(b) every class internal/click registers is instantiated by a
//	    configuration written in a non-test file, or by a non-test
//	    Declare call that names it;
//	(c) every exported field of an exported struct under internal/ whose
//	    name ends in Config, Options or Params is written by non-test
//	    code, or named by benchmark/: a composite-literal key anywhere, or
//	    an assignment, except one inside the declaring package to a field
//	    of a parameter or receiver, which is a default being filled in.
//
// testdata/surface_allow.txt holds what only tests reach or set and why;
// an entry that is reached or set again, or that names nothing, fails the guard,
// so the file can only shrink. A failure lists what a PR has to answer:
// unexport what the identifier's own package uses, delete what nothing
// does.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sourceTree is Go source text by slash-separated path from the module
// root.
type sourceTree map[string]string

// readSource is the one file walk of the root guards: every .go file
// under roots, test files included, hidden and testdata directories
// skipped.
func readSource(t *testing.T, roots ...string) sourceTree {
	t.Helper()
	src := sourceTree{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if name := d.Name(); d.IsDir() {
				if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				return nil
			} else if !strings.HasSuffix(name, ".go") {
				return nil
			}
			text, err := os.ReadFile(p)
			src[filepath.ToSlash(p)] = string(text)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return src
}

func isTest(file string) bool { return strings.HasSuffix(file, "_test.go") }

// sourceFilesContaining lists the non-test .go files under roots whose
// text contains needle.
func sourceFilesContaining(t *testing.T, needle string, roots ...string) []string {
	t.Helper()
	var files []string
	for file, text := range readSource(t, roots...) {
		if !isTest(file) && strings.Contains(text, needle) {
			files = append(files, file)
		}
	}
	sort.Strings(files)
	return files
}

func TestSurface(t *testing.T) {
	src := readSource(t, ".")
	allow, err := os.ReadFile("testdata/surface_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	s, err := auditSurface(src, string(allow))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for file, text := range src {
		if !isTest(file) && !strings.HasPrefix(file, "benchmark/") {
			lines += strings.Count(text, "\n")
		}
	}
	t.Logf("exported declarations under internal/: %d (%d allowlisted, %d reached only by benchmark/: %s)",
		s.declared, s.allowed, len(s.benchOnly), strings.Join(s.benchOnly, " "))
	t.Logf("registered Click classes: %d", len(s.classes))
	t.Logf("exported knob fields under internal/: %d (%d named only by benchmark/: %s)",
		s.knobs, len(s.benchKnobs), strings.Join(s.benchKnobs, " "))
	t.Logf("root-module non-test Go lines: %d", lines)
	if s.allowed > 40 {
		t.Errorf("the allowlist holds %d identifiers, want at most 40", s.allowed)
	}
	for _, line := range s.stale {
		t.Errorf("testdata/surface_allow.txt: %s", line)
	}
	if len(s.unreached) != 0 {
		t.Errorf("%d of %d exported declarations under internal/ are reached by no non-test file of another package:\n  %s",
			len(s.unreached), s.declared, strings.Join(s.unreached, "\n  "))
	}
	if len(s.unbuilt) != 0 {
		t.Errorf("%d of %d registered Click classes are instantiated by no non-test configuration (delete the class, its constructor, its handlers and the tests of it alone): %s",
			len(s.unbuilt), len(s.classes), strings.Join(s.unbuilt, " "))
	}
	if len(s.unset) != 0 {
		t.Errorf("%d of %d exported knob fields under internal/ are set by no non-test code but their own defaults:\n  %s",
			len(s.unset), s.knobs, strings.Join(s.unset, "\n  "))
	}
}

// surface is what auditSurface found.
type surface struct {
	declared  int      // exported declarations under internal/
	allowed   int      // of those, named by the allowlist
	unreached []string // "pkg.Ident: what to do with it", sorted
	benchOnly []string // reached, but only because benchmark/ names them
	stale     []string // allowlist lines that must go
	classes   []string // registered Click classes
	unbuilt   []string // of those, instantiated by no non-test configuration

	knobs      int      // exported fields of exported *Config/*Options/*Params structs under internal/
	unset      []string // "pkg.Type.Field: what to do with it", sorted
	benchKnobs []string // set by nothing, but named by benchmark/
}

const modulePath = "vini"

// stdlib type-checks the standard library from source, once for every
// tree audited by this test binary.
var stdlib = importer.ForCompiler(token.NewFileSet(), "source", nil)

// loader type-checks the packages of a sourceTree, each once, so an
// object is the same value wherever it is used.
type loader struct {
	fset  *token.FileSet
	dirs  map[string][]*ast.File // package directory -> its files
	pkgs  map[string]*types.Package
	info  *types.Info
	errs  []error
	tests map[string]bool // every identifier the tree's test files spell
}

func load(src sourceTree) (*loader, error) {
	l := &loader{
		fset: token.NewFileSet(), dirs: map[string][]*ast.File{}, pkgs: map[string]*types.Package{},
		info: &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		tests: map[string]bool{},
	}
	files := make([]string, 0, len(src))
	for file := range src {
		files = append(files, file)
	}
	sort.Strings(files)
	for _, file := range files {
		f, err := parser.ParseFile(l.fset, file, src[file], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		// benchmark/ is one frozen package, tests and all: whatever any of
		// its files names has to keep compiling.
		if dir := path.Dir(file); !isTest(file) || dir == "benchmark" {
			l.dirs[dir] = append(l.dirs[dir], f)
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				l.tests[id.Name] = true
			}
			return true
		})
	}
	for dir := range l.dirs {
		if _, err := l.Import(importPath(dir)); err != nil {
			return nil, err
		}
	}
	if len(l.errs) != 0 {
		return nil, fmt.Errorf("the tree does not type-check: %v", l.errs)
	}
	return l, nil
}

func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

func isInternal(pkg *types.Package) bool {
	return pkg != nil && strings.HasPrefix(pkg.Path(), modulePath+"/internal/")
}

// Import makes loader the types.Importer of its own packages.
func (l *loader) Import(ipath string) (*types.Package, error) {
	if ipath != modulePath && !strings.HasPrefix(ipath, modulePath+"/") {
		return stdlib.Import(ipath)
	}
	if pkg, ok := l.pkgs[ipath]; ok {
		return pkg, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(ipath, modulePath), "/")
	if dir == "" {
		dir = "."
	}
	if len(l.dirs[dir]) == 0 {
		return nil, fmt.Errorf("no source for package %s", ipath)
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	pkg, _ := conf.Check(ipath, l.fset, l.dirs[dir], l.info)
	l.pkgs[ipath] = pkg
	return pkg, nil
}

// objectName is how failures and the allowlist spell an object:
// pkg.Ident, or pkg.Type.Method.
func objectName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// reach is one closure over "reached": the seeds, every internal/ type
// their signatures and exported fields mention, and every method that
// makes its receiver satisfy an interface in use.
type reach struct {
	l    *loader
	seen map[types.Object]bool
	work []types.Object
}

func (r *reach) object(obj types.Object) {
	if isInternal(obj.Pkg()) && !r.seen[obj] {
		r.seen[obj] = true
		r.work = append(r.work, obj)
	}
}

// mentions reaches the internal/ named types t is made of. It stops at a
// named type: what that one is made of follows when it is taken off the
// work list.
func (r *reach) mentions(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		r.object(t.Obj())
	case *types.Pointer:
		r.mentions(t.Elem())
	case *types.Slice:
		r.mentions(t.Elem())
	case *types.Array:
		r.mentions(t.Elem())
	case *types.Chan:
		r.mentions(t.Elem())
	case *types.Map:
		r.mentions(t.Key())
		r.mentions(t.Elem())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.mentions(t.At(i).Type())
		}
	case *types.Signature:
		r.mentions(t.Params())
		r.mentions(t.Results())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				r.mentions(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			r.mentions(t.Method(i).Type())
		}
	}
}

// close drains the work list, then lets every interface in use reach the
// methods that satisfy it, until neither adds anything.
func (r *reach) close() {
	for {
		for len(r.work) > 0 {
			obj := r.work[len(r.work)-1]
			r.work = r.work[:len(r.work)-1]
			if _, ok := obj.(*types.TypeName); ok {
				r.mentions(obj.Type().Underlying())
			} else {
				r.mentions(obj.Type())
			}
		}
		for _, iface := range r.interfacesInUse() {
			for _, pkg := range r.l.pkgs {
				if !isInternal(pkg) {
					continue
				}
				for _, name := range pkg.Scope().Names() {
					tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
					if !ok || types.IsInterface(tn.Type()) {
						continue
					}
					ptr := types.NewPointer(tn.Type())
					if !types.Implements(ptr, iface) {
						continue
					}
					for i := 0; i < iface.NumMethods(); i++ {
						// An unexported method shows its signature to nobody outside.
						if m := iface.Method(i); m.Exported() {
							impl, _, _ := types.LookupFieldOrMethod(ptr, true, pkg, m.Name())
							r.object(impl)
						}
					}
				}
			}
		}
		if len(r.work) == 0 {
			return
		}
	}
}

// implicitInterfaces are the ones the standard library asks for without
// naming them in a signature this tree calls: error, fmt.Stringer and
// the Unwrap of errors.Is and errors.As.
var implicitInterfaces = func() []types.Type {
	const src = `package p
type (
	E interface{ Error() string }
	S interface{ String() string }
	U interface{ Unwrap() error }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "implicit.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var out []types.Type
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type())
	}
	return out
}()

// interfacesInUse lists the interface types a value of this tree can be
// asked to satisfy: every interface written in non-test source (literals,
// unexported ones, exported ones once reached), every interface in the
// signature of something used from outside the module, and the implicit
// ones.
func (r *reach) interfacesInUse() []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			return
		}
		if n, ok := t.(*types.Named); ok && isInternal(n.Obj().Pkg()) && n.Obj().Exported() && !r.seen[n.Obj()] {
			return
		}
		out = append(out, iface)
	}
	for _, iface := range implicitInterfaces {
		add(iface)
	}
	for _, tv := range r.l.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	for _, obj := range r.l.info.Uses {
		if pkg := obj.Pkg(); pkg == nil || pkg.Path() == modulePath || strings.HasPrefix(pkg.Path(), modulePath+"/") {
			continue
		}
		if sig, ok := obj.Type().(*types.Signature); ok {
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					add(tuple.At(i).Type())
				}
			}
		}
	}
	return out
}

var declaresClass = regexp.MustCompile(`::\s*([A-Za-z_][A-Za-z0-9_]*)`)

// auditSurface applies both rules to src. allowlist is the text of
// testdata/surface_allow.txt: one "ident<TAB>reason" per line, # comments.
func auditSurface(src sourceTree, allowlist string) (*surface, error) {
	l, err := load(src)
	if err != nil {
		return nil, err
	}
	s := &surface{}

	// Rule (a). What is declared:
	declared := map[string]types.Object{}
	for _, pkg := range l.pkgs {
		if !isInternal(pkg) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				declared[objectName(obj)] = obj
			}
			if n, ok := obj.Type().(*types.Named); ok && obj == n.Obj() {
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); m.Exported() {
						declared[objectName(m)] = m
					}
				}
			}
		}
	}
	s.declared = len(declared)
	knobs := knobFields(l)
	s.knobs = len(knobs)

	// Who uses it: another package of the root module, benchmark/, or only
	// its own package.
	var cross, bench []types.Object
	own := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		if !isInternal(obj.Pkg()) {
			continue
		}
		switch dir := path.Dir(l.fset.File(id.Pos()).Name()); {
		case importPath(dir) == obj.Pkg().Path():
			own[obj] = true
		case dir == "benchmark":
			bench = append(bench, obj)
		default:
			cross = append(cross, obj)
		}
	}
	closure := func(seeds ...[]types.Object) map[types.Object]bool {
		r := &reach{l: l, seen: map[types.Object]bool{}}
		for _, objs := range seeds {
			for _, obj := range objs {
				r.object(obj)
			}
		}
		r.close()
		return r.seen
	}
	var allowed []types.Object
	reasons := map[string]string{}
	for i, line := range strings.Split(allowlist, "\n") {
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "\t")
		if strings.TrimSpace(reason) == "" {
			s.stale = append(s.stale, fmt.Sprintf("line %d: %q gives no reason (ident<TAB>reason)", i+1, name))
		}
		if _, dup := reasons[name]; dup {
			s.stale = append(s.stale, fmt.Sprintf("line %d: %s is listed twice", i+1, name))
		}
		reasons[name] = reason
		if obj, ok := declared[name]; ok {
			allowed = append(allowed, obj)
		} else if _, ok := knobs[name]; !ok {
			s.stale = append(s.stale, fmt.Sprintf("line %d: %s is not an exported declaration under internal/ any more: delete the line", i+1, name))
		}
	}
	s.allowed = len(reasons)
	byRoot, byFrontDoors, withAllowed := closure(cross), closure(cross, bench), closure(cross, bench, allowed)
	for name, obj := range declared {
		switch _, listed := reasons[name]; {
		case byFrontDoors[obj] && listed:
			s.stale = append(s.stale, name+" is reached without the allowlist now: delete the line")
		case byFrontDoors[obj] && !byRoot[obj]:
			s.benchOnly = append(s.benchOnly, name)
		case withAllowed[obj]:
		case own[obj]:
			s.unreached = append(s.unreached, name+": its own package uses it, unexport")
		case l.tests[obj.Name()]:
			s.unreached = append(s.unreached, name+": only tests name it, delete it with them or allowlist it with the reason")
		default:
			s.unreached = append(s.unreached, name+": nothing names it, delete")
		}
	}
	sort.Strings(s.unreached)
	sort.Strings(s.benchOnly)

	// Rule (c).
	written := knobWrites(l)
	benchNamed := map[types.Object]bool{}
	for _, obj := range bench {
		benchNamed[obj] = true
	}
	for name, field := range knobs {
		switch _, listed := reasons[name]; {
		case (written[field] || benchNamed[field]) && listed:
			s.stale = append(s.stale, name+" is set without the allowlist now: delete the line")
		case written[field]:
		case benchNamed[field]:
			s.benchKnobs = append(s.benchKnobs, name)
		case !listed:
			s.unset = append(s.unset, name+": nothing but its own defaults sets it, make it a constant (unexport it if a test of its package sets it)")
		}
	}
	sort.Strings(s.unset)
	sort.Strings(s.benchKnobs)
	sort.Strings(s.stale)

	// Rule (b). Classes are registered by internal/click's non-test files
	// and instantiated by "name :: Class" in any non-test string literal
	// or by a non-test call Declare(name, "Class", ...).
	registered, built := map[string]bool{}, map[string]bool{}
	for dir, files := range l.dirs {
		for _, f := range files {
			if isTest(l.fset.File(f.Pos()).Name()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if fn, ok := n.Fun.(*ast.Ident); ok && dir == "internal/click" && strings.EqualFold(fn.Name, "register") && len(n.Args) == 2 {
						if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							class, _ := strconv.Unquote(lit.Value)
							registered[class] = true
						}
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Declare" && len(n.Args) >= 2 {
						if lit, ok := n.Args[1].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							class, _ := strconv.Unquote(lit.Value)
							built[class] = true
						}
					}
				case *ast.BasicLit:
					if n.Kind == token.STRING {
						text, _ := strconv.Unquote(n.Value)
						for _, m := range declaresClass.FindAllStringSubmatch(text, -1) {
							built[m[1]] = true
						}
					}
				}
				return true
			})
		}
	}
	for class := range registered {
		s.classes = append(s.classes, class)
		if !built[class] {
			s.unbuilt = append(s.unbuilt, class)
		}
	}
	sort.Strings(s.classes)
	sort.Strings(s.unbuilt)
	return s, nil
}

// isKnob reports whether an exported type name is a configuration
// struct's: one that ends in Config, Options or Params.
func isKnob(name string) bool {
	for _, suffix := range []string{"Config", "Options", "Params"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// knobFields are the exported fields of the exported configuration
// structs under internal/, by pkg.Type.Field.
func knobFields(l *loader) map[string]*types.Var {
	knobs := map[string]*types.Var{}
	for _, pkg := range l.pkgs {
		if !isInternal(pkg) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !isKnob(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					knobs[pkg.Name()+"."+name+"."+f.Name()] = f
				}
			}
		}
	}
	return knobs
}

// knobWrites is every struct field a non-test file outside benchmark/
// writes: a composite-literal key, or the left side of an assignment or
// an increment. An assignment inside the field's own package through a
// parameter or receiver of an enclosing function (p.F = …, p.Sub.F = …)
// fills in a default the caller left out, and is not a write.
func knobWrites(l *loader) map[types.Object]bool {
	written := map[types.Object]bool{}
	for dir, files := range l.dirs {
		if dir == "benchmark" {
			continue
		}
		for _, f := range files {
			var params []*ast.FieldList // of every function met so far in f
			isParam := func(obj types.Object) bool {
				for _, list := range params {
					if list.Pos() <= obj.Pos() && obj.Pos() < list.End() {
						return true
					}
				}
				return false
			}
			write := func(lhs ast.Expr) {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					return
				}
				field, ok := l.info.Uses[sel.Sel].(*types.Var)
				if !ok || !field.IsField() {
					return
				}
				if id := rootIdent(sel.X); id != nil && importPath(dir) == field.Pkg().Path() {
					if obj := l.info.Uses[id]; obj != nil && isParam(obj) {
						return
					}
				}
				written[field] = true
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						params = append(params, n.Recv)
					}
					params = append(params, n.Type.Params)
				case *ast.FuncLit:
					params = append(params, n.Type.Params)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if obj := l.info.Uses[id]; obj != nil {
							written[obj] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				}
				return true
			})
		}
	}
	return written
}

// rootIdent is the variable a selector chain starts from: p in p.F,
// p.Sub.F and (*p).F; nil when the chain starts from anything else.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		default:
			return nil
		}
	}
}

// guardTree is a module small enough to read: a library with one
// function nobody calls, one method only a test calls, one method
// reached only through an interface and a Config with one knob of each
// kind, a command that is its front door, a benchmark that names one
// knob, and a click package with one class the command's configuration
// instantiates, one it declares by call and one it does not.
var guardTree = sourceTree{
	"internal/lib/lib.go": `package lib

type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int      { return s.Side * s.Side }
func (s Square) Perimeter() int { return 4 * s.Side }

func Total(shapes ...Shape) (n int) {
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

func Unit() Square { return Square{Side: 1} }

func Orphan() {}

type Config struct {
	Defaulted int // only setDefaults writes it
	Literal   int // main's literal sets it
	Passed    int // main's tune writes it through its parameter
	Benched   int // only benchmark/ names it
}

func (c *Config) setDefaults() {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	if c.Passed == 0 {
		c.Passed = 1
	}
}

func Run(c Config) int {
	c.setDefaults()
	return c.Defaulted + c.Literal + c.Passed + c.Benched
}
`,
	"internal/lib/lib_test.go": `package lib

import "testing"

func TestPerimeter(t *testing.T) {
	if Unit().Perimeter() != 4 {
		t.Fail()
	}
}
`,
	"internal/click/click.go": `package click

func register(class string, build func() any) {}

func init() {
	register("Wired", nil)
	register("Declared", nil)
	register("Spare", nil)
}

func Parse(config string) {}

type Router struct{}

func (r *Router) Declare(name, class string, args ...string) {}
`,
	"cmd/tool/main.go": `package main

import (
	"vini/internal/click"
	"vini/internal/lib"
)

func tune(c *lib.Config) { c.Passed = 2 }

func main() {
	click.Parse("in :: Wired; in -> in;")
	new(click.Router).Declare("d", "Declared")
	println(lib.Total(lib.Unit()))
	c := lib.Config{Literal: 3}
	tune(&c)
	println(lib.Run(c))
}
`,
	"benchmark/bench.go": `package main

import "vini/internal/lib"

func main() { println(lib.Run(lib.Config{Benched: 4})) }
`,
}

func TestSurfaceGuardOnASmallTree(t *testing.T) {
	audit := func(allowlist string) *surface {
		t.Helper()
		s, err := auditSurface(guardTree, allowlist)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	same := func(what string, got []string, want ...string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\n  %s\nwant:\n  %s", what, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}

	// A caller-less function and a method only a test reaches are named;
	// Square.Area, which main reaches only as Shape.Area, is not.
	s := audit("")
	if s.declared != 12 {
		t.Errorf("%d exported declarations, want 12", s.declared)
	}
	same("unreached", s.unreached,
		"lib.Orphan: nothing names it, delete",
		"lib.Square.Perimeter: only tests name it, delete it with them or allowlist it with the reason")
	same("stale", s.stale)
	same("classes", s.classes, "Declared", "Spare", "Wired")
	same("unbuilt classes", s.unbuilt, "Spare")

	// A knob only its own setDefaults writes is named; one a caller's
	// literal sets, one another package writes through a parameter and
	// one benchmark/ names are not, and the last is logged.
	if s.knobs != 4 {
		t.Errorf("%d knob fields, want 4", s.knobs)
	}
	same("unset", s.unset,
		"lib.Config.Defaulted: nothing but its own defaults sets it, make it a constant (unexport it if a test of its package sets it)")
	same("knobs named only by benchmark/", s.benchKnobs, "lib.Config.Benched")

	// The allowlist answers for an identifier, and only with a reason.
	s = audit("# comment\nlib.Square.Perimeter\tthe test's oracle\nlib.Orphan\t \nlib.Config.Defaulted\tthe paper's default\n")
	same("unreached with both allowlisted", s.unreached)
	same("unset with it allowlisted", s.unset)
	same("stale", s.stale, `line 3: "lib.Orphan" gives no reason (ident<TAB>reason)`)

	// A line outlives its identifier, or its identifier is reached or set
	// again.
	s = audit("lib.Gone\tdeleted last year\nlib.Unit\tmain calls it now\nlib.Config.Literal\tmain sets it now\n")
	same("stale", s.stale,
		"lib.Config.Literal is set without the allowlist now: delete the line",
		"lib.Unit is reached without the allowlist now: delete the line",
		"line 1: lib.Gone is not an exported declaration under internal/ any more: delete the line")
}
