package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// unreachableAllowed names declarations under internal/ that nothing the
// module ships reaches, each kept for the reason given. A reason is one of
// two kinds: a test seam that another package's tests need, or a
// capability PAPER.md's substitution table names.
var unreachableAllowed = map[string]string{
	"triana.SubWorkflowUnit":  "PAPER.md's substitution table names Triana sub-/meta-workflows",
	"trace.SetSampleEvery":    "test seam: the mq and loader tests trace every event",
	"trace.Ring.Record":       "test seam: dashboard's /api/traces golden test serves a hand-built ring",
	"trace.Ring.RecordCommit": "test seam: dashboard's /api/traces golden test serves a hand-built ring",
	"health.Engine.Signal":    "test seam: dashboard's TestStalledSubscriberResyncsOffTheBus reads the bus drop rate back",
	"relstore.Row.Layout":     "test seam: the archive and loader tests read a stored row column by column",
	"relstore.Col.Type":       "test seam: the archive and loader tests read a stored row column by column",
}

// TestNothingUnreachable type-checks the module's non-test code and walks
// it from what ships: every package main under cmd/, examples/ and bench/,
// every init and every package-level var (their initializers run at
// import). A declaration under internal/ that the walk never reaches is
// dead code or belongs in a _test.go file. A method called through an
// interface is live when its receiver type is reachable and reachable
// code calls a method of the same name and signature through an
// interface, any interface of the standard library packages the module
// imports declares one, or a reachable template names it. The walk may
// keep dead code; it must never flag live code.
func TestNothingUnreachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	r := newReach()
	r.load(t, listPackages(t))
	r.walk(r.roots...)

	// An allowlisted declaration is kept, and so is what it reaches.
	var kept []*node
	for key := range unreachableAllowed {
		n, ok := r.byKey[key]
		switch {
		case !ok:
			t.Errorf("allowlist entry %s names no declaration", key)
		case n.live:
			t.Errorf("allowlist entry %s is reachable; drop it from the list", key)
		default:
			kept = append(kept, n)
		}
	}
	r.walk(kept...)

	var flagged []string
	for _, n := range r.nodes {
		if n.live || !strings.Contains(n.pkg, "/internal/") {
			continue
		}
		p := r.fset.Position(n.pos)
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		flagged = append(flagged, fmt.Sprintf("%s:%d %s", rel, p.Line, n.key()))
	}
	sort.Strings(flagged)
	if len(flagged) > 0 {
		t.Errorf("%d declarations under internal/ are reachable from no binary, example or bench/; delete them, move them into their package's _test.go files, or allowlist them with a reason:\n%s",
			len(flagged), strings.Join(flagged, "\n"))
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
}

// listPackages returns every package the module's non-test code builds,
// standard library included, with the export data of each.
func listPackages(t *testing.T) []listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// A node is one declaration: a package-level func, type, var or const (the
// constants of one iota group together), or a method.
type node struct {
	pkg   string
	name  string // "Name", or "Type.Method" for a method
	pos   token.Pos
	decl  ast.Node
	recv  *types.TypeName // a method's receiver type
	mkey  string          // a method's methodKey
	live  bool
	types []*types.TypeName // the types this node declares
}

func (n *node) key() string {
	return n.pkg[strings.LastIndex(n.pkg, "/")+1:] + "." + n.name
}

type reach struct {
	fset  *token.FileSet
	nodes []*node
	byKey map[string]*node
	byObj map[types.Object]*node
	uses  map[*ast.Ident]types.Object
	roots []*node

	methodsOf   map[*types.TypeName][]*node
	methodNamed map[string][]*node
	liveType    map[*types.TypeName]bool
	called      map[string]bool // methodKeys called through an interface
	calledName  map[string]bool // names called through a generic interface
	queue       []*node
}

func newReach() *reach {
	r := &reach{
		fset:        token.NewFileSet(),
		byKey:       map[string]*node{},
		byObj:       map[types.Object]*node{},
		uses:        map[*ast.Ident]types.Object{},
		methodsOf:   map[*types.TypeName][]*node{},
		methodNamed: map[string][]*node{},
		liveType:    map[*types.TypeName]bool{},
		called:      map[string]bool{},
		calledName:  map[string]bool{},
	}
	for _, k := range stdInBody {
		r.called[k] = true
	}
	return r
}

// load type-checks the module's packages from source, in dependency
// order, and imports the standard library from export data.
func (r *reach) load(t *testing.T, pkgs []listedPackage) {
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(r.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	// go list -deps prints every package after its dependencies.
	for _, p := range pkgs {
		if p.Standard {
			r.stdInterfaces(imp, p.ImportPath)
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(r.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, r.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		for id, o := range info.Uses {
			r.uses[id] = o
		}
		main := p.Name == "main"
		for _, f := range files {
			r.declare(p.ImportPath, f, info, main)
		}
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdInterfaces records the methods of every interface a standard library
// package declares: the library may call any of them on a value the module
// hands it (String, Error, ServeHTTP, Write, Len, ...).
func (r *reach) stdInterfaces(imp types.Importer, path string) {
	if path == "unsafe" {
		return
	}
	p, err := imp.Import(path)
	if err != nil {
		return
	}
	for _, name := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				r.called[methodKey(it.Method(i))] = true
			}
		}
	}
}

// stdInBody are the interfaces the standard library asserts inside
// function bodies (errors.Is/As/Unwrap, net.Error's Temporary), which
// export data does not carry.
var stdInBody = []string{"Unwrap()(error,)", "Unwrap()([]error,)", "Is(error,)(bool,)", "As(any,)(bool,)", "Timeout()(bool,)", "Temporary()(bool,)"}

// methodKey is a method's name and the types of its parameters and
// results: a type implements an interface only with methods identical in
// both.
func methodKey(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(f.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func (r *reach) add(n *node, objs ...types.Object) {
	r.nodes = append(r.nodes, n)
	r.byKey[n.key()] = n
	for _, o := range objs {
		r.byObj[o] = n
		if tn, ok := o.(*types.TypeName); ok {
			n.types = append(n.types, tn)
		}
	}
}

func (r *reach) declare(pkg string, f *ast.File, info *types.Info, main bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj := info.Defs[d.Name]
			n := &node{pkg: pkg, name: d.Name.Name, pos: d.Pos(), decl: d}
			if d.Recv != nil {
				n.recv = recvType(obj)
				n.mkey = methodKey(obj.(*types.Func))
				n.name = n.recv.Name() + "." + d.Name.Name
				r.add(n, obj)
				r.methodsOf[n.recv] = append(r.methodsOf[n.recv], n)
				r.methodNamed[d.Name.Name] = append(r.methodNamed[d.Name.Name], n)
				continue
			}
			if d.Name.Name == "init" {
				n.name = fmt.Sprintf("init@%d", r.fset.Position(d.Pos()).Line)
				r.roots = append(r.roots, n)
				r.nodes = append(r.nodes, n)
				continue
			}
			r.add(n, obj)
			if main && d.Name.Name == "main" {
				r.roots = append(r.roots, n)
			}
		case *ast.GenDecl:
			if d.Tok == token.CONST && d.Lparen.IsValid() && usesIota(d) {
				// One iota group is one declaration: its zero value and
				// order are part of what it means.
				n := &node{pkg: pkg, pos: d.Pos(), decl: d}
				var objs []types.Object
				for _, s := range d.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						if id.Name != "_" {
							objs = append(objs, info.Defs[id])
						}
					}
				}
				n.name = objs[0].Name()
				r.add(n, objs...)
				continue
			}
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					r.add(&node{pkg: pkg, name: s.Name.Name, pos: s.Pos(), decl: s}, info.Defs[s.Name])
				case *ast.ValueSpec:
					n := &node{pkg: pkg, pos: s.Pos(), decl: s}
					var objs []types.Object
					for _, id := range s.Names {
						if id.Name != "_" {
							objs = append(objs, info.Defs[id])
						}
					}
					if len(objs) == 0 {
						n.name = fmt.Sprintf("_@%d", r.fset.Position(s.Pos()).Line)
						r.nodes = append(r.nodes, n)
					} else {
						n.name = objs[0].Name()
						r.add(n, objs...)
					}
					if d.Tok == token.VAR {
						r.roots = append(r.roots, n)
					}
				}
			}
		}
	}
}

func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

func recvType(obj types.Object) *types.TypeName {
	t := obj.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// viaInterface reports whether a method of a reachable type can be called
// through an interface that reachable code calls. A generic type's
// methods, whose signatures name its type parameters, are kept whenever
// the type is.
func (r *reach) viaInterface(m *node) bool {
	name := m.name[strings.IndexByte(m.name, '.')+1:]
	return r.called[m.mkey] || r.calledName[name] || m.recv.Type().(*types.Named).TypeParams() != nil
}

func (r *reach) mark(n *node) {
	if n == nil || n.live {
		return
	}
	n.live = true
	r.queue = append(r.queue, n)
	for _, tn := range n.types {
		r.liveType[tn] = true
		for _, m := range r.methodsOf[tn] {
			if r.viaInterface(m) {
				r.mark(m)
			}
		}
	}
}

// ifaceCall records a call through interface method f. A generic
// interface's methods are matched by name alone.
func (r *reach) ifaceCall(f *types.Func) {
	if named, ok := f.Type().(*types.Signature).Recv().Type().(*types.Named); ok && named.TypeArgs() != nil {
		r.callName(f.Name())
		return
	}
	if key := methodKey(f); !r.called[key] {
		r.called[key] = true
		r.markCalled(f.Name())
	}
}

// callName records a call of any method named name.
func (r *reach) callName(name string) {
	if !r.calledName[name] {
		r.calledName[name] = true
		r.markCalled(name)
	}
}

// markCalled marks live each method named name of a reachable type that
// a recorded call can reach.
func (r *reach) markCalled(name string) {
	for _, m := range r.methodNamed[name] {
		if r.liveType[m.recv] && r.viaInterface(m) {
			r.mark(m)
		}
	}
}

// templateCalls records every .Name inside a template action of a string
// literal as a call of any method Name: text/template and html/template
// call methods by reflection.
func (r *reach) templateCalls(lit string) {
	for _, action := range templateAction.FindAllString(lit, -1) {
		for _, m := range templateField.FindAllStringSubmatch(action, -1) {
			r.callName(m[1])
		}
	}
}

var (
	templateAction = regexp.MustCompile(`{{.*?}}`)
	templateField  = regexp.MustCompile(`\.([A-Z]\w*)`)
)

// walk marks from and everything it reaches live.
func (r *reach) walk(from ...*node) {
	for _, n := range from {
		r.mark(n)
	}
	for len(r.queue) > 0 {
		n := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		ast.Inspect(n.decl, func(x ast.Node) bool {
			if lit, ok := x.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				r.templateCalls(lit.Value)
			}
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := r.uses[id]
			if f, ok := obj.(*types.Func); ok {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					r.ifaceCall(f)
					return true
				}
				obj = f.Origin()
			}
			if v, ok := obj.(*types.Var); ok {
				obj = v.Origin()
			}
			r.mark(r.byObj[obj])
			return true
		})
	}
}
