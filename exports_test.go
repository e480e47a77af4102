package pgridfile_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports is the allow-list of TestNoTestOnlyExports: exported funcs,
// methods, package-level vars and consts of internal/* that no non-test file
// uses, each with the reason it stays. An entry whose declaration has gained
// a user, or is gone, fails the test too, so the list cannot rot.
var testOnlyExports = map[string]string{
	// The paper's analytic results, stated as code and tested against
	// enumeration; no experiment driver prints these particular ones.
	"internal/analytic.DMTheorem1Condition":         "paper Theorem 1(i), the strict-optimality predicate; tested against brute force",
	"internal/analytic.FXScalingFloor":              "paper Theorem 2(iii), the 3/4 scaling floor the FX tests hold measured responses to",
	"internal/analytic.DMExpectedResponseGeneral":   "enumeration the DM closed form is cross-checked against, for non-square windows too",
	"internal/analytic.DMPartialMatchResponse":      "DM's exact partial-match response; the reference the enumeration test compares to",
	"internal/analytic.OneUnspecifiedAlwaysOptimal": "the Du–Sobolewski guarantee the paper cites for partial match, swept by the tests",
	"internal/analytic.DMSaturationKD":              "d-dimensional form of Theorem 1's R = l regime, tested against DMResponseKD",
	"internal/parallel.(*Engine).QueryRecords":      "paper §3.5: shipping the qualified records back to the coordinator",

	// Oracles and probes the tests of several packages need exported.
	"internal/gridfile.(*File).CheckInvariants":       "structural oracle the grid-file and synth tests check every built or mutated file against",
	"internal/gridfile.(BucketView).CellSpan":         "cells per bucket, the oracle of the merged-bucket property tests in gridfile and core",
	"internal/store.(*Store).SetClock":                "test hook: the server's trace test drives store timings from a step clock",
	"internal/campaign.Load":                          "reads the committed CAMPAIGN.json for the baseline gate test",
	"internal/campaign.Compare":                       "the baseline gate test names every counter that moved with it",
	"internal/sim.(Result).Percentile":                "tail of the per-query response times; the test ranking MST below minimax by p95 reads it",
	"internal/rtree.(*Tree).Height":                   "probe of the STR bulk-load tiling test; printed by the package Example",
	"internal/rtree.(*Tree).RangeCount":               "what the tree holds, checked against brute force: the oracle that bulk loading lost or duplicated no point",
	"internal/sfc.(*Hilbert).Coords":                  "the inverse of Key: the bijectivity, adjacency and round-trip tests walk the curve with it",
	"internal/sfc.(*Gray).Coords":                     "as Hilbert's; the one-bit-per-step property of the Gray curve is stated on it",
	"internal/gridfile.(*TwoLevelDirectory).BucketAt": "per-cell oracle: the paged directory is compared with the flat one cell by cell, and its page accounting read off one lookup",

	// The library's and the protocol's surface that this repo's own programs
	// happen not to call.
	"internal/gridfile.(*File).Delete":    "public API through the root facade (GridFile): DeleteTracked without the bookkeeping the store's write path reads",
	"internal/gridfile.(*File).Clear":     "public API through the root facade (GridFile), beside Delete",
	"internal/server.(*Client).DeleteCtx": "the client call of the DELETE wire verb; loadgen's mix has no deletes, the write tests drive the server's delete path with it",
}

// TestNoTestOnlyExports keeps internal/* cut to what is read: an exported
// func, method, package-level var or const there must be used by some
// non-test Go file, or carry a reason in testOnlyExports. Production code
// that only tests call is how a second framing API and a second percentile
// grew unnoticed (DESIGN S37), and a failpoint site constant outlived the
// last code that evaluated it (DESIGN S44).
//
// It type-checks the module's non-test files with go/types, so a use is a
// use of that very func: a method is live when some non-test file calls it
// (or takes its value), when its receiver implements an interface declared
// in this module through which some non-test file calls the method, or one
// of the standard library's that values of this module are handed to. Until
// PR 22 it matched methods by name alone from the parser's output, and seven
// context-less Client wrappers hid behind every other .Range and .Point
// (DESIGN S39).
// Narrowing the name match to files that import the declaring package was
// tried first: it either flagged live methods (a package may call a method
// on a value it got from a third package) or, with imports followed
// transitively, caught two of the twenty. Types cost a type-check of the
// standard library's declarations: stdlibImporter reads them from GOROOT/src
// without function bodies and without go list, about 1 s here (6 s under
// -race) against 10 s for go/importer's "source" mode.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "pgridfile"
	stdlibCalls := [][2]string{ // interfaces the standard library calls values of this module through
		{"fmt", "Stringer"}, {"sort", "Interface"}, {"net/http", "Handler"},
		{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"}, {"io", "WriterTo"},
	}
	fset := token.NewFileSet()
	imp := &stdlibImporter{fset: fset, files: map[string][]*ast.File{}, pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ipath := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		imp.files[ipath] = append(imp.files[ipath], file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ipath := range imp.files {
		if _, err := imp.Import(ipath); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range imp.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
	}
	// Interfaces a method can be reached through: the module's named ones,
	// where some non-test file calls the method on the interface, and the
	// standard library's, whose callers are out of sight.
	var ifaces []*types.Interface
	for _, obj := range imp.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	stdlib := []types.Object{types.Universe.Lookup("error")}
	for _, pn := range stdlibCalls {
		if pkg := imp.pkgs[pn[0]]; pkg != nil {
			stdlib = append(stdlib, pkg.Scope().Lookup(pn[1]))
		}
	}
	for _, obj := range stdlib {
		it := obj.Type().Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			used[it.Method(i)] = true
		}
		ifaces = append(ifaces, it)
	}
	throughInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if m := it.Method(i); m.Name() == fn.Name() && used[m] && types.Implements(recv, it) {
					return true
				}
			}
		}
		return false
	}

	dead := map[string]token.Pos{}
	for ipath, files := range imp.files {
		dir := strings.TrimPrefix(ipath, module+"/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, file := range files {
			for _, d := range file.Decls {
				if g, ok := d.(*ast.GenDecl); ok && (g.Tok == token.CONST || g.Tok == token.VAR) {
					for _, spec := range g.Specs {
						for _, name := range spec.(*ast.ValueSpec).Names {
							if name.IsExported() && !used[imp.info.Defs[name]] {
								dead[dir+"."+name.Name] = name.Pos()
							}
						}
					}
					continue
				}
				n, ok := d.(*ast.FuncDecl)
				if !ok || !n.Name.IsExported() {
					continue
				}
				fn := imp.info.Defs[n.Name].(*types.Func)
				key := dir + "." + n.Name.Name
				live := used[fn]
				if n.Recv != nil && len(n.Recv.List) == 1 {
					recv := receiverName(n.Recv.List[0].Type)
					if !ast.IsExported(strings.TrimPrefix(recv, "*")) {
						continue // methods of unexported types are reached through interfaces
					}
					key = dir + ".(" + recv + ")." + n.Name.Name
					live = live || throughInterface(fn)
				}
				if !live {
					dead[key] = n.Name.Pos()
				}
			}
		}
	}
	var keys []string
	for key := range dead {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if testOnlyExports[key] == "" {
			t.Errorf("%s: %s is exported but no non-test file uses it; delete it, move it to a _test.go file, or give it a reason in testOnlyExports",
				fset.Position(dead[key]), key)
		}
	}
	for key, reason := range testOnlyExports {
		if _, ok := dead[key]; !ok {
			t.Errorf("testOnlyExports[%q] is stale: it has a non-test user or no longer exists", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testOnlyExports[%q] has no reason", key)
		}
	}
}

// stdlibImporter type-checks the module's packages from the files handed to
// it, recording their definitions and uses in info, and everything else from
// GOROOT/src: declarations only, pure-Go file set, errors ignored (nothing
// here reads the standard library's bodies or needs it complete).
type stdlibImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // the module's packages, by import path
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *stdlibImporter) Import(ipath string) (*types.Package, error) {
	if ipath == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := m.pkgs[ipath]; ok {
		return pkg, nil
	}
	conf := types.Config{Importer: m}
	files, local := m.files[ipath]
	if !local {
		ctx := build.Default
		ctx.CgoEnabled = false
		dir := filepath.Join(ctx.GOROOT, "src", ipath)
		if _, err := os.Stat(dir); err != nil {
			dir = filepath.Join(ctx.GOROOT, "src", "vendor", ipath)
		}
		bp, err := ctx.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		for _, name := range bp.GoFiles {
			file, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, file)
		}
		conf.IgnoreFuncBodies = true
		conf.Error = func(error) {}
	}
	info := m.info
	if !local {
		info = nil
	}
	pkg, err := conf.Check(ipath, m.fset, files, info)
	if local && err != nil {
		return nil, err
	}
	m.pkgs[ipath] = pkg
	return pkg, nil
}

// TestExecutorKnowsNoSocketNoEnvelope holds the seam internal/server was cut
// along (DESIGN S39): exec.go and fetch.go — request frame in, inner reply
// out — import nothing that is a socket and name nothing that is the wire
// envelope; both belong to conn.go. Parser only, like the guard above was.
func TestExecutorKnowsNoSocketNoEnvelope(t *testing.T) {
	socket := map[string]bool{"net": true, "bufio": true, "net/http": true}
	envelope := map[string]bool{
		"beginFrame": true, "endFrame": true, "appendErrorFrame": true,
		"VerbTagged": true, "VerbTaggedReply": true, "UnwrapTagged": true, "taggedHdrLen": true,
	}
	for _, name := range []string{"exec.go", "fetch.go"} {
		p := filepath.Join("internal", "server", name)
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range file.Imports {
			if ipath, _ := strconv.Unquote(im.Path.Value); socket[ipath] {
				t.Errorf("%s imports %q: the executor is reached without a socket", fset.Position(im.Pos()), ipath)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && envelope[id.Name] {
				t.Errorf("%s names %s: the executor appends inner replies, conn.go frames them", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

// TestLayoutHasOneWriter holds internal/store to one way of putting a layout
// on disk (DESIGN S40) and one way of opening it (S57): a fresh build and a
// checkpoint are the same path, so in the package's non-test files nothing
// calls os.WriteFile, os.Rename is called by atomicWriteFile alone, pages are
// encoded by rewriteBucket alone, and "layout.grd", the checkpoint file, is
// named only by the opener that reads it, the committer that renames it into
// place and the builder's first step, which unlinks the old one so that a
// directory under construction is no layout. The disk files are opened only
// by the checkpoint reader, read-write, and created only by the builder, so
// no second handle onto them exists to write through.
func TestLayoutHasOneWriter(t *testing.T) {
	allowed := map[string]map[string]bool{
		"os.WriteFile": {},
		"os.Rename":    {"atomicWriteFile": true},
		"encodePage":   {"rewriteBucket": true},
		`"layout.grd"`: {"Open": true, "checkpointLocked": true, "writeLayout": true},
		"DiskFileName": {"readCheckpoint": true, "writeLayout": true},
	}
	dir := filepath.Join("internal", "store")
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, file := range parseNonTestFiles(t, fset, dir) {
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var what string
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						what = x.Name + "." + n.Sel.Name
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok {
						what = id.Name
					}
				case *ast.BasicLit:
					what = n.Value
				}
				if in, ok := allowed[what]; ok {
					seen[what] = true
					if !in[fn.Name.Name] {
						t.Errorf("%s: %s in %s: a layout reaches disk through rewriteBucket and checkpointLocked only",
							fset.Position(n.Pos()), what, fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	for what, in := range allowed {
		if len(in) > 0 && !seen[what] {
			t.Errorf("%s occurs nowhere in %s: the guard is looking for the wrong thing", what, dir)
		}
	}
}

// TestInjectedFaultIsAFailedRead holds the serving path to one rule for a
// failed read (DESIGN S52): it is read once, then failed over, degraded or
// returned, whatever the error. So no non-test Go file names
// fault.ErrInjected to tell an injected failure from a real one, except the
// fault package that defines it and internal/store's readSpans, which wraps
// it into a torn read's error; a branch on it anywhere else would be a path
// only injected faults take.
func TestInjectedFaultIsAFailedRead(t *testing.T) {
	allowed := map[string]string{filepath.Join("internal", "store"): "readSpans"}
	var dirs []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") || p == filepath.Join("internal", "fault") {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, dir := range dirs {
		fset := token.NewFileSet()
		for _, file := range parseNonTestFiles(t, fset, dir) {
			name := ""
			for _, im := range file.Imports {
				if ipath, _ := strconv.Unquote(im.Path.Value); ipath == "pgridfile/internal/fault" {
					name = "fault"
					if im.Name != nil {
						name = im.Name.Name
					}
				}
			}
			if name == "" {
				continue
			}
			for _, d := range file.Decls {
				fn := ""
				if f, ok := d.(*ast.FuncDecl); ok {
					fn = f.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "ErrInjected" {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != name {
						return true
					}
					if allowed[dir] == fn {
						seen[dir] = true
					} else {
						t.Errorf("%s: fault.ErrInjected in %s: an injected fault is a failed read like any other",
							fset.Position(sel.Pos()), fn)
					}
					return true
				})
			}
		}
	}
	for dir, fn := range allowed {
		if !seen[dir] {
			t.Errorf("%s's %s names no fault.ErrInjected: the guard is looking for the wrong thing", dir, fn)
		}
	}
}

// TestLabModelsAreSequential holds the lab's three response-time models —
// sim.Replay and sim.ReplaySpans, the SP-2 cost model of internal/parallel,
// and the disk model under it — to what they are (DESIGN S41): functions of
// file × allocation × queries that compute every time they report. Their
// non-test files start no goroutine, declare no channel, and import neither
// sync nor internal/fault; the design running concurrently, with failpoints,
// is internal/server.
func TestLabModelsAreSequential(t *testing.T) {
	banned := map[string]bool{"sync": true, "pgridfile/internal/fault": true}
	for _, pkg := range []string{"sim", "parallel", "diskmodel"} {
		fset := token.NewFileSet()
		files := parseNonTestFiles(t, fset, filepath.Join("internal", pkg))
		if len(files) == 0 {
			t.Errorf("internal/%s has no non-test files: the guard is looking in the wrong place", pkg)
		}
		for _, file := range files {
			for _, im := range file.Imports {
				if ipath, _ := strconv.Unquote(im.Path.Value); banned[ipath] {
					t.Errorf("%s imports %q: a lab model is a sequential function", fset.Position(im.Pos()), ipath)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement: a lab model is a sequential function", fset.Position(n.Pos()))
				case *ast.ChanType:
					t.Errorf("%s: channel type: a lab model is a sequential function", fset.Position(n.Pos()))
				}
				return true
			})
		}
	}
}

// parseNonTestFiles parses the non-test Go files of one package directory.
func parseNonTestFiles(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	return files
}

// receiverName renders a method receiver's type: T or *T, type parameters
// dropped.
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
