package pgridfile_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports is the allow-list of TestNoTestOnlyExports: exported funcs
// and methods of internal/* that no non-test file uses, each with the reason
// it stays. An entry whose func has gained a user, or is gone, fails the test
// too, so the list cannot rot.
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
	"internal/gridfile.(*File).CheckInvariants": "structural oracle the grid-file and synth tests check every built or mutated file against",
	"internal/gridfile.(BucketView).CellSpan":   "cells per bucket, the oracle of the merged-bucket property tests in gridfile and core",
	"internal/store.(*Store).SetClock":          "test hook: the server's trace test drives store timings from a step clock",
	"internal/campaign.Load":                    "reads the committed CAMPAIGN.json for the baseline gate test",
	"internal/campaign.Compare":                 "the baseline gate test names every counter that moved with it",
	"internal/parallel.(*Engine).RunConcurrent": "the SPMD engine's only concurrent entry; its accounting test is what runs the workers under -race",
	"internal/sim.(Result).Percentile":          "tail of the per-query response times; the test ranking MST below minimax by p95 reads it",
	"internal/rtree.(*Tree).Height":             "probe of the STR bulk-load tiling test; printed by the package Example",
}

// TestNoTestOnlyExports keeps internal/* cut to what is read: an exported
// func or method there must be used by some non-test Go file, or carry a
// reason in testOnlyExports. Production code that only tests call is how a
// second framing API and a second percentile grew unnoticed (DESIGN S37).
//
// It works from the standard library's parser alone, without type
// information. A package-level func counts as used when a file of its own
// package names it, or a file importing its package selects it from that
// import. A method counts as used when any non-test file selects its name
// from anything, or declares it in an interface (which is also how methods
// reached through an interface of this repo are covered); methods the
// standard library calls through its own interfaces are exempt by name. So
// it can miss a dead method that shares its name with a live one; it does
// not flag a live one.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "pgridfile"
	stdlibCalls := map[string]bool{ // fmt.Stringer, error, sort.Interface, http.Handler, io.*
		"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
		"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
	}
	type decl struct {
		key, pkg, name string
		method         bool
		pos            token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	funcUsed := map[string]bool{}   // "import/path.Name"
	methodUsed := map[string]bool{} // "Name"

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
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name → module-relative dir
		for _, im := range file.Imports {
			ipath, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(ipath, module+"/") {
				continue
			}
			name := path.Base(ipath)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(ipath, module+"/")
		}

		notAUse := map[*ast.Ident]bool{} // declared names, selected names, literal keys
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				notAUse[n.Name] = true
				if !n.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
					break
				}
				dc := decl{key: dir + "." + n.Name.Name, pkg: dir, name: n.Name.Name, pos: n.Name.Pos()}
				if n.Recv != nil && len(n.Recv.List) == 1 {
					recv := receiverName(n.Recv.List[0].Type)
					if !ast.IsExported(strings.TrimPrefix(recv, "*")) {
						break // methods of unexported types are reached through interfaces
					}
					dc.key, dc.method = dir+".("+recv+")."+n.Name.Name, true
				}
				decls = append(decls, dc)
			case *ast.SelectorExpr:
				notAUse[n.Sel] = true
				methodUsed[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcUsed[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Field: // struct fields, parameters, interface methods
				for _, name := range n.Names {
					notAUse[name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						methodUsed[name.Name] = true
					}
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					notAUse[k] = true
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !notAUse[id] {
				funcUsed[dir+"."+id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	dead := map[string]token.Pos{}
	for _, d := range decls {
		used := funcUsed[d.pkg+"."+d.name]
		if d.method {
			used = methodUsed[d.name] || stdlibCalls[d.name]
		}
		if !used {
			dead[d.key] = d.pos
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
			t.Errorf("testOnlyExports[%q] is stale: that func has a non-test user or no longer exists", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testOnlyExports[%q] has no reason", key)
		}
	}
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
