package sagnn

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

// testOnlySurface lists the exported declarations outside benchmark/ that no
// non-test file names, each with the reason it stays. Keys are
// package.Name or package.Receiver.Name.
var testOnlySurface = map[string]string{
	"sagnn.DatasetFromEdges":        "public API: builds a dataset from a caller's own edge list",
	"sagnn.MustLoadDataset":         "public API: LoadDataset for callers with fixed, known-good arguments",
	"sagnn.WithRecovery":            "public API: the session option that retries a faulted launch from a snapshot",
	"sagnn.WithAutoSnapshot":        "public API: the session option that takes rollback points every k epochs",
	"sagnn.Cluster.Processes":       "public API: a cluster's process count",
	"comm.RankError.Unwrap":         "errors.Is/As reach the cause through it",
	"serve.failReader.Read":         "io.Reader: the io.MultiReader that ends a request-body read calls it",
	"gcn.ObserveMultiplies":         "test seam: counts the multiplies a session runs",
	"minibatch.Derivations":         "test seam: counts sampled-step derivations per process",
	"distmm.EngineBuilds":           "test seam: counts engine constructions across sessions",
	"comm.Stats.BytesRecv":          "receive half of the volume book",
	"comm.VolumeSnapshot.BytesRecv": "receive half of the volume book",
	"comm.World.Ops":                "fault-site coordinate: the op count a fault is injected at",
	"gen.ErdosRenyi":                "the uniform random-graph generator beside RMAT and Banded",
	"dense.FromSlice":               "element access on the core dense type",
	"dense.Matrix.At":               "element access on the core dense type",
	"dense.Matrix.Equal":            "comparison on the core dense type",
	"sparse.CSR.At":                 "element access on the core sparse type",
	"gcn.Model.MaxWeightDiff":       "comparison on the core model type",
}

// TestNoTestOnlySurface fails when an exported declaration outside
// benchmark/ is named by no non-test Go file (benchmark/ included) and has no
// entry in testOnlySurface, or when an entry no longer describes such a
// declaration. Matching is by identifier, so a name used anywhere counts as
// used.
func TestNoTestOnlySurface(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, pos string }
	var decls []decl
	own := map[*ast.Ident]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		files = append(files, f)
		if strings.HasPrefix(filepath.ToSlash(path), "benchmark/") {
			return nil
		}
		add := func(recv string, id *ast.Ident) {
			if !id.IsExported() {
				return
			}
			own[id] = true
			key := f.Name.Name + "." + id.Name
			if recv != "" {
				key = f.Name.Name + "." + recv + "." + id.Name
			}
			decls = append(decls, decl{key, fset.Position(id.Pos()).String()})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(receiverName(d), d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add("", s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add("", n)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var unused []string
	listed := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if used[name] {
			continue
		}
		if _, ok := testOnlySurface[d.key]; ok {
			listed[d.key] = true
			continue
		}
		unused = append(unused, d.key+" ("+d.pos+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but named by no non-test file: %s", u)
	}
	for key := range testOnlySurface {
		if !listed[key] {
			t.Errorf("testOnlySurface lists %s, which is no longer a declaration only tests name", key)
		}
	}
}

// receiverName is a method's receiver type name, "" for a function.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if generic, ok := typ.(*ast.IndexExpr); ok {
		typ = generic.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
