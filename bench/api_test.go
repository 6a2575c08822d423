package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// No later change may edit bench/, so every repository name the harness
// uses is frozen. This test keeps that surface small and away from what
// ROADMAP schedules for deletion or reshaping: only adapter.go may import
// the repository, and only the names below.
const repo = "github.com/pbitree/pbitree/"

var allowedNames = map[string][]string{
	"containment": {"NewEngine", "Open", "Config", "JoinOptions", "Engine", "Relation", "Result", "DocInfo", "DefaultDiskCost", "ParseAlgorithm"},
	"shard":       {"Split", "Open", "Config", "Engine", "ManifestName"},
	"qserv":       {"New", "Config"},
	"router":      {"New", "Config"},
	"ingest":      {"Open", "Config", "Store", "Op"},
	"workload":    {"DBLP", "XMark", "GenerateDBLP", "GenerateXMark", "DBLPQueries", "XMarkQueries"},
	"pbicode":     {"FBatch", "RegionBatch", "IsAncestor", "Code"},
	"xmltree":     {"Element", "Collection", "NewCollection", "Encode"},
}

var allowedFields = map[string][]string{
	"containment.Config":      {"Path", "PageSize", "BufferPages", "TreeHeight", "ReadOnly", "DiskCost"},
	"containment.JoinOptions": {"Algorithm"},
	"containment.DocInfo":     {"Name", "Root", "Elements"},
	"shard.Config":            {"BufferPages", "ReadOnly", "DiskCost"},
	"qserv.Config":            {"DBPath", "Workers", "BufferPages", "CacheEntries", "Ingest"},
	"router.Config":           {"Topology", "CacheEntries"},
	"ingest.Config":           {"DBPath", "GapAware", "BufferPages", "CompactAfter"},
	"ingest.Op":               {"Op", "Doc", "XML"},
}

// forbidden are names of options and packages due to go.
var forbidden = []string{"NoBatch", "Parallel", "Compress", "EngineNoBatch", "EngineParallel", "EngineCompress"}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func TestOnlyTheFrozenSurfaceIsUsed(t *testing.T) {
	files, _ := filepath.Glob("*.go")
	cmd, _ := filepath.Glob("cmd/*/*.go")
	fset := token.NewFileSet()
	for _, path := range append(files, cmd...) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, repo) {
				continue
			}
			if p == repo+"bench" {
				continue // the command imports the harness itself
			}
			if path != "adapter.go" {
				t.Errorf("%s imports %s; only adapter.go may import the repository", path, p)
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if _, ok := allowedNames[name]; !ok {
				t.Errorf("%s imports %s, which is outside the frozen surface", path, p)
			}
			pkgs[name] = true
		}
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if contains(forbidden, n.Name) {
					t.Errorf("%s uses %s, an option scheduled for deletion", fset.Position(n.Pos()), n.Name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && pkgs[x.Name] && x.Obj == nil && !contains(allowedNames[x.Name], n.Sel.Name) {
					t.Errorf("%s uses %s.%s, which is outside the frozen surface", fset.Position(n.Pos()), x.Name, n.Sel.Name)
				}
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok || !pkgs[x.Name] {
					return true
				}
				typ := x.Name + "." + sel.Sel.Name
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						t.Errorf("%s: %s literal without field names", fset.Position(elt.Pos()), typ)
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && !contains(allowedFields[typ], key.Name) {
						t.Errorf("%s sets %s.%s, which is outside the frozen surface", fset.Position(kv.Pos()), typ, key.Name)
					}
				}
			}
			return true
		})
	}
}
