package nwcache_test

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

// liveWithoutCaller lists exported functions and methods that stay
// although no non-test Go code of the root module names them, each with
// its reason. Keys are "dir.Func" or "dir.Recv.Method", dir relative to
// the repository root.
var liveWithoutCaller = map[string]string{
	"cmd/internal/cli.usageError.Unwrap":       "errors.Is and errors.As reach the wrapped error through it",
	"internal/guard.transientMark.Unwrap":      "errors.Is and errors.As reach the wrapped error through it",
	"internal/machine.Machine.CheckInvariants": "the reference invariant checker the model tests rely on",
	"internal/machine.Machine.ThreadResumes":   "the root benchmarks report resumes/op from it; runs read the thread_resumes probe",
	"internal/sim.Engine.InlineAdvances":       "the root benchmarks report inline/op from it; runs read the inline_advances probe",
	"internal/workload.Synthetics":             "the synthetic stress set the workload invariant test runs; a copy in the test would be longer",
	// Called from benchmark/, a separate module that changes only with
	// the benchmark itself.
	"internal/sim.Engine.KillParked": "benchmark/ calls it",
	"internal/obs.Snapshot.Merge":    "benchmark/ calls it",
	"internal/exp/pool.Pool.Stats":   "benchmark/ calls it",
	"internal/exp.NewSuiteOn":        "benchmark/ calls it",
}

// TestEveryExportedFuncHasACaller fails when an exported function or
// method of either module is named nowhere outside _test.go files. The
// match is by name alone, so it can miss dead code (a name shared with a
// live one) but never flags a live name.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	type decl struct{ key, name string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		names := map[*ast.Ident]bool{}
		for _, fd := range f.Decls {
			fd, ok := fd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			names[fd.Name] = true
			key := filepath.ToSlash(filepath.Dir(path)) + "."
			if fd.Recv != nil {
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fd.Name.Name, fd.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var dead []string
	for _, d := range decls {
		declared[d.key] = true
		if _, ok := liveWithoutCaller[d.key]; !ok && !used[d.name] {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s has no caller outside tests: delete it or list it in liveWithoutCaller with a reason", k)
	}
	for k := range liveWithoutCaller {
		if !declared[k] {
			t.Errorf("liveWithoutCaller lists %s, which is not declared", k)
		}
	}
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
