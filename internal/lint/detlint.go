package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

const detName = "detlint"

// deterministicPackages are the packages whose output feeds
// byte-identity gates: records, manifests, the executors that produce
// them, and the fleet, workload and policy inputs they run on. detlint
// applies to them and their subpackages.
var deterministicPackages = []string{
	"repro/internal/core",
	"repro/internal/sim",
	"repro/internal/experiments",
	"repro/internal/records",
	"repro/internal/rl",
	"repro/internal/nn",
	"repro/internal/policy",
	"repro/internal/device",
	"repro/internal/calib",
	"repro/internal/job",
	"repro/internal/graph",
	"repro/internal/runspec",
	"repro/cmd/qcloudsim",
}

// detRandExempt lists math/rand functions that construct seeded
// generators rather than consuming the global one.
var detRandExempt = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// DetLint flags nondeterminism sources in determinism-critical
// packages: wall-clock reads (time.Now), the process-global math/rand
// generator, selects that race multiple ready channels, and map
// iteration whose order the loop body makes observable.
var DetLint = &Analyzer{
	Name: detName,
	Doc:  "nondeterminism sources in determinism-critical packages",
	Applies: func(path string) bool {
		for _, p := range deterministicPackages {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	},
	Run: runDetLint,
}

func runDetLint(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if d, ok := detSelector(pkg, n); ok {
					out = append(out, d)
				}
			case *ast.SelectStmt:
				if d, ok := detSelect(pkg, n); ok {
					out = append(out, d)
				}
			case *ast.RangeStmt:
				if d, ok := detMapRange(pkg, n); ok {
					out = append(out, d)
				}
			}
			return true
		})
	}
	return out
}

// detSelector flags time.Now and global math/rand uses.
func detSelector(pkg *Package, sel *ast.SelectorExpr) (Diagnostic, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return Diagnostic{}, false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return Diagnostic{}, false
	}
	switch pn.Imported().Path() {
	case "time":
		if sel.Sel.Name == "Now" {
			return pkg.diag(detName, sel,
				"time.Now reads the wall clock: deterministic code must take time from the simulation clock"), true
		}
	case "math/rand", "math/rand/v2":
		obj := pkg.Info.Uses[sel.Sel]
		if _, isFunc := obj.(*types.Func); isFunc && !detRandExempt[sel.Sel.Name] {
			return pkg.diag(detName, sel,
				"rand.%s draws from the process-global generator: use a seeded *rand.Rand", sel.Sel.Name), true
		}
	}
	return Diagnostic{}, false
}

// detSelect flags selects with two or more communication cases: when
// several are ready the runtime picks one pseudo-randomly, so any
// record-bearing state downstream diverges between runs.
func detSelect(pkg *Package, sel *ast.SelectStmt) (Diagnostic, bool) {
	comms := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms < 2 {
		return Diagnostic{}, false
	}
	return pkg.diag(detName, sel,
		"select with %d communication cases resolves readiness races nondeterministically", comms), true
}

// detMapRange flags range-over-map loops whose body makes the
// nondeterministic iteration order observable: appending to a slice,
// sending on a channel, or writing output.
func detMapRange(pkg *Package, rng *ast.RangeStmt) (Diagnostic, bool) {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok {
		return Diagnostic{}, false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return Diagnostic{}, false
	}
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "a channel send"
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					sink = "an append"
				}
			}
			if name, ok := outputCallName(pkg, n); ok {
				sink = name
			}
		}
		return true
	})
	if sink == "" {
		return Diagnostic{}, false
	}
	return pkg.diag(detName, rng,
		"map iteration order is nondeterministic and %s in the loop body makes it observable", sink), true
}

// outputCallName recognizes output-writing calls inside a map-range
// body: Print/Fprint/Write/Log-family functions and methods.
func outputCallName(pkg *Package, call *ast.CallExpr) (string, bool) {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	default:
		return "", false
	}
	for _, prefix := range []string{"Print", "Fprint", "Write", "Log"} {
		if strings.HasPrefix(name, prefix) {
			return "a call to " + name, true
		}
	}
	return "", false
}
