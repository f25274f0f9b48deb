package lint

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc is an advisory analyzer for the allocation-free simulation
// hot path. In the per-packet packages (internal/netem, internal/pacer)
// every scheduler event is dispatched through the closure-free
// AtArg/AfterArg path with pooled argument records; a closure literal or a
// method value passed to plain At/After silently reintroduces one heap
// allocation per event, which the AllocsPerRun gates then catch far from
// the offending line. This analyzer points at the line instead.
//
// Setup-time closures that genuinely run once can be kept with
// //lint:ignore hotpathalloc <reason>.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "forbid closure-capturing simtime At/After calls in the per-packet " +
		"hot-path packages; use AtArg/AfterArg with a package-level dispatch function",
	Run: runHotPathAlloc,
}

// hotPathPkgs are the module-relative packages whose per-packet event
// scheduling must stay allocation-free (see the AllocsPerRun gates in
// each package's tests). internal/simtime is in scope for its own sake:
// the scheduler's self-scheduling machinery (the Ticker re-arm) sits
// under every simulated event, so a closure there is a per-event
// allocation for every caller at once.
var hotPathPkgs = map[string]bool{
	"internal/netem":   true,
	"internal/pacer":   true,
	"internal/simtime": true,
}

func runHotPathAlloc(pass *Pass) {
	if !hotPathPkgs[pass.Rel()] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "At" && name != "After" {
				return true
			}
			if !isSimtimeScheduler(pass, sel.X) {
				return true
			}
			if len(call.Args) != 2 {
				return true
			}
			switch arg := call.Args[1].(type) {
			case *ast.FuncLit:
				pass.Reportf(arg.Pos(),
					"closure passed to simtime Scheduler.%s allocates per event on the hot path; "+
						"use %sArg with a package-level dispatch function and a pooled record", name, name)
			case *ast.SelectorExpr:
				if s, ok := pass.Info.Selections[arg]; ok && s.Kind() == types.MethodVal {
					pass.Reportf(arg.Pos(),
						"method value %s passed to simtime Scheduler.%s allocates a bound closure per event; "+
							"use %sArg with a package-level dispatch function", s.Obj().Name(), name, name)
				}
			}
			return true
		})
	}
}

// isSimtimeScheduler reports whether expr's type is (a pointer to) a named
// type Scheduler declared in a package named simtime. Matching by package
// name rather than full path keeps the check working under the fixture
// tree, where the module prefix differs.
func isSimtimeScheduler(pass *Pass, expr ast.Expr) bool {
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Scheduler" && obj.Pkg() != nil && obj.Pkg().Name() == "simtime"
}
