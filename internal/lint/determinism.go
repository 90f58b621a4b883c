package lint

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the bit-identical crash-recovery invariant from
// the durability subsystem: the state-bearing packages — everything a
// checkpoint serializes or a WAL replay re-executes — must be pure
// functions of the operation sequence. Three constructs break that:
//
//   - math/rand (its sources hide their state, so a restored tracker
//     cannot resume the draw sequence; internal/rng exists instead);
//   - the wall clock (time.Now and friends feed values replay cannot
//     reproduce);
//   - map iteration (order is randomized per process, so any float
//     accumulation or state mutation driven by it diverges bit-for-bit).
//
// Telemetry-only clock reads are suppressed in place with a reasoned
// //lint:ignore determinism directive; anything feeding state is a bug.
type Determinism struct {
	// Packages are the import paths whose code must be deterministic.
	Packages []string
	// Exempt lists packages within Packages that may keep the listed
	// constructs (internal/rng is the sanctioned randomness source).
	Exempt []string
}

// bannedImports are the nondeterministic randomness sources.
var bannedImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// wallClockFuncs are the time package functions that read the wall clock
// (or start timers derived from it).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// Name implements Analyzer.
func (*Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (*Determinism) Doc() string {
	return "state-bearing packages must not use math/rand, the wall clock, or map iteration order"
}

// Run implements Analyzer.
func (a *Determinism) Run(prog *Program) []Diagnostic {
	var diags []Diagnostic
	covered := make(map[string]bool, len(a.Packages))
	for _, p := range a.Packages {
		covered[p] = true
	}
	exempt := make(map[string]bool, len(a.Exempt))
	for _, p := range a.Exempt {
		exempt[p] = true
	}
	for _, pkg := range prog.Packages {
		if !covered[pkg.Path] || exempt[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				path := importPath(imp)
				if bannedImports[path] {
					diags = append(diags, Diagnostic{
						Analyzer: a.Name(), Pos: prog.Position(imp.Pos()),
						Message: "import of " + path + " in a state-bearing package; use internal/rng (serializable, toolchain-independent) instead",
					})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					if fn := calleeFunc(pkg.Info, node); fn != nil &&
						fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
						diags = append(diags, Diagnostic{
							Analyzer: a.Name(), Pos: prog.Position(node.Pos()),
							Message: "wall-clock read time." + fn.Name() + " in a state-bearing package; replay cannot reproduce it",
						})
					}
				case *ast.RangeStmt:
					if t := pkg.Info.TypeOf(node.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							diags = append(diags, Diagnostic{
								Analyzer: a.Name(), Pos: prog.Position(node.Pos()),
								Message: "map iteration in a state-bearing package: order is nondeterministic; iterate an order-preserving slice (e.g. tensor's Span) or sort the keys",
							})
						}
					}
				}
				return true
			})
		}
	}
	return diags
}

// importPath unquotes an import spec's path.
func importPath(imp *ast.ImportSpec) string {
	s := imp.Path.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}

// calleeFunc resolves a call expression's static callee to a *types.Func
// (nil for calls of function-typed values, conversions, and builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
