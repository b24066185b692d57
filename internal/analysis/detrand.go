package analysis

import (
	"go/ast"
	"strings"
)

// DetRand forbids ambient nondeterminism sources in the deterministic
// packages: the wall clock, the environment, the globally-seeded
// math/rand top-level functions, and runtime-seeded hashing. The only
// sanctioned randomness is seed-derived — parallel.SeedFor /
// parallel.NewRNG (or an explicit *rand.Rand built from them) — and the
// only sanctioned clock is a time threaded through config.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid time.Now, os.Getenv, global math/rand and runtime-seeded hashing " +
		"in deterministic packages; randomness must derive from parallel.SeedFor/NewRNG",
	Run: runDetRand,
}

// forbiddenCalls maps package path → function name → what to suggest
// instead. An empty name key means every package-level function.
var forbiddenCalls = map[string]map[string]string{
	"time": {
		"Now":   "thread an explicit time through config",
		"Since": "thread an explicit time through config",
		"Until": "thread an explicit time through config",
	},
	"os": {
		"Getenv":    "thread configuration explicitly",
		"LookupEnv": "thread configuration explicitly",
		"Environ":   "thread configuration explicitly",
	},
	"hash/maphash": {
		"MakeSeed": "derive the seed from parallel.SeedFor so hashes repeat across runs",
	},
}

// globalRandPackages are packages whose package-level functions draw
// from a shared, externally seeded source. Constructors (New*) are
// fine: they build explicit sources the caller seeds.
var globalRandPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func runDetRand(pass *Pass) error {
	if !InScope(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !isPackageLevel(fn) {
				return true
			}
			path, name := pkgPath(fn), fn.Name()
			if hint, ok := forbiddenCalls[path][name]; ok {
				pass.Reportf(call.Pos(), "%s.%s is nondeterministic across runs: %s",
					lastElem(path), name, hint)
				return true
			}
			if globalRandPackages[path] && !strings.HasPrefix(name, "New") {
				pass.Reportf(call.Pos(), "global %s.%s draws from a shared non-seeded source: "+
					"use parallel.NewRNG(parallel.SeedFor(...)) so every draw is seed-derived",
					lastElem(path), name)
			}
			return true
		})
	}
	return nil
}

func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
