package lint

import (
	"strconv"
	"strings"
)

// layerRule forbids packages under each From prefix from importing
// packages under any Forbidden prefix. Prefixes are module-relative
// directories.
type layerRule struct {
	From      []string
	Forbidden []string
	Why       string
}

// layerRules is the repository's import DAG, mirrored in docs/LINT.md
// and DESIGN.md. The numeric substrate must stay below the solver and
// service layers, and the server subsystem stays private to its binary.
var layerRules = []layerRule{
	{
		From:      []string{"internal/stats", "internal/loss", "internal/data"},
		Forbidden: []string{"internal/core", "internal/server", "internal/experiments"},
		Why:       "the numeric substrate must not depend on the solver, server, or experiment layers",
	},
	{
		From:      []string{"internal/obs"},
		Forbidden: []string{"internal/core", "internal/server", "internal/stream", "internal/experiments", "internal/mapreduce", "internal/baseline", "internal/data", "internal/wal"},
		Why:       "observability is a substrate every layer may instrument with; a cycle back into the instrumented layers would make that impossible",
	},
	{
		From:      []string{"internal/wal"},
		Forbidden: []string{"internal/core", "internal/server", "internal/stream", "internal/experiments", "internal/mapreduce", "internal/baseline", "internal/data", "internal/stats", "internal/loss"},
		Why:       "the durability substrate stores framed bytes; the server converts at its boundary, so wal stays below every model and solver layer (docs/DURABILITY.md)",
	},
}

// serverDir is the subsystem only its binary may import.
const serverDir = "internal/server"

// serverImporters lists the module-relative directories allowed to
// import internal/server: the subsystem itself and the crhd binary
// (tests included — test files share their directory's privilege).
var serverImporters = []string{serverDir, "cmd/crhd"}

// walDir is the durability substrate; walImporters the directories
// allowed to import it: the package itself, the server subsystem that
// owns the durable ingest path, and cmd/crhbench, whose -ingest sweep
// benchmarks WAL append throughput directly (the one sanctioned
// exemption — see docs/DURABILITY.md).
const walDir = "internal/wal"

var walImporters = []string{walDir, serverDir, "cmd/crhbench"} // see walDir

// crhloadDir is the load-generator binary; crhloadAllowed the only
// internal subtree it may import. crhload exists to measure crhd from the
// outside, so it must see the server exactly as real clients do — over
// HTTP, with its own mirrored JSON shapes — and may share only the
// observability substrate (histograms, windows) for its measurements.
const crhloadDir = "cmd/crhload"

var crhloadAllowed = []string{"internal/obs"} // see crhloadDir

// Layering enforces the repository's import DAG: internal/{stats,loss,
// data} must not import internal/{core,server,experiments}, internal/obs
// must not import any layer it instruments, and nothing
// outside cmd/crhd (and its tests) imports internal/server. The
// layering is what lets the numeric substrate be tested, fuzzed, and
// reused in isolation, and keeps every consumer of the server behind
// its HTTP surface.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "enforce the import DAG: substrate below solver/server; internal/server private to cmd/crhd",
	Run:  runLayering,
}

func runLayering(pass *Pass) {
	rel := pass.Pkg.RelPath
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			target, ok := moduleRel(pass.Pkg, path)
			if !ok {
				continue
			}
			for _, rule := range layerRules {
				if underAny(rel, rule.From) && underAny(target, rule.Forbidden) {
					pass.Reportf(imp.Pos(), "%s must not import %s: %s", rel, target, rule.Why)
				}
			}
			if underAny(target, []string{serverDir}) && !underAny(rel, serverImporters) {
				from := rel
				if from == "" {
					from = "the root package"
				}
				pass.Reportf(imp.Pos(), "%s must not import %s: the server subsystem is private to cmd/crhd; use the HTTP API", from, serverDir)
			}
			if underAny(target, []string{walDir}) && !underAny(rel, walImporters) {
				from := rel
				if from == "" {
					from = "the root package"
				}
				pass.Reportf(imp.Pos(), "%s must not import %s: the durability substrate is private to internal/server (cmd/crhbench's append benchmark excepted)", from, walDir)
			}
			if underAny(rel, []string{crhloadDir}) && strings.HasPrefix(target, "internal/") && !underAny(target, crhloadAllowed) {
				pass.Reportf(imp.Pos(), "%s must not import %s: the load generator measures crhd over its public HTTP surface and may share only internal/obs", rel, target)
			}
		}
	}
}

// moduleRel converts an import path to a module-relative directory,
// reporting false for imports outside the module.
func moduleRel(pkg *Package, path string) (string, bool) {
	if path == pkg.Module.Path {
		return "", true
	}
	rest, ok := strings.CutPrefix(path, pkg.Module.Path+"/")
	return rest, ok
}

// underAny reports whether dir equals, or lies under, any prefix.
func underAny(dir string, prefixes []string) bool {
	for _, p := range prefixes {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}
