// Package detguard holds the repository's source-level guards: annotated map
// iteration, no goroutines and no synchronisation inside the simulator
// (determinism), no configuration field that nothing turns, no exported
// function or variable that nothing references, no coverage-census line
// naming a function that is gone, and no more design prose than its budget
// (prose_test.go).
//
// Go randomizes map iteration order. On the simulation's event path an
// unordered iteration that schedules events, mutates model state, or formats
// replay-compared output silently breaks the bit-for-bit replay guarantee —
// the hardest class of bug to bisect, because every run "passes" alone and
// only pairs diverge.
//
// The guard (in detguard_test.go) type-checks every internal package and
// fails if any `for ... range` over a map lacks a `// det:` annotation on
// the same or the preceding line. The annotation is a claim the author
// makes about why the unordered iteration is safe:
//
//	// det: sorted       — keys are collected and sorted before use
//	// det: commutative  — the fold is order-independent (sums, max, set-insert)
//	// det: unordered    — output is explicitly unordered (debug, diagnostics)
//	// det: setup        — runs before/after the replayed window, not during it
//
// New map ranges without an annotation fail the guard, forcing the claim to
// be stated — and reviewed — where the iteration happens.
//
// The second guard, TestNoGoroutines, fails on any go statement in non-test
// code under internal/ or cmd/, and TestNoSynchronisation on any import of
// sync or sync/atomic there: a cluster's state is unsynchronised because
// only the caller's goroutine ever touches it (DESIGN.md §11). Beside them,
// TestTimersGoThroughTheNode fails on an engine post outside sim, simnet,
// fault, workload and bench, or a sim.Resource Use with a done callback
// outside sim, simnet and blockdev: software on a node posts through the node,
// whose kill drops what the dead incarnation posted (DESIGN.md §12); and
// TestOneLoopRunsTheEngine on a non-test file of internal/bench that runs the
// engine outside harness.measure and await (DESIGN.md §4b), and
// TestEngineRunsAreStatements on any use of Engine.Run, RunFor or RunUntil,
// tests, commands and examples included, that is not a bare call statement:
// their error is always nil (DESIGN.md §11).
//
// The third, TestEveryKnobIsTurned (knobs_test.go), is not about determinism
// but shares the machinery: it type-checks every package of the module, tests
// included, and fails on an exported field of a *Config or Options struct
// under internal/ that no file but its own ever sets — ROADMAP aim 3's "a
// knob survives only if an experiment or a test needs it", held mechanically.
//
// The fourth, TestNoUncalledExports (exports_test.go), is the same census for
// code: an exported function, method or package-level variable under
// internal/ that no Go file of the repository references fails it —
// String/Error, the three DESIGN.md §11 shims, and a method reached through
// an interface of this module excepted, where "reached" means the interface
// method is called somewhere other than inside a method of the same name (an
// implementation delegating to the next one vouches for nothing).
//
// The fifth, TestCensusNamesLiveFuncs (census_test.go), keeps the coverage
// censuses in results/ current between runs of the scripts that write them:
// every line of unreached.txt, partial.txt and untested.txt must name a
// function or method its file still declares.
package detguard
