// Package all composes the full onllvet analyzer suite — one import
// for the multichecker and the whole-tree regression test.
package all

import (
	"repro/internal/analysis"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/fencepath"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/linepad"
)

// Analyzers is the suite in a deterministic order.
var Analyzers = []*analysis.Analyzer{
	fencepath.Analyzer,
	atomicmix.Analyzer,
	hotpath.Analyzer,
	linepad.Analyzer,
}
