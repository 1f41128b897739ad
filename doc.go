// Package onll is a from-scratch reproduction of "The Inherent Cost of
// Remembering Consistently" (Cohen, Guerraoui, Zablotchi — SPAA 2018):
// fence-optimal durable data structures via the ONLL universal
// construction, together with the paper's lower bound, on a simulated
// persistent-memory substrate.
//
// The paper proves that lock-free durably linearizable objects need
// exactly one persistent fence per update operation: an upper bound via
// the ONLL ("Order Now, Linearize Later") universal construction —
// one persistent fence per update, none per read — and a matching lower
// bound (in the worst case every process pays one persistent fence per
// update it invokes).
//
// This package is the public surface:
//
//   - Open / Recover build durably linearizable instances of any
//     deterministic sequential object (spec.Spec) over a simulated NVM
//     pool, with detectable execution on recovery.
//   - Typed wrappers (Counter, Map, Queue, Stack, Set, Register, Deque,
//     PQueue, AppendLog, Bank) give ergonomic access to the shipped
//     object specifications.
//   - Options enable the Section 8 extensions: wait-free ordering,
//     per-process local views for fast reads, and compaction (bounded
//     memory via snapshot records).
//
// The simulated substrate (internal/pmem) counts loads, stores, flushes
// and — the quantity the paper bounds — persistent fences, per process.
// See DESIGN.md for the substitution argument and EXPERIMENTS.md for the
// reproduced claims.
//
// The structural invariants behind those claims — no fence reachable
// from the read surface, no plain access to atomic fields,
// allocation/clock/lock-free hot paths, cache-line-exact padded
// layouts — are statically enforced by
// the analyzer suite in internal/analysis:
//
//	go run ./cmd/onllvet ./...
//
// runs the suite (plus stock go vet) over the module and exits
// non-zero on any violation; DESIGN.md §3.11 catalogs the rules and
// internal/analysis/doc.go specifies the //onll: annotations.
package onll
