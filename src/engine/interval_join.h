// Sweep-based interval-overlap join (the temporal hot path of the
// paper's Sec. 10 evaluation).  RewriteJoin emits `theta' AND overlaps`
// predicates; once MakeJoin has recognized the overlap conjunct
// structurally (ra/join_analysis.h), this operator answers it with a
// hash-partition on the equi-keys followed by an endpoint plane sweep
// per partition -- O(n log n + output) instead of the O(n * m) nested
// loop a pure temporal join (no equi-key) otherwise degenerates to.
#ifndef PERIODK_ENGINE_INTERVAL_JOIN_H_
#define PERIODK_ENGINE_INTERVAL_JOIN_H_

#include "engine/executor.h"
#include "engine/relation.h"
#include "ra/plan.h"

namespace periodk {

/// Executes a kJoin plan whose analysis carries an overlap conjunct
/// (plan.join.overlap must be set).  Exactly equivalent to evaluating
/// plan.predicate over the cross product.  One lane serves both
/// storage layouts: it reads only the typed endpoint and equi-key
/// columns (a row-stored input has just those encoded), buckets rows by
/// key in first-appearance order, and sweeps each bucket's well-formed
/// intervals as row-index pairs.  Rows whose endpoints are not
/// well-formed (non-integer or NULL values, begin >= end) go to the
/// bucket's nested-loop slow lane, whose pairs come first, so SQL
/// three-valued comparison semantics are preserved bit-for-bit.
/// Output is columnar (gathered column by column) when both inputs are
/// columnar, no residual remains, every interval is well-formed and the
/// keys pack into words; otherwise it is row-stored, each pair checked
/// against the residual or, in the slow lane, the full predicate.  Row
/// output reads a columnar input's cells from its typed columns, so it
/// never builds a stored table's row view.
/// With a pool in `ctx` the equi-key buckets fan out to workers (a pure
/// temporal join has one bucket and stays sequential); the output is
/// row-identical at any thread count and in either input layout.
Relation IntervalOverlapJoin(const Plan& plan, const Relation& left,
                             const Relation& right, const OpContext& ctx = {});

/// Reference implementation: O(n * m) nested loop, left-major, testing
/// the analyzed conjuncts (or, for a genuinely opaque predicate, the
/// whole predicate) on every pair.  Kept as the correctness baseline
/// for the property tests and benchmarks, as the executor's fallback
/// for opaque predicates, and for joins the cost model's tiny-join hint
/// marks nested-loop.
Relation NestedLoopJoin(const Plan& plan, const Relation& left,
                        const Relation& right);

}  // namespace periodk

#endif  // PERIODK_ENGINE_INTERVAL_JOIN_H_
