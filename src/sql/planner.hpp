// Cost-based planning for SELECTs over MiniRDB (DESIGN.md §13).
//
// The xquery translator emits join chains in *path order* — fine for
// `/a/b/c` walked root-down, terrible when the selective predicate sits
// at the tail of the chain.  The planner is the one place that decides
// how a SELECT runs: the order its FROM/JOIN inputs are enumerated in
// and, for every stage of that order, the access path (index_eq, range,
// scan for the driving input; pk/index probe, hash probe, ordered-index
// range, nested loop for the rest), the conjuncts the access answers and
// the residual filters the stage applies.  One function makes that
// per-stage decision; the Selinger-style left-deep search (exhaustive DP
// up to 7 inputs, greedy beyond) costs every candidate step with it
// using per-table statistics (rdb/stats.hpp), and the executor runs the
// stages of the winning order exactly as PlanInfo prints them.
//
// Planning never changes the result multiset, only the enumeration
// order — verified continuously by the SQL-vs-DOM differential fuzzer
// and the metamorphic SQL tests running with the planner on and off.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdb/database.hpp"
#include "sql/ast.hpp"

namespace xr::sql {

struct PlannerOptions {
    /// Master switch: off runs the inputs in the order written (the
    /// as-translated baseline the fuzzers and benches compare against);
    /// each stage still gets its access path from the planner.
    bool enable = true;
};

/// Access path of one stage of the chosen order.
enum class AccessPath {
    kScan,        ///< full scan of the driving table
    kIndexEq,     ///< driving table: literal equality via index
    kRange,       ///< binary-searched range on an ordered index
    kProbe,       ///< equi-join probe via existing index / pk lookup
    kHashProbe,   ///< equi-join probe via ad-hoc hash build
    kNestedLoop,  ///< no usable join conjunct: scan per outer row
};

[[nodiscard]] std::string_view to_string(AccessPath p);

/// One stage of the chosen pipeline.  est_rows is the estimated
/// *cumulative* cardinality after the stage; est_cost the stage's
/// incremental cost in row-visit units.  The remaining fields are what
/// the executor runs; their expressions point into the planned statement.
struct StagePlan {
    std::string alias;
    std::string table;
    AccessPath path = AccessPath::kScan;
    std::string detail;  ///< column driving the access path, if any
    double est_rows = 0;
    double est_cost = 0;

    int input = 0;    ///< FROM/JOIN position as written (Expr::bound_table)
    int column = -1;  ///< the column `detail` names
    /// kIndexEq: the literal; kProbe / kHashProbe: the expression over
    /// earlier stages whose value is looked up in `column`.
    const Expr* key = nullptr;
    /// kRange: at most one lower and one upper bound on `column`.
    const Expr* lo = nullptr;
    bool lo_strict = false;
    const Expr* hi = nullptr;
    bool hi_strict = false;
    /// Conjuncts first evaluable at this stage that the access path does
    /// not answer, filtered on every row it produces.
    std::vector<const Expr*> residual;
};

struct PlanInfo {
    bool planned = false;    ///< the pass ran (resolvable tables)
    bool reordered = false;  ///< chosen order differs from as-written
    double total_cost = 0;
    double est_rows = 0;     ///< final cardinality estimate
    std::uint64_t stats_epoch = 0;
    std::vector<StagePlan> stages;  ///< in chosen execution order

    /// Compact plan fingerprint for golden tests: one token per stage,
    /// `path(alias)` or `path(alias.column)`, space-separated.
    [[nodiscard]] std::string shape() const;
    /// Multi-line EXPLAIN rendering with costs.
    [[nodiscard]] std::string to_string() const;
};

/// A FROM/JOIN input of a SELECT.
struct BoundTable {
    std::string alias;
    const rdb::Table* table = nullptr;
};

/// The binder of planning and execution: resolves the FROM/JOIN inputs
/// of a SELECT in written order (Expr::bound_table indexes them) and
/// column references against them, throwing QueryError for unknown
/// tables, unknown or ambiguous columns.
class Binder {
public:
    Binder(const rdb::ReadView& db, const SelectStmt& stmt);

    [[nodiscard]] const std::vector<BoundTable>& tables() const {
        return tables_;
    }
    void bind(Expr& e) const;

private:
    std::vector<BoundTable> tables_;

    void resolve_column(Expr& e) const;
};

/// Cost and order `stmt`: the plan the executor runs.  Reads table
/// statistics through a ReadView — either a pinned DatabaseVersion (the
/// query service plans inside its ReadSnapshot, latch-free) or the live
/// database (writer-thread / quiesced callers, via ReadView's implicit
/// conversion).  Binds the ON and WHERE column references in place and
/// never reorders the statement itself.  A statement that does not bind
/// (unknown tables, ambiguous columns) yields planned=false; executing
/// it reports the error.  `SELECT *` with joins is costed in the order
/// written, never reordered (column order depends on table order).
PlanInfo plan_select(const rdb::ReadView& db, SelectStmt& stmt,
                     const PlannerOptions& options = {});

/// plan_select() for a statement whose ON and WHERE `binder` has already
/// bound — the executor's entry.  Throws QueryError past 63 inputs.
PlanInfo plan_bound(const rdb::ReadView& db, const SelectStmt& stmt,
                    const Binder& binder, const PlannerOptions& options);

}  // namespace xr::sql
