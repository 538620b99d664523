#include "sql/executor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/fault.hpp"
#include "common/table_printer.hpp"
#include "sql/parser.hpp"

namespace xr::sql {

namespace {

using rdb::Row;
using rdb::RowId;
using rdb::Table;
using rdb::Value;

/// WHERE / HAVING / ON keep a row only when its condition is TRUE:
/// UNKNOWN (NULL) filters like FALSE.
bool truthy(const Value& v) {
    if (v.is_null()) return false;
    switch (v.type()) {
        case rdb::ValueType::kInteger: return v.as_integer() != 0;
        case rdb::ValueType::kReal: return v.as_real() != 0.0;
        case rdb::ValueType::kText: return !v.as_text().empty();
        default: return false;
    }
}

/// SQL LIKE with % and _ wildcards.
bool like_match(const std::string& text, const std::string& pattern) {
    std::function<bool(std::size_t, std::size_t)> rec =
        [&](std::size_t ti, std::size_t pi) -> bool {
        while (pi < pattern.size()) {
            char pc = pattern[pi];
            if (pc == '%') {
                // Collapse consecutive %.
                while (pi < pattern.size() && pattern[pi] == '%') ++pi;
                if (pi == pattern.size()) return true;
                for (std::size_t t = ti; t <= text.size(); ++t)
                    if (rec(t, pi)) return true;
                return false;
            }
            if (ti >= text.size()) return false;
            if (pc != '_' && pc != text[ti]) return false;
            ++ti;
            ++pi;
        }
        return ti == text.size();
    };
    return rec(0, 0);
}

/// Evaluates a bound expression against one joined row context.
class Evaluator {
public:
    Evaluator(const std::vector<BoundTable>& tables) : tables_(tables) {}

    Value eval(const Expr& e, const std::vector<RowId>& ctx) const {
        switch (e.kind) {
            case Expr::Kind::kLiteral:
                return e.literal;
            case Expr::Kind::kColumn:
                return tables_[e.bound_table].table->row(
                    ctx[e.bound_table])[e.bound_column];
            case Expr::Kind::kNot: {
                // Three-valued: NOT UNKNOWN is UNKNOWN.
                Value v = eval(*e.right, ctx);
                if (v.is_null()) return v;
                return Value(static_cast<std::int64_t>(!truthy(v)));
            }
            case Expr::Kind::kIsNull: {
                bool is_null = eval(*e.right, ctx).is_null();
                return Value(static_cast<std::int64_t>(e.negated ? !is_null
                                                                 : is_null));
            }
            case Expr::Kind::kBinary:
                return eval_binary(e, ctx);
            case Expr::Kind::kAggregate:
                throw QueryError("aggregate used outside aggregation context");
            case Expr::Kind::kStar:
                throw QueryError("'*' used outside COUNT(*)");
        }
        return Value::null();
    }

private:
    const std::vector<BoundTable>& tables_;

    Value eval_binary(const Expr& e, const std::vector<RowId>& ctx) const {
        // Three-valued, short-circuit logic with NULL as UNKNOWN: FALSE
        // decides AND and TRUE decides OR whatever the other side is;
        // otherwise an UNKNOWN side makes the result UNKNOWN.
        if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
            const bool decisive = e.op == BinaryOp::kOr;
            auto decides = [&](const Value& v) {
                return !v.is_null() && truthy(v) == decisive;
            };
            Value a = eval(*e.left, ctx);
            if (decides(a)) return Value(static_cast<std::int64_t>(decisive));
            Value b = eval(*e.right, ctx);
            if (decides(b)) return Value(static_cast<std::int64_t>(decisive));
            if (a.is_null() || b.is_null()) return Value::null();
            return Value(static_cast<std::int64_t>(!decisive));
        }

        Value a = eval(*e.left, ctx);
        Value b = eval(*e.right, ctx);
        switch (e.op) {
            case BinaryOp::kEq:
            case BinaryOp::kNe:
            case BinaryOp::kLt:
            case BinaryOp::kLe:
            case BinaryOp::kGt:
            case BinaryOp::kGe: {
                auto ord = a.compare(b);
                if (!ord) return Value::null();
                bool r = false;
                switch (e.op) {
                    case BinaryOp::kEq: r = *ord == std::strong_ordering::equal; break;
                    case BinaryOp::kNe: r = *ord != std::strong_ordering::equal; break;
                    case BinaryOp::kLt: r = *ord == std::strong_ordering::less; break;
                    case BinaryOp::kLe: r = *ord != std::strong_ordering::greater; break;
                    case BinaryOp::kGt: r = *ord == std::strong_ordering::greater; break;
                    default: r = *ord != std::strong_ordering::less; break;
                }
                return Value(static_cast<std::int64_t>(r));
            }
            case BinaryOp::kLike: {
                if (a.is_null() || b.is_null()) return Value::null();
                return Value(static_cast<std::int64_t>(
                    like_match(a.as_text(), b.as_text())));
            }
            case BinaryOp::kAdd:
            case BinaryOp::kSub:
            case BinaryOp::kMul:
            case BinaryOp::kDiv:
            case BinaryOp::kMod: {
                if (a.is_null() || b.is_null()) return Value::null();
                bool ints = a.type() == rdb::ValueType::kInteger &&
                            b.type() == rdb::ValueType::kInteger;
                if (ints) {
                    std::int64_t x = a.as_integer(), y = b.as_integer();
                    switch (e.op) {
                        case BinaryOp::kAdd: return Value(x + y);
                        case BinaryOp::kSub: return Value(x - y);
                        case BinaryOp::kMul: return Value(x * y);
                        case BinaryOp::kDiv:
                            if (y == 0) return Value::null();
                            return Value(x / y);
                        default:
                            if (y == 0) return Value::null();
                            return Value(x % y);
                    }
                }
                double x = a.as_real(), y = b.as_real();
                switch (e.op) {
                    case BinaryOp::kAdd: return Value(x + y);
                    case BinaryOp::kSub: return Value(x - y);
                    case BinaryOp::kMul: return Value(x * y);
                    case BinaryOp::kDiv:
                        if (y == 0) return Value::null();
                        return Value(x / y);
                    default:
                        return Value::null();
                }
            }
            default:
                return Value::null();
        }
    }
};

bool contains_aggregate(const Expr& e) {
    switch (e.kind) {
        case Expr::Kind::kAggregate: return true;
        case Expr::Kind::kBinary:
            return contains_aggregate(*e.left) || contains_aggregate(*e.right);
        case Expr::Kind::kNot:
        case Expr::Kind::kIsNull:
            return contains_aggregate(*e.right);
        default:
            return false;
    }
}

/// A planned stage and what its access path needs at run time.
struct Stage {
    const StagePlan* plan = nullptr;
    const Table* table = nullptr;
    bool probe_pk = false;  ///< kProbe answered by the pk lookup structure
    /// kHashProbe: the stage's table hashed on the probed column.
    std::unordered_multimap<Value, RowId, rdb::ValueHash> hash;
};

/// The row of `t` whose primary key equals `key` under SQL `=`: numbers
/// compare numerically, so only an integral key can match.
std::optional<RowId> pk_match(const Table& t, const Value& key) {
    if (key.type() == rdb::ValueType::kInteger)
        return t.find_pk_rowid(key.as_integer());
    if (key.type() != rdb::ValueType::kReal) return std::nullopt;
    double d = key.as_real();
    if (!(std::abs(d) < 9.0e18) || d != std::floor(d)) return std::nullopt;
    return t.find_pk_rowid(static_cast<std::int64_t>(d));
}

/// Row hashing/equality over Values for DISTINCT (NULLs compare equal,
/// numerics compare numerically — the index_order convention).
struct RowHasher {
    std::size_t operator()(const Row& row) const {
        std::size_t h = 0x9e3779b97f4a7c15ULL;
        for (const auto& v : row) h = (h * 1099511628211ULL) ^ v.hash();
        return h;
    }
};
struct RowEqual {
    bool operator()(const Row& a, const Row& b) const {
        if (a.size() != b.size()) return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i].index_order(b[i]) != std::strong_ordering::equal)
                return false;
        return true;
    }
};

/// Approximate heap footprint of one output row, for byte budgets.
std::size_t approx_row_bytes(const Row& row) {
    std::size_t bytes = sizeof(Row) + row.size() * sizeof(Value);
    for (const auto& v : row)
        if (v.type() == rdb::ValueType::kText) bytes += v.as_text().size();
    return bytes;
}

class SelectExecutor {
public:
    SelectExecutor(rdb::ReadView db, SelectStmt& stmt, ExecStats* stats,
                   const CancelToken& cancel, const PlannerOptions& options)
        : db_(db),
          stmt_(stmt),
          stats_(stats),
          cancel_(cancel),
          options_(options),
          binder_(db, stmt),
          tables_(binder_.tables()) {}

    ResultSet run() {
        Evaluator eval(tables_);

        // Bind every expression.
        for (auto& item : stmt_.items)
            if (!item.star) binder_.bind(*item.expr);
        for (auto& join : stmt_.joins)
            if (join.on) binder_.bind(*join.on);
        if (stmt_.where) binder_.bind(*stmt_.where);
        for (auto& g : stmt_.group_by) binder_.bind(*g);
        if (stmt_.having) binder_.bind(*stmt_.having);
        // ORDER BY may reference a select alias or a 1-based position; those
        // resolve against the output row, not a table column.
        order_output_idx_.assign(stmt_.order_by.size(), -1);
        for (std::size_t k = 0; k < stmt_.order_by.size(); ++k) {
            auto& o = stmt_.order_by[k];
            if (o.expr->kind == Expr::Kind::kLiteral &&
                o.expr->literal.type() == rdb::ValueType::kInteger) {
                order_output_idx_[k] =
                    static_cast<int>(o.expr->literal.as_integer()) - 1;
                continue;
            }
            if (o.expr->kind == Expr::Kind::kColumn && o.expr->table.empty()) {
                int out_idx = 0;
                bool matched = false;
                for (const auto& item : stmt_.items) {
                    if (!item.star && item.alias == o.expr->column) {
                        order_output_idx_[k] = out_idx;
                        matched = true;
                        break;
                    }
                    ++out_idx;
                }
                if (matched) continue;
            }
            binder_.bind(*o.expr);
        }

        plan_ = plan_bound(db_, stmt_, binder_, options_);
        prepare_stages();

        // Aggregation?
        bool aggregate = !stmt_.group_by.empty();
        for (const auto& item : stmt_.items)
            if (!item.star && contains_aggregate(*item.expr)) aggregate = true;
        if (stmt_.having && contains_aggregate(*stmt_.having)) aggregate = true;

        ResultSet result;
        expand_columns(result);

        // A bare COUNT(*) over one unfiltered table needs no row
        // enumeration at all — the table knows its cardinality.  This is
        // the cold path of a structural count(//x), which translates to
        // exactly 'SELECT COUNT(*) FROM x'.
        if (aggregate && bare_count_star()) {
            result.rows.push_back(Row{rdb::Value(
                static_cast<std::int64_t>(tables_[0].table->row_count()))});
            if (stats_ != nullptr) stats_->add(local_);
            return result;
        }

        if (aggregate || !stmt_.order_by.empty()) {
            // Aggregation and sorting need every row context at once; each
            // buffered context counts against the row budget — this
            // intermediate buffer is exactly the memory a budget guards.
            std::vector<std::vector<RowId>> contexts;
            enumerate([&](const std::vector<RowId>& ctx) {
                cancel_.charge_rows();
                contexts.push_back(ctx);
            });
            if (aggregate) run_aggregate(eval, contexts, result);
            else run_plain(eval, contexts, result);
        } else {
            // Plain unsorted selects project straight out of the join
            // enumeration — no materialized context list, no second pass.
            // This keeps the cold path of a bare structural scan (a
            // join-free '//x' interval plan) at one row copy per result.
            enumerate([&](const std::vector<RowId>& ctx) {
                project(eval, ctx, result);
            });
        }

        if (stmt_.distinct) {
            // Hash directly on the Values (Value::hash is consistent with
            // index_order equality) — no per-cell string rendering, which
            // dominated DISTINCT-heavy translated queries.
            std::unordered_set<Row, RowHasher, RowEqual> seen;
            seen.reserve(result.rows.size());
            std::vector<Row> unique;
            for (auto& row : result.rows) {
                poll_cancel();
                if (seen.insert(row).second) unique.push_back(std::move(row));
            }
            result.rows = std::move(unique);
        }

        if (stmt_.limit && result.rows.size() > *stmt_.limit)
            result.rows.resize(*stmt_.limit);

        // Publish counters only now that the execution finished: callers
        // sharing one ExecStats across threads see whole-query totals.
        if (stats_ != nullptr) stats_->add(local_);
        return result;
    }

private:
    rdb::ReadView db_;
    SelectStmt& stmt_;
    ExecStats* stats_;
    const CancelToken& cancel_;
    PlannerOptions options_;
    Binder binder_;
    const std::vector<BoundTable>& tables_;  ///< inputs in written order
    std::size_t since_poll_ = 0;  ///< rows since the last cancellation poll
    ExecStats local_;  ///< this execution's counters; folded in at the end
    PlanInfo plan_;
    std::vector<Stage> stages_;  ///< plan_.stages, prepared to run
    std::vector<int> order_output_idx_;  ///< -1 = evaluate against the row ctx

    void count(std::atomic<std::size_t> ExecStats::*member, std::size_t n = 1) {
        (local_.*member).fetch_add(n, std::memory_order_relaxed);
    }

    /// Cancellation checkpoint (DESIGN.md §11): every kCancelPollInterval
    /// rows — whether scanned during join enumeration / range scans or
    /// visited by a final pass — the executor arms the `exec.cancel_poll`
    /// fault point and polls the token.  A fired deadline / cancel unwinds
    /// as the matching CancelledError with no state to clean up (SELECTs
    /// have no side effects; the local stats fold simply never happens).
    void poll_cancel() {
        if (++since_poll_ < kCancelPollInterval) return;
        since_poll_ = 0;
        count(&ExecStats::cancel_polls);
        fault::maybe_fail("exec.cancel_poll");
        cancel_.check();
    }

    /// Budget accounting for one materialized output row.
    void charge_output(const Row& row) {
        if (!cancel_.active()) return;
        cancel_.charge_rows();
        cancel_.charge_bytes(approx_row_bytes(row));
    }

    /// 'SELECT COUNT(*) FROM t' with no filter, grouping or sort — the
    /// answer is the table's row count.
    [[nodiscard]] bool bare_count_star() const {
        if (!stmt_.joins.empty() || stmt_.where != nullptr ||
            !stmt_.group_by.empty() || stmt_.having != nullptr ||
            stmt_.distinct || !stmt_.order_by.empty() ||
            stmt_.items.size() != 1)
            return false;
        const auto& item = stmt_.items[0];
        if (item.star) return false;
        const Expr& e = *item.expr;
        return e.kind == Expr::Kind::kAggregate &&
               e.fn == AggregateFn::kCount && !e.distinct &&
               e.right != nullptr && e.right->kind == Expr::Kind::kStar;
    }

    /// Resolve what the planned access paths need: the pk-or-index
    /// choice of each probe, the build side of each hash probe.
    void prepare_stages() {
        stages_.resize(plan_.stages.size());
        for (std::size_t s = 0; s < stages_.size(); ++s) {
            const StagePlan& p = plan_.stages[s];
            Stage& st = stages_[s];
            st.plan = &p;
            st.table = tables_[static_cast<std::size_t>(p.input)].table;
            if (p.path == AccessPath::kProbe) {
                st.probe_pk = !st.table->has_index(p.column);
            } else if (p.path == AccessPath::kHashProbe) {
                for (RowId id = 0; id < st.table->row_count(); ++id)
                    st.hash.emplace(st.table->row(id)[p.column], id);
                count(&ExecStats::hash_joins);
            }
        }
    }

    void enumerate(const std::function<void(const std::vector<RowId>&)>& emit) {
        Evaluator eval(tables_);
        std::vector<RowId> ctx(tables_.size());

        std::function<void(std::size_t)> descend = [&](std::size_t s) {
            const Stage& stage = stages_[s];
            const StagePlan& p = *stage.plan;
            const Table* t = stage.table;

            auto accept = [&](RowId id) {
                ctx[static_cast<std::size_t>(p.input)] = id;
                count(&ExecStats::rows_scanned);
                poll_cancel();
                for (const Expr* r : p.residual)
                    if (!truthy(eval.eval(*r, ctx))) return;
                if (s + 1 == stages_.size()) emit(ctx);
                else descend(s + 1);
            };

            switch (p.path) {
                case AccessPath::kIndexEq:
                case AccessPath::kProbe:
                case AccessPath::kHashProbe: {
                    Value key = eval.eval(*p.key, ctx);
                    if (key.is_null()) return;  // `= NULL` is never TRUE
                    if (p.path == AccessPath::kHashProbe) {
                        auto range = stage.hash.equal_range(key);
                        for (auto it = range.first; it != range.second; ++it)
                            accept(it->second);
                        return;
                    }
                    count(&ExecStats::index_lookups);
                    if (!stage.probe_pk) {
                        t->index_visit(p.column, key, accept);
                    } else if (auto id = pk_match(*t, key)) {
                        accept(*id);
                    }
                    return;
                }
                case AccessPath::kRange: {
                    // Bounds over earlier stages — or literals, when this
                    // stage drives — binary-search the ordered index.
                    Value lo, hi;
                    const Value *lop = nullptr, *hip = nullptr;
                    if (p.lo != nullptr) {
                        lo = eval.eval(*p.lo, ctx);
                        if (lo.is_null()) return;  // unknown bound: no matches
                        lop = &lo;
                    }
                    if (p.hi != nullptr) {
                        hi = eval.eval(*p.hi, ctx);
                        if (hi.is_null()) return;
                        hip = &hi;
                    }
                    count(&ExecStats::range_scans);
                    for (RowId id : t->index_range_lookup(
                             p.detail, lop, p.lo_strict, hip, p.hi_strict))
                        accept(id);
                    return;
                }
                case AccessPath::kNestedLoop:
                    count(&ExecStats::nested_loop_joins);
                    [[fallthrough]];
                case AccessPath::kScan:
                    for (RowId id = 0; id < t->row_count(); ++id) accept(id);
                    return;
            }
        };

        descend(0);
    }

    void expand_columns(ResultSet& result) const {
        for (const auto& item : stmt_.items) {
            if (item.star) {
                for (const auto& bt : tables_)
                    for (const auto& c : bt.table->def().columns)
                        result.columns.push_back(bt.alias + "." + c.name);
            } else {
                result.columns.push_back(item.alias.empty()
                                             ? item.expr->to_string()
                                             : item.alias);
            }
        }
    }

    void run_plain(const Evaluator& eval,
                   const std::vector<std::vector<RowId>>& contexts,
                   ResultSet& result) {
        for (const auto& ctx : contexts) {
            poll_cancel();
            project(eval, ctx, result);
        }
        sort_rows(eval, contexts, result);
    }

    /// Append the select list of one joined row context to `result`.
    void project(const Evaluator& eval, const std::vector<RowId>& ctx,
                 ResultSet& result) {
        Row out;
        out.reserve(stmt_.items.size());
        for (const auto& item : stmt_.items) {
            if (item.star) {
                for (std::size_t t = 0; t < tables_.size(); ++t) {
                    const Row& r = tables_[t].table->row(ctx[t]);
                    out.insert(out.end(), r.begin(), r.end());
                }
            } else {
                out.push_back(eval.eval(*item.expr, ctx));
            }
        }
        charge_output(out);
        result.rows.push_back(std::move(out));
    }

    void sort_rows(const Evaluator& eval,
                   const std::vector<std::vector<RowId>>& contexts,
                   ResultSet& result) {
        if (stmt_.order_by.empty()) return;
        // Evaluate sort keys per row, then sort row/key pairs together.
        struct Keyed {
            Row row;
            std::vector<Value> keys;
        };
        std::vector<Keyed> keyed;
        keyed.reserve(result.rows.size());
        for (std::size_t i = 0; i < result.rows.size(); ++i) {
            poll_cancel();
            Keyed k;
            k.row = std::move(result.rows[i]);
            for (std::size_t j = 0; j < stmt_.order_by.size(); ++j) {
                int out = order_output_idx_[j];
                if (out >= 0 && out < static_cast<int>(k.row.size()))
                    k.keys.push_back(k.row[out]);
                else if (i < contexts.size())
                    k.keys.push_back(eval.eval(*stmt_.order_by[j].expr, contexts[i]));
                else
                    k.keys.push_back(Value::null());
            }
            keyed.push_back(std::move(k));
        }
        std::stable_sort(keyed.begin(), keyed.end(),
                         [&](const Keyed& a, const Keyed& b) {
                             for (std::size_t k = 0; k < stmt_.order_by.size(); ++k) {
                                 auto ord = a.keys[k].index_order(b.keys[k]);
                                 if (ord == std::strong_ordering::equal) continue;
                                 bool less = ord == std::strong_ordering::less;
                                 return stmt_.order_by[k].descending ? !less : less;
                             }
                             return false;
                         });
        result.rows.clear();
        for (auto& k : keyed) result.rows.push_back(std::move(k.row));
    }

    // -- aggregation -----------------------------------------------------------

    struct Accumulator {
        std::int64_t count = 0;
        double sum = 0;
        bool sum_is_int = true;
        std::int64_t isum = 0;
        Value min, max;
        std::set<std::string> distinct_seen;
    };

    void run_aggregate(const Evaluator& eval,
                       const std::vector<std::vector<RowId>>& contexts,
                       ResultSet& result) {
        // Collect aggregate expressions across items + HAVING.
        std::vector<const Expr*> aggs;
        std::function<void(const Expr*)> find = [&](const Expr* e) {
            if (e->kind == Expr::Kind::kAggregate) {
                aggs.push_back(e);
                return;
            }
            if (e->kind == Expr::Kind::kBinary) {
                find(e->left.get());
                find(e->right.get());
            } else if (e->kind == Expr::Kind::kNot ||
                       e->kind == Expr::Kind::kIsNull) {
                find(e->right.get());
            }
        };
        for (const auto& item : stmt_.items)
            if (!item.star) find(item.expr.get());
        if (stmt_.having) find(stmt_.having.get());

        struct Group {
            std::vector<RowId> representative;
            std::vector<Accumulator> accs;
        };
        std::map<std::vector<std::string>, Group> groups;

        for (const auto& ctx : contexts) {
            poll_cancel();
            std::vector<std::string> key;
            for (const auto& g : stmt_.group_by)
                key.push_back(eval.eval(*g, ctx).to_string());
            auto [it, inserted] = groups.try_emplace(std::move(key));
            Group& group = it->second;
            if (inserted) {
                group.representative = ctx;
                group.accs.resize(aggs.size());
            }
            for (std::size_t a = 0; a < aggs.size(); ++a)
                accumulate(eval, *aggs[a], ctx, group.accs[a]);
        }
        // A global aggregate over zero rows still yields one group.
        if (groups.empty() && stmt_.group_by.empty()) {
            Group group;
            group.accs.resize(aggs.size());
            groups.emplace(std::vector<std::string>{}, std::move(group));
        }

        for (const auto& [key, group] : groups) {
            auto final_value = [&](const Expr* e) {
                for (std::size_t a = 0; a < aggs.size(); ++a)
                    if (aggs[a] == e) return finalize(*e, group.accs[a]);
                throw QueryError("unregistered aggregate");
            };
            std::function<Value(const Expr&)> eval_out =
                [&](const Expr& e) -> Value {
                if (e.kind == Expr::Kind::kAggregate) return final_value(&e);
                if (e.kind == Expr::Kind::kBinary) {
                    // Rebuild with children evaluated (aggregates possible on
                    // either side).
                    Expr tmp;
                    tmp.kind = Expr::Kind::kBinary;
                    tmp.op = e.op;
                    tmp.left = make_literal(eval_out(*e.left));
                    tmp.right = make_literal(eval_out(*e.right));
                    return eval.eval(tmp, group.representative.empty()
                                              ? std::vector<RowId>{}
                                              : group.representative);
                }
                if (group.representative.empty()) return Value::null();
                return eval.eval(e, group.representative);
            };

            if (stmt_.having && !truthy(eval_out(*stmt_.having))) continue;

            Row out;
            for (const auto& item : stmt_.items) {
                if (item.star)
                    throw QueryError("'*' cannot appear in an aggregate select");
                out.push_back(eval_out(*item.expr));
            }
            charge_output(out);
            result.rows.push_back(std::move(out));
        }

        // ORDER BY in aggregate mode: match select aliases / positions.
        if (!stmt_.order_by.empty()) {
            std::vector<std::pair<int, bool>> keys;  // column idx, desc
            for (std::size_t k = 0; k < stmt_.order_by.size(); ++k) {
                const auto& o = stmt_.order_by[k];
                int idx = order_output_idx_[k];
                if (idx < 0) {
                    for (std::size_t i = 0; i < stmt_.items.size(); ++i) {
                        const auto& item = stmt_.items[i];
                        if (item.star) continue;
                        if (item.expr->to_string() == o.expr->to_string())
                            idx = static_cast<int>(i);
                    }
                }
                if (idx < 0 || idx >= static_cast<int>(result.columns.size()))
                    throw QueryError(
                        "ORDER BY in aggregate queries must name a select "
                        "column or position");
                keys.emplace_back(idx, o.descending);
            }
            std::stable_sort(result.rows.begin(), result.rows.end(),
                             [&](const Row& a, const Row& b) {
                                 for (auto [idx, desc] : keys) {
                                     auto ord = a[idx].index_order(b[idx]);
                                     if (ord == std::strong_ordering::equal)
                                         continue;
                                     bool less = ord == std::strong_ordering::less;
                                     return desc ? !less : less;
                                 }
                                 return false;
                             });
        }
    }

    void accumulate(const Evaluator& eval, const Expr& agg,
                    const std::vector<RowId>& ctx, Accumulator& acc) {
        if (agg.right->kind == Expr::Kind::kStar) {
            ++acc.count;
            return;
        }
        Value v = eval.eval(*agg.right, ctx);
        if (v.is_null()) return;
        if (agg.distinct && !acc.distinct_seen.insert(v.to_string()).second)
            return;
        ++acc.count;
        if (v.type() == rdb::ValueType::kInteger) {
            acc.isum += v.as_integer();
            acc.sum += v.as_real();
        } else if (v.type() == rdb::ValueType::kReal) {
            acc.sum_is_int = false;
            acc.sum += v.as_real();
        }
        if (acc.min.is_null() || v.index_order(acc.min) == std::strong_ordering::less)
            acc.min = v;
        if (acc.max.is_null() ||
            v.index_order(acc.max) == std::strong_ordering::greater)
            acc.max = v;
    }

    Value finalize(const Expr& agg, const Accumulator& acc) const {
        switch (agg.fn) {
            case AggregateFn::kCount:
                return Value(acc.count);
            case AggregateFn::kSum:
                if (acc.count == 0) return Value::null();
                return acc.sum_is_int ? Value(acc.isum) : Value(acc.sum);
            case AggregateFn::kMin:
                return acc.min;
            case AggregateFn::kMax:
                return acc.max;
            case AggregateFn::kAvg:
                if (acc.count == 0) return Value::null();
                return Value(acc.sum / static_cast<double>(acc.count));
        }
        return Value::null();
    }
};

}  // namespace

std::string ResultSet::to_string() const {
    TablePrinter printer(columns);
    for (const auto& row : rows) {
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (const auto& v : row) cells.push_back(v.to_string());
        printer.add_row(std::move(cells));
    }
    return printer.to_string();
}

ResultSet execute(rdb::Database& db, std::string_view sql, ExecStats* stats,
                  const CancelToken& cancel, const PlannerOptions* planner) {
    Statement stmt = parse(sql);
    switch (stmt.kind) {
        case Statement::Kind::kSelect:
            return execute_select(db, stmt.select, stats, cancel, planner);
        case Statement::Kind::kInsert: {
            Table* t = db.table(stmt.insert.table);
            if (t == nullptr)
                throw QueryError("unknown table '" + stmt.insert.table + "'");
            for (const auto& values : stmt.insert.rows) {
                Row row(t->column_count());
                if (stmt.insert.columns.empty()) {
                    if (values.size() != t->column_count())
                        throw QueryError("INSERT arity mismatch for '" +
                                         stmt.insert.table + "'");
                    row = values;
                } else {
                    if (values.size() != stmt.insert.columns.size())
                        throw QueryError("INSERT arity mismatch for '" +
                                         stmt.insert.table + "'");
                    for (std::size_t i = 0; i < values.size(); ++i) {
                        int c = t->def().column_index(stmt.insert.columns[i]);
                        if (c < 0)
                            throw QueryError("unknown column '" +
                                             stmt.insert.columns[i] + "'");
                        row[c] = values[i];
                    }
                }
                t->insert(std::move(row));
            }
            return {};
        }
        case Statement::Kind::kCreateTable: {
            rdb::TableDef def;
            def.name = stmt.create_table.table;
            for (const auto& c : stmt.create_table.columns)
                def.columns.push_back({c.name, c.type, c.not_null, c.primary_key});
            db.create_table(std::move(def));
            for (const auto& c : stmt.create_table.columns) {
                if (!c.references_table.empty())
                    db.add_foreign_key({stmt.create_table.table, c.name,
                                        c.references_table, c.references_column});
            }
            return {};
        }
        case Statement::Kind::kCreateIndex: {
            if (db.table(stmt.create_index.table) == nullptr)
                throw QueryError("unknown table '" + stmt.create_index.table + "'");
            db.create_index(stmt.create_index.table, stmt.create_index.column);
            return {};
        }
    }
    return {};
}

ResultSet execute_read(const rdb::ReadView& db, std::string_view sql,
                       ExecStats* stats, const CancelToken& cancel,
                       const PlannerOptions* planner) {
    Statement stmt = parse(sql);
    if (stmt.kind != Statement::Kind::kSelect)
        throw QueryError("read-only execution: statement is not a SELECT");
    return execute_select(db, stmt.select, stats, cancel, planner);
}

ResultSet execute_select(const rdb::ReadView& db, SelectStmt& stmt,
                         ExecStats* stats, const CancelToken& cancel,
                         const PlannerOptions* planner) {
    SelectExecutor executor(db, stmt, stats, cancel,
                            planner != nullptr ? *planner : PlannerOptions{});
    return executor.run();
}

ResultSet execute_select(rdb::Database& db, SelectStmt& stmt, ExecStats* stats,
                         const CancelToken& cancel,
                         const PlannerOptions* planner) {
    return execute_select(rdb::ReadView(db), stmt, stats, cancel, planner);
}

}  // namespace xr::sql
