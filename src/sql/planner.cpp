#include "sql/planner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace xr::sql {

namespace {

using rdb::Table;
using rdb::Value;

constexpr double kInf = 1e300;

/// Exhaustive DP join search up to this many inputs; larger joins fall
/// back to a greedy min-cost-increment order.
constexpr std::size_t kDpTableLimit = 7;

double lg(double x) { return std::log2(x < 2.0 ? 2.0 : x); }

double clamp_sel(double s) {
    if (s < 1e-4) return 1e-4;
    if (s > 1.0) return 1.0;
    return s;
}

bool numeric(const Value& v, double& out) {
    switch (v.type()) {
        case rdb::ValueType::kInteger: out = static_cast<double>(v.as_integer()); return true;
        case rdb::ValueType::kReal: out = v.as_real(); return true;
        default: return false;
    }
}

/// Per-input planning state: statistics-backed cardinality and the
/// product of its single-table predicate selectivities.
struct TableInfo {
    const Table* table = nullptr;
    double rows = 0;
    double local_sel = 1.0;
};

/// `col(t, c) op other`, normalized so the column is on the left — a key
/// (op kEq) or bound (kLt/kLe/kGt/kGe) that the index on `t.c` can
/// answer once every input in `others` is placed.
struct Cand {
    int t = -1;
    int c = -1;
    BinaryOp op = BinaryOp::kEq;
    const Expr* other = nullptr;
    std::uint64_t others = 0;  ///< bitmask of inputs `other` reads
};

bool is_range(BinaryOp op) {
    return op == BinaryOp::kLt || op == BinaryOp::kLe ||
           op == BinaryOp::kGt || op == BinaryOp::kGe;
}

/// `col > x` / `col >= x`: a lower bound on col.
bool is_lower(BinaryOp op) {
    return op == BinaryOp::kGt || op == BinaryOp::kGe;
}

/// `a OP b` as `b OP' a`.
BinaryOp flip(BinaryOp op) {
    switch (op) {
        case BinaryOp::kLt: return BinaryOp::kGt;
        case BinaryOp::kLe: return BinaryOp::kGe;
        case BinaryOp::kGt: return BinaryOp::kLt;
        case BinaryOp::kGe: return BinaryOp::kLe;
        default: return op;
    }
}

struct Conjunct {
    const Expr* expr = nullptr;
    std::uint64_t tables = 0;  ///< bitmask of referenced inputs
    bool join = false;         ///< references two or more inputs
    double sel = 0.5;          ///< join selectivity (join conjuncts)
    std::vector<Cand> cands;
};

/// The bound statement as the planner sees it: its inputs in written
/// order and its ON conjuncts (in join order), then WHERE's.
struct Query {
    std::vector<TableInfo> tables;
    std::vector<Conjunct> conjuncts;
};

std::uint64_t expr_tables(const Expr& e) {
    switch (e.kind) {
        case Expr::Kind::kColumn:
            return e.bound_table >= 0 ? (std::uint64_t{1} << e.bound_table) : 0;
        case Expr::Kind::kBinary:
            return expr_tables(*e.left) | expr_tables(*e.right);
        case Expr::Kind::kNot:
        case Expr::Kind::kIsNull:
            return expr_tables(*e.right);
        case Expr::Kind::kAggregate:
            return e.right != nullptr && e.right->kind != Expr::Kind::kStar
                       ? expr_tables(*e.right)
                       : 0;
        default:
            return 0;
    }
}

/// NDV of a column: primary keys are unique by construction; otherwise
/// the statistics sketch answers, 0 meaning "unknown".
double col_ndv(const TableInfo& ti, int c) {
    if (ti.table->def().columns[c].primary_key) return ti.rows;
    const auto& cols = ti.table->stats().columns;
    if (static_cast<std::size_t>(c) < cols.size()) {
        std::uint64_t n = cols[c].ndv();
        if (n > 0) return static_cast<double>(n);
    }
    return 0;
}

double eq_sel(const TableInfo& ti, int c) {
    double ndv = col_ndv(ti, c);
    return ndv > 0 ? 1.0 / ndv : 0.1;
}

/// Selectivity of `col OP literal` (already normalized so the column is
/// on the left).  Ranges interpolate against the statistics min/max.
double cmp_sel(const TableInfo& ti, int c, BinaryOp op, const Value& lit) {
    switch (op) {
        case BinaryOp::kEq:
            return eq_sel(ti, c);
        case BinaryOp::kNe:
            return 1.0 - eq_sel(ti, c);
        case BinaryOp::kLike:
            return 0.25;
        default:
            break;
    }
    const auto& cols = ti.table->stats().columns;
    double v = 0, lo = 0, hi = 0;
    if (static_cast<std::size_t>(c) < cols.size() && numeric(lit, v) &&
        numeric(cols[c].min, lo) && numeric(cols[c].max, hi) && hi > lo) {
        double frac = (v - lo) / (hi - lo);
        frac = std::clamp(frac, 0.0, 1.0);
        bool below = op == BinaryOp::kLt || op == BinaryOp::kLe;
        return clamp_sel(below ? frac : 1.0 - frac);
    }
    return 1.0 / 3.0;
}

/// Selectivity of a single-table predicate subtree.
double estimate_sel(const Expr& e, const TableInfo& ti) {
    switch (e.kind) {
        case Expr::Kind::kBinary: {
            if (e.op == BinaryOp::kAnd)
                return clamp_sel(estimate_sel(*e.left, ti) *
                                 estimate_sel(*e.right, ti));
            if (e.op == BinaryOp::kOr) {
                double a = estimate_sel(*e.left, ti);
                double b = estimate_sel(*e.right, ti);
                return clamp_sel(a + b - a * b);
            }
            const Expr *col = nullptr, *lit = nullptr;
            bool col_left = true;
            if (e.left->kind == Expr::Kind::kColumn &&
                e.right->kind == Expr::Kind::kLiteral) {
                col = e.left.get();
                lit = e.right.get();
            } else if (e.right->kind == Expr::Kind::kColumn &&
                       e.left->kind == Expr::Kind::kLiteral) {
                col = e.right.get();
                lit = e.left.get();
                col_left = false;
            }
            if (col != nullptr)  // literal OP col: flip the direction
                return cmp_sel(ti, col->bound_column,
                               col_left ? e.op : flip(e.op), lit->literal);
            switch (e.op) {
                case BinaryOp::kEq: return 0.1;
                case BinaryOp::kNe: return 0.9;
                case BinaryOp::kLt:
                case BinaryOp::kLe:
                case BinaryOp::kGt:
                case BinaryOp::kGe: return 1.0 / 3.0;
                case BinaryOp::kLike: return 0.25;
                default: return 0.5;
            }
        }
        case Expr::Kind::kNot:
            return clamp_sel(1.0 - estimate_sel(*e.right, ti));
        case Expr::Kind::kIsNull: {
            const auto& cols = ti.table->stats().columns;
            double base = 0.1;
            const std::uint64_t covered = ti.table->stats().rows;
            if (e.right->kind == Expr::Kind::kColumn && covered > 0 &&
                static_cast<std::size_t>(e.right->bound_column) < cols.size())
                base = static_cast<double>(cols[e.right->bound_column].nulls) /
                       static_cast<double>(covered);
            return clamp_sel(e.negated ? 1.0 - base : base);
        }
        default:
            return 0.5;
    }
}

/// The one access-path decision: how input `t` is read when it joins the
/// inputs in `mask` (0: it drives the pipeline), fed `card_in` outer
/// rows.  Returns the access path with the conjuncts it answers, its
/// estimated output and incremental cost and, when `residual` is set,
/// fills in the conjuncts first evaluable at this stage that the access
/// leaves to filter.  The order search costs every candidate step with
/// it; the executor runs what it returns for the chosen order.
StagePlan choose_access(const Query& q, std::uint64_t mask, int t,
                        double card_in, bool residual) {
    const TableInfo& ti = q.tables[static_cast<std::size_t>(t)];
    const Table& table = *ti.table;
    const std::uint64_t tbit = std::uint64_t{1} << t;
    const std::uint64_t placed = mask | tbit;
    const double rows = ti.rows < 0 ? 0 : ti.rows;
    auto column_name = [&](int c) -> const std::string& {
        return table.def().columns[static_cast<std::size_t>(c)].name;
    };

    StagePlan st;
    st.input = t;
    std::size_t consumed[2] = {q.conjuncts.size(), q.conjuncts.size()};
    // A range bound: at most one lower and one upper, on st.column.
    auto take_bound = [&](const Cand& cand, std::size_t i) {
        bool lower = is_lower(cand.op);
        bool strict = cand.op == BinaryOp::kGt || cand.op == BinaryOp::kLt;
        const Expr*& slot = lower ? st.lo : st.hi;
        if (slot != nullptr) return;
        slot = cand.other;
        (lower ? st.lo_strict : st.hi_strict) = strict;
        consumed[consumed[0] == q.conjuncts.size() ? 0 : 1] = i;
    };

    if (mask == 0) {
        // Driving input: its single-table conjuncts offer a literal
        // equality on an indexed column, else table-free bounds on an
        // ordered-indexed column.
        st.est_rows = rows * ti.local_sel;
        for (std::size_t i = 0; i < q.conjuncts.size() && st.key == nullptr;
             ++i) {
            const Conjunct& cj = q.conjuncts[i];
            if (cj.tables != tbit) continue;
            for (const Cand& cand : cj.cands)
                if (cand.op == BinaryOp::kEq && cand.others == 0 &&
                    cand.other->kind == Expr::Kind::kLiteral &&
                    table.has_index(column_name(cand.c))) {
                    st.path = AccessPath::kIndexEq;
                    st.column = cand.c;
                    st.key = cand.other;
                    st.est_cost = 1.0 + rows * eq_sel(ti, cand.c);
                    consumed[0] = i;
                    break;
                }
        }
        double range_sel = 1.0;
        for (std::size_t i = 0;
             i < q.conjuncts.size() && st.path != AccessPath::kIndexEq; ++i) {
            const Conjunct& cj = q.conjuncts[i];
            if (cj.tables != tbit) continue;
            for (const Cand& cand : cj.cands) {
                if (!is_range(cand.op) || cand.others != 0) continue;
                if (st.column >= 0 ? cand.c != st.column
                                   : !table.has_ordered_index(
                                         column_name(cand.c)))
                    continue;
                double sel = cand.other->kind == Expr::Kind::kLiteral
                                 ? cmp_sel(ti, cand.c, cand.op,
                                           cand.other->literal)
                                 : 1.0 / 3.0;
                range_sel = st.column >= 0 ? clamp_sel(range_sel * sel) : sel;
                st.column = cand.c;
                take_bound(cand, i);
            }
        }
        if (st.path != AccessPath::kIndexEq && st.column >= 0) {
            st.path = AccessPath::kRange;
            st.est_cost = lg(rows) + rows * range_sel;
        } else if (st.path != AccessPath::kIndexEq) {
            st.est_cost = rows;  // kScan
        }
    } else {
        // Joined input: the join conjuncts that become evaluable here
        // offer an equality probe — the first wins — else bounds on an
        // ordered-indexed column, the first such column wins.
        auto usable = [&](const Conjunct& cj) {
            return cj.join && (cj.tables & tbit) != 0 &&
                   (cj.tables & ~placed) == 0;
        };
        auto answers = [&](const Cand& cand) {
            return cand.t == t && (cand.others & ~mask) == 0;
        };
        double join_sel = 1.0;
        const Cand* probe = nullptr;
        for (std::size_t i = 0; i < q.conjuncts.size(); ++i) {
            const Conjunct& cj = q.conjuncts[i];
            if (!usable(cj)) continue;
            join_sel *= cj.sel;
            for (const Cand& cand : cj.cands) {
                if (probe != nullptr || !answers(cand)) continue;
                if (cand.op == BinaryOp::kEq) {
                    probe = &cand;
                    consumed[0] = i;
                } else if (st.column < 0 && is_range(cand.op) &&
                           table.has_ordered_index(column_name(cand.c))) {
                    st.column = cand.c;
                }
            }
        }
        double matches = rows * ti.local_sel * join_sel;
        st.est_rows = card_in * matches;
        if (probe != nullptr) {
            st.column = probe->c;
            st.key = probe->other;
            if (table.has_index(column_name(probe->c)) ||
                table.def().columns[static_cast<std::size_t>(probe->c)]
                    .primary_key) {
                st.path = AccessPath::kProbe;
                st.est_cost = card_in * (1.0 + matches);
            } else {
                st.path = AccessPath::kHashProbe;
                st.est_cost = rows + card_in * (1.0 + matches);
            }
        } else if (st.column >= 0) {
            st.path = AccessPath::kRange;
            st.est_cost = card_in * (lg(rows) + 1.0 + matches);
            for (std::size_t i = 0; i < q.conjuncts.size(); ++i)
                if (usable(q.conjuncts[i]))
                    for (const Cand& cand : q.conjuncts[i].cands)
                        if (answers(cand) && is_range(cand.op) &&
                            cand.c == st.column)
                            take_bound(cand, i);
        } else {
            st.path = AccessPath::kNestedLoop;
            st.est_cost = card_in * (rows < 1.0 ? 1.0 : rows);
        }
    }

    if (residual) {
        for (std::size_t i = 0; i < q.conjuncts.size(); ++i) {
            const Conjunct& cj = q.conjuncts[i];
            bool ready = (cj.tables & ~placed) == 0;
            bool earlier = mask != 0 && (cj.tables & ~mask) == 0;
            if (ready && !earlier && i != consumed[0] && i != consumed[1])
                st.residual.push_back(cj.expr);
        }
    }
    return st;
}

struct PathState {
    double cost = kInf;
    double card = 0;
    std::vector<int> order;
};

PathState extend(const Query& q, const PathState& s, std::uint64_t mask,
                 int t) {
    PathState next = s;
    StagePlan st = choose_access(q, mask, t, s.card, /*residual=*/false);
    next.cost = (s.cost >= kInf ? 0 : s.cost) + st.est_cost;
    next.card = st.est_rows;
    next.order.push_back(t);
    return next;
}

}  // namespace

std::string_view to_string(AccessPath p) {
    switch (p) {
        case AccessPath::kScan: return "scan";
        case AccessPath::kIndexEq: return "index_eq";
        case AccessPath::kRange: return "range";
        case AccessPath::kProbe: return "probe";
        case AccessPath::kHashProbe: return "hash";
        case AccessPath::kNestedLoop: return "nested_loop";
    }
    return "?";
}

std::string PlanInfo::shape() const {
    std::string out;
    for (const auto& s : stages) {
        if (!out.empty()) out += ' ';
        out += xr::sql::to_string(s.path);
        out += '(';
        out += s.alias;
        if (!s.detail.empty()) {
            out += '.';
            out += s.detail;
        }
        out += ')';
    }
    return out;
}

std::string PlanInfo::to_string() const {
    std::ostringstream out;
    out << std::setprecision(4);
    out << "plan: cost=" << total_cost << " est_rows=" << est_rows
        << " stats_epoch=" << stats_epoch;
    if (reordered) out << " (reordered)";
    if (!planned) out << " (as written; not planned)";
    for (const auto& s : stages) {
        out << "\n  " << s.alias << " [" << s.table << "] "
            << xr::sql::to_string(s.path);
        if (!s.detail.empty()) out << " on " << s.detail;
        out << "  est_rows=" << s.est_rows << " cost=" << s.est_cost;
    }
    return out.str();
}

Binder::Binder(const rdb::ReadView& db, const SelectStmt& stmt) {
    auto add = [&](const TableRef& ref) {
        const Table* t = db.table(ref.table);
        if (t == nullptr) throw QueryError("unknown table '" + ref.table + "'");
        tables_.push_back({ref.effective_alias(), t});
    };
    add(stmt.from);
    for (const auto& join : stmt.joins) add(join.table);
}

void Binder::bind(Expr& e) const {
    switch (e.kind) {
        case Expr::Kind::kColumn:
            resolve_column(e);
            return;
        case Expr::Kind::kBinary:
            bind(*e.left);
            bind(*e.right);
            return;
        case Expr::Kind::kNot:
        case Expr::Kind::kIsNull:
            bind(*e.right);
            return;
        case Expr::Kind::kAggregate:
            if (e.right->kind != Expr::Kind::kStar) bind(*e.right);
            return;
        case Expr::Kind::kLiteral:
        case Expr::Kind::kStar:
            return;
    }
}

void Binder::resolve_column(Expr& e) const {
    if (!e.table.empty()) {
        for (std::size_t t = 0; t < tables_.size(); ++t) {
            if (tables_[t].alias != e.table) continue;
            int c = tables_[t].table->def().column_index(e.column);
            if (c < 0)
                throw QueryError("no column '" + e.column + "' in '" +
                                 e.table + "'");
            e.bound_table = static_cast<int>(t);
            e.bound_column = c;
            return;
        }
        throw QueryError("unknown table alias '" + e.table + "'");
    }
    int found_t = -1, found_c = -1;
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        int c = tables_[t].table->def().column_index(e.column);
        if (c < 0) continue;
        if (found_t >= 0)
            throw QueryError("ambiguous column '" + e.column + "'");
        found_t = static_cast<int>(t);
        found_c = c;
    }
    if (found_t < 0) throw QueryError("unknown column '" + e.column + "'");
    e.bound_table = found_t;
    e.bound_column = found_c;
}

PlanInfo plan_select(const rdb::ReadView& db, SelectStmt& stmt,
                     const PlannerOptions& options) {
    try {
        Binder binder(db, stmt);
        for (auto& j : stmt.joins)
            if (j.on) binder.bind(*j.on);
        if (stmt.where) binder.bind(*stmt.where);
        return plan_bound(db, stmt, binder, options);
    } catch (const QueryError&) {
        PlanInfo info;
        info.stats_epoch = db.stats_epoch();
        return info;
    }
}

PlanInfo plan_bound(const rdb::ReadView& db, const SelectStmt& stmt,
                    const Binder& binder, const PlannerOptions& options) {
    PlanInfo info;
    info.stats_epoch = db.stats_epoch();
    const std::vector<BoundTable>& bound = binder.tables();
    const std::size_t n = bound.size();
    if (n > 63) throw QueryError("a SELECT joins at most 63 tables");

    Query q;
    for (const BoundTable& b : bound)
        q.tables.push_back(
            {b.table, static_cast<double>(b.table->row_count()), 1.0});

    // Split ON (in join order), then WHERE, into conjuncts.
    std::function<void(const Expr*)> split = [&](const Expr* e) {
        if (e->kind == Expr::Kind::kBinary && e->op == BinaryOp::kAnd) {
            split(e->left.get());
            split(e->right.get());
            return;
        }
        Conjunct cj;
        cj.expr = e;
        cj.tables = expr_tables(*e);
        q.conjuncts.push_back(std::move(cj));
    };
    for (const auto& j : stmt.joins)
        if (j.on) split(j.on.get());
    if (stmt.where) split(stmt.where.get());

    for (Conjunct& cj : q.conjuncts) {
        const Expr* e = cj.expr;
        if (e->kind == Expr::Kind::kBinary) {
            auto cand_side = [&](const Expr* col, const Expr* other,
                                 BinaryOp op) {
                if (col->kind != Expr::Kind::kColumn) return;
                if (op != BinaryOp::kEq && !is_range(op)) return;
                cj.cands.push_back({col->bound_table, col->bound_column, op,
                                    other, expr_tables(*other)});
            };
            cand_side(e->left.get(), e->right.get(), e->op);
            cand_side(e->right.get(), e->left.get(), flip(e->op));
        }
        int refs = std::popcount(cj.tables);
        if (refs == 1) {
            int t = std::countr_zero(cj.tables);
            TableInfo& ti = q.tables[static_cast<std::size_t>(t)];
            ti.local_sel = clamp_sel(ti.local_sel * estimate_sel(*e, ti));
        }
        if (refs < 2) continue;  // table-free conjuncts don't affect ordering
        cj.join = true;
        if (e->kind != Expr::Kind::kBinary) continue;
        if (e->op == BinaryOp::kEq) {
            // 1/max(ndv) over the bare-column sides; both unknown falls
            // back to a generic equi-join guess.
            double ndv = 0;
            for (const Cand& cand : cj.cands)
                ndv = std::max(ndv, col_ndv(q.tables[cand.t], cand.c));
            cj.sel = ndv > 0 ? 1.0 / ndv : 0.05;
        } else {
            cj.sel = 1.0 / 3.0;  // refined below for containment pairs
        }
    }

    // Containment-pair refinement: a lower and an upper bound on the same
    // column of the same table, both provided by one other table (the
    // `a.pre < d.pre AND d.pre < a.post` interval join), select together
    // roughly one ancestor per bounded row — 1/rows(bounder) — instead of
    // two independent thirds.
    auto& cjs = q.conjuncts;
    for (std::size_t i = 0; i < cjs.size(); ++i) {
        if (!cjs[i].join) continue;
        for (const Cand& ci : cjs[i].cands) {
            if (!is_lower(ci.op) || std::popcount(ci.others) != 1) continue;
            for (std::size_t j = 0; j < cjs.size(); ++j) {
                if (j == i || !cjs[j].join) continue;
                for (const Cand& cj : cjs[j].cands) {
                    if (!is_range(cj.op) || is_lower(cj.op) || cj.t != ci.t ||
                        cj.c != ci.c || cj.others != ci.others)
                        continue;
                    double r = q.tables[static_cast<std::size_t>(
                                            std::countr_zero(ci.others))]
                                   .rows;
                    cjs[i].sel = clamp_sel(r > 1.0 ? 1.0 / r : 1.0);
                    cjs[j].sel = 1.0;
                }
            }
        }
    }

    info.planned = true;

    // As-written baseline.
    PathState base;
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < n; ++i) {
        base = extend(q, base, mask, static_cast<int>(i));
        mask |= std::uint64_t{1} << i;
    }

    bool has_star = false;
    for (const auto& item : stmt.items)
        if (item.star) has_star = true;

    PathState winner = base;
    bool try_reorder = options.enable && n >= 2 && !has_star;
    if (try_reorder && n <= kDpTableLimit) {
        // Selinger-style exhaustive left-deep DP over subsets.
        std::vector<PathState> best(std::size_t{1} << n);
        for (std::size_t t = 0; t < n; ++t)
            best[std::size_t{1} << t] =
                extend(q, PathState{}, 0, static_cast<int>(t));
        for (std::uint64_t m = 1; m < (std::uint64_t{1} << n); ++m) {
            if (best[m].cost >= kInf) continue;
            for (std::size_t t = 0; t < n; ++t) {
                std::uint64_t bit = std::uint64_t{1} << t;
                if ((m & bit) != 0) continue;
                PathState cand = extend(q, best[m], m, static_cast<int>(t));
                PathState& slot = best[m | bit];
                if (cand.cost < slot.cost) slot = std::move(cand);
            }
        }
        PathState& full = best[(std::uint64_t{1} << n) - 1];
        if (full.cost < winner.cost * 0.99) winner = std::move(full);
    } else if (try_reorder) {
        // Greedy: cheapest driving table, then min-cost-increment.
        PathState g;
        std::uint64_t placed = 0;
        for (std::size_t step = 0; step < n; ++step) {
            PathState pick;
            for (std::size_t t = 0; t < n; ++t) {
                std::uint64_t bit = std::uint64_t{1} << t;
                if ((placed & bit) != 0) continue;
                PathState cand = extend(q, g, placed, static_cast<int>(t));
                if (cand.cost < pick.cost ||
                    (cand.cost == pick.cost && cand.card < pick.card))
                    pick = std::move(cand);
            }
            placed |= std::uint64_t{1} << pick.order.back();
            g = std::move(pick);
        }
        if (g.cost < winner.cost * 0.99) winner = std::move(g);
    }

    // The winning order's stages, with their residual filters.
    info.total_cost = winner.cost;
    info.est_rows = winner.card;
    info.stages.reserve(n);
    double card = 0;
    mask = 0;
    for (std::size_t i = 0; i < n; ++i) {
        int t = winner.order[i];
        if (t != static_cast<int>(i)) info.reordered = true;
        StagePlan st = choose_access(q, mask, t, card, /*residual=*/true);
        const rdb::Table& table = *bound[static_cast<std::size_t>(t)].table;
        st.alias = bound[static_cast<std::size_t>(t)].alias;
        st.table = table.def().name;
        if (st.column >= 0)
            st.detail =
                table.def().columns[static_cast<std::size_t>(st.column)].name;
        card = st.est_rows;
        mask |= std::uint64_t{1} << t;
        info.stages.push_back(std::move(st));
    }
    return info;
}

}  // namespace xr::sql
