// Metamorphic SQL oracles over random joins (Rigger & Su: ternary logic
// partitioning, OOPSLA'20, and non-optimizing reference engine
// construction, FSE'20).
//
// The paper DTD's schema is loaded with a seeded bibliography corpus;
// each iteration builds a random join over it — foreign-key equi-joins,
// interval containment joins on (pre, post), `doc` equalities placed in
// ON or WHERE so a stage has equality candidates in both — plus a random
// three-valued predicate p, and checks:
//
//   * TLP: the rows (or the COUNT(*), or the per-group COUNT(*)) where p
//     is TRUE, where NOT p is TRUE and where p IS NULL add up to the
//     rows of the unfiltered join, and COUNT(DISTINCT c) over the join
//     equals the distinct non-NULL c of the three partitions together;
//   * NoREC: COUNT(*) ... WHERE p equals the number of rows whose
//     projected p is 1 — p evaluated per row, never pushed into a stage;
//   * every statement returns the same rows with the planner on and off
//     (the chosen order against the order written).
//
// Replayable: the base seed prints at the start of the run and every
// divergence reports the iteration and the exact SQL.  Override with
// XMLREL_FUZZ_SEED / XMLREL_FUZZ_ITERS to reproduce or extend a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gen/corpora.hpp"
#include "helpers.hpp"
#include "sql/executor.hpp"
#include "sql/parser.hpp"
#include "sql/planner.hpp"

namespace xr {
namespace {

using rdb::Value;
using rdb::ValueType;

std::uint64_t env_or(const char* name, std::uint64_t fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

/// A join edge between two tables of the paper schema; `{A}` and `{B}`
/// stand for the aliases of `a` and `b`.
struct Edge {
    const char* a;
    const char* b;
    const char* pred;
    bool containment = false;
};

// Foreign-key and IDREF equi-joins, then containment joins (`a` is the
// ancestor) in the shapes the interval translation and hand-written SQL
// use: bounds on the descendant's pre, or on the ancestor's.
const Edge kEdges[] = {
    {"ng2", "article", "{A}.parent_pk = {B}.pk"},
    {"ng2", "author", "{A}.author_pk = {B}.pk"},
    {"ng2", "affiliation", "{A}.affiliation_pk = {B}.pk"},
    {"ncontactauthor", "article", "{A}.parent_pk = {B}.pk"},
    {"ncontactauthor", "contactauthor", "{A}.child_pk = {B}.pk"},
    {"nname", "author", "{A}.parent_pk = {B}.pk"},
    {"nname", "name", "{B}.pk = {A}.child_pk"},
    {"ref_authorid", "contactauthor", "{A}.source_pk = {B}.pk"},
    {"ref_authorid", "xrel_ids", "{A}.idref = {B}.idval"},
    {"xrel_ids", "author", "{A}.entity_pk = {B}.pk"},
    {"article", "author", "{B}.pre > {A}.pre AND {B}.pre < {A}.post", true},
    {"article", "name", "{A}.pre < {B}.pre AND {B}.post <= {A}.post", true},
    {"author", "name", "{A}.pre < {B}.pre AND {B}.pre < {A}.post", true},
    {"article", "affiliation", "{B}.pre >= {A}.pre AND {A}.post > {B}.pre",
     true},
    {"article", "contactauthor", "{B}.pre > {A}.pre AND {B}.pre < {A}.post",
     true},
    {"author", "affiliation", "{B}.pre > {A}.pre AND {B}.pre < {A}.post",
     true},
};

std::string subst(std::string s, const std::string& a, const std::string& b) {
    for (auto [key, value] : {std::pair{std::string("{A}"), a},
                              std::pair{std::string("{B}"), b}}) {
        for (std::size_t at = s.find(key); at != std::string::npos;
             at = s.find(key, at + value.size()))
            s.replace(at, key.size(), value);
    }
    return s;
}

std::string quote(const std::string& text) {
    std::string out = "'";
    for (char c : text) {
        out += c;
        if (c == '\'') out += '\'';
    }
    return out + "'";
}

std::string literal(const Value& v) {
    switch (v.type()) {
        case ValueType::kNull: return "NULL";
        case ValueType::kText: return quote(v.as_text());
        default: return v.to_string();
    }
}

/// One row per line, sorted: the multiset the oracles compare.
std::vector<std::string> rows_of(const sql::ResultSet& rs) {
    std::vector<std::string> out;
    out.reserve(rs.rows.size());
    for (const auto& row : rs.rows) {
        std::string line;
        for (const Value& v : row) line += (v.is_null() ? "∅" : v.to_string()) + "|";
        out.push_back(std::move(line));
    }
    std::sort(out.begin(), out.end());
    return out;
}

struct Join {
    std::vector<std::string> tables;   ///< per alias t0, t1, ...
    std::string from;                  ///< "a t0 JOIN b t1 ON ..."
    std::string where;                 ///< base filter, may be empty
    bool containment = false;
    bool eq_in_on_and_where = false;
    /// An edge joined only by `doc` equality; the predicate p carries
    /// it, so partitioning splits on a conjunct a stage can consume.
    std::string edge_for_p;
};

class Generator {
public:
    Generator(const rdb::Database& db, std::mt19937_64& rng)
        : db_(db), rng_(rng) {}

    Join join() {
        Join j;
        std::size_t want = 1 + pick(4);
        std::vector<const char*> tables;
        for (const Edge& e : kEdges) {
            tables.push_back(e.a);
            tables.push_back(e.b);
        }
        j.tables.push_back(tables[pick(tables.size())]);
        j.from = j.tables[0] + " t0";
        std::vector<std::string> where;
        while (j.tables.size() < want) {
            // Edges with exactly one end already in the join.
            std::vector<std::pair<const Edge*, bool>> open;
            for (const Edge& e : kEdges) {
                bool has_a = index_of(j, e.a) >= 0;
                bool has_b = index_of(j, e.b) >= 0;
                if (has_a != has_b) open.emplace_back(&e, has_a);
            }
            if (open.empty()) break;
            auto [edge, has_a] = open[pick(open.size())];
            std::string fresh = has_a ? edge->b : edge->a;
            std::string alias = "t" + std::to_string(j.tables.size());
            std::string old =
                "t" + std::to_string(index_of(j, has_a ? edge->a : edge->b));
            j.tables.push_back(fresh);
            std::string pred = has_a ? subst(edge->pred, old, alias)
                                     : subst(edge->pred, alias, old);
            std::string doc_eq = alias + ".doc = " + old + ".doc";
            j.containment = j.containment || edge->containment;
            std::string on = pred;
            switch (pick(5)) {
                case 0:  // the edge in WHERE, a doc equality in ON
                    on = doc_eq;
                    where.push_back(pred);
                    j.eq_in_on_and_where |= !edge->containment;
                    break;
                case 1:  // a doc equality in WHERE as well
                    where.push_back(doc_eq);
                    j.eq_in_on_and_where |= !edge->containment;
                    break;
                case 2:  // the edge left to the partitioning predicate
                    if (!j.edge_for_p.empty()) break;
                    on = doc_eq;
                    j.edge_for_p = pred;
                    break;
                default:
                    break;
            }
            j.from += " JOIN " + fresh + " " + alias + " ON " + on;
        }
        for (const auto& w : where)
            j.where += (j.where.empty() ? "" : " AND ") + w;
        return j;
    }

    /// A random three-valued predicate over the join's columns.
    std::string predicate(const Join& j, int depth) {
        if (depth > 0) {
            switch (pick(5)) {
                case 0: return "NOT (" + predicate(j, depth - 1) + ")";
                case 1:
                    return "(" + predicate(j, depth - 1) + ") AND (" +
                           predicate(j, depth - 1) + ")";
                case 2:
                    return "(" + predicate(j, depth - 1) + ") OR (" +
                           predicate(j, depth - 1) + ")";
                default: break;
            }
        }
        Col c = column(j);
        switch (pick(7)) {
            case 0:
                return c.name + (pick(2) == 0 ? " IS NULL" : " IS NOT NULL");
            case 1:
                if (c.type == ValueType::kText) return c.name + " LIKE " + pattern(c);
                return c.name + " + " + std::to_string(pick(3)) + " " + op() +
                       " " + other_column(j, c).name;
            case 2: return other_column(j, c).name + " " + op() + " " + c.name;
            case 3: return value_of(c) + " " + op() + " " + c.name;
            default: return c.name + " " + op() + " " + value_of(c);
        }
    }

    struct Col {
        std::string name;  ///< alias.column
        std::string table;
        int index = 0;
        ValueType type = ValueType::kInteger;
    };

    Col column(const Join& j) {
        std::size_t t = pick(j.tables.size());
        const rdb::Table& table = db_.require(j.tables[t]);
        int c = static_cast<int>(pick(table.def().columns.size()));
        const auto& def = table.def().columns[static_cast<std::size_t>(c)];
        return {"t" + std::to_string(t) + "." + def.name, j.tables[t], c,
                def.type};
    }

    /// A column of the same type as `c` (any table of the join), or `c`.
    Col other_column(const Join& j, const Col& c) {
        for (int tries = 0; tries < 8; ++tries) {
            Col o = column(j);
            if (o.type == c.type) return o;
        }
        return c;
    }

    /// A literal drawn from the column's data (NULL now and then), so
    /// equalities and bounds select something.
    std::string value_of(const Col& c) {
        const rdb::Table& table = db_.require(c.table);
        if (table.row_count() == 0 || pick(20) == 0) return "NULL";
        Value v = table.row(static_cast<rdb::RowId>(pick(table.row_count())))
                      [static_cast<std::size_t>(c.index)];
        if (v.type() == ValueType::kInteger && pick(3) == 0)
            v = Value(v.as_integer() + static_cast<std::int64_t>(pick(5)) - 2);
        return literal(v);
    }

    std::string pattern(const Col& c) {
        const rdb::Table& table = db_.require(c.table);
        std::string text = "x";
        if (table.row_count() > 0) {
            Value v = table.row(static_cast<rdb::RowId>(
                pick(table.row_count())))[static_cast<std::size_t>(c.index)];
            if (v.type() == ValueType::kText && !v.as_text().empty())
                text = v.as_text();
        }
        switch (pick(3)) {
            case 0: return quote(text.substr(0, 1) + "%");
            case 1: return quote("%" + text.substr(text.size() - 1));
            default: return quote("_%");
        }
    }

    std::string op() {
        static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
        return kOps[pick(6)];
    }

    std::size_t pick(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

private:
    const rdb::Database& db_;
    std::mt19937_64& rng_;

    static int index_of(const Join& j, const std::string& table) {
        for (std::size_t i = 0; i < j.tables.size(); ++i)
            if (j.tables[i] == table) return static_cast<int>(i);
        return -1;
    }
};

class Metamorphic : public ::testing::Test {
protected:
    test::Stack stack{gen::paper_dtd()};

    void SetUp() override {
        for (const auto& doc : gen::bibliography_corpus(12, 300, 17))
            stack.loader->load(*doc);
        stack.db.analyze();
    }

    /// Execute with the planner on and off; the two must agree.
    sql::ResultSet run(const std::string& sql_text) {
        sql::PlannerOptions off;
        off.enable = false;
        ++executed;
        sql::ResultSet on, as_written;
        try {
            on = sql::execute(stack.db, sql_text);
            as_written = sql::execute(stack.db, sql_text, nullptr, {}, &off);
        } catch (const Error& e) {
            ADD_FAILURE() << sql_text << "\n  threw: " << e.what();
            return on;
        }
        EXPECT_EQ(rows_of(on), rows_of(as_written))
            << "planner on vs off: " << sql_text;
        return on;
    }

    std::int64_t count(const std::string& sql_text) {
        sql::ResultSet rs = run(sql_text);
        return rs.rows.empty() ? -1 : rs.scalar().as_integer();
    }

    std::size_t executed = 0;
};

TEST_F(Metamorphic, TlpAndNorecHoldOverRandomJoins) {
    const std::uint64_t seed = env_or("XMLREL_FUZZ_SEED", 20261020);
    const std::uint64_t iters = env_or("XMLREL_FUZZ_ITERS", 150);
    std::cout << "[sql-metamorphic] base seed " << seed
              << " (override with XMLREL_FUZZ_SEED), " << iters
              << " iterations\n";
    std::mt19937_64 rng(seed);
    Generator gen(stack.db, rng);

    std::size_t range_stages = 0, containment = 0, both = 0, reordered = 0,
                grouped = 0, distinct = 0, rows_checked = 0;
    for (std::uint64_t it = 0; it < iters && !HasFailure(); ++it) {
        Join j = gen.join();
        std::string p = gen.predicate(j, 2);
        if (!j.edge_for_p.empty())
            p = j.edge_for_p + (gen.pick(2) == 0 ? "" : " AND (" + p + ")");
        SCOPED_TRACE("seed " + std::to_string(seed) + " iteration " +
                     std::to_string(it) + ": FROM " + j.from +
                     (j.where.empty() ? "" : " WHERE " + j.where) +
                     " / p = " + p);
        auto where = [&](const std::string& part) {
            if (part.empty())
                return j.where.empty() ? std::string() : " WHERE " + j.where;
            return " WHERE " +
                   (j.where.empty() ? part : "(" + j.where + ") AND " + part);
        };
        const std::string parts[] = {"(" + p + ")", "NOT (" + p + ")",
                                     "(" + p + ") IS NULL"};
        containment += j.containment;
        both += j.eq_in_on_and_where;

        // What the planner makes of the join (coverage, not an oracle).
        sql::SelectStmt stmt =
            sql::parse_select("SELECT COUNT(*) FROM " + j.from + where(""));
        sql::PlanInfo plan = sql::plan_select(stack.db, stmt);
        ASSERT_TRUE(plan.planned) << j.from;
        reordered += plan.reordered;
        for (std::size_t s = 1; s < plan.stages.size(); ++s)
            range_stages += plan.stages[s].path == sql::AccessPath::kRange;

        // TLP on COUNT(*) and NoREC.
        const std::string from = " FROM " + j.from;
        std::int64_t all = count("SELECT COUNT(*)" + from + where(""));
        std::int64_t sum = 0;
        for (const auto& part : parts)
            sum += count("SELECT COUNT(*)" + from + where(part));
        EXPECT_EQ(sum, all);
        std::int64_t truthy = 0;
        for (const auto& row :
             run("SELECT " + parts[0] + from + where("")).rows)
            truthy += !row[0].is_null() && row[0].type() == ValueType::kInteger &&
                      row[0].as_integer() == 1;
        EXPECT_EQ(count("SELECT COUNT(*)" + from + where(parts[0])), truthy)
            << "NoREC";

        switch (gen.pick(3)) {
            case 0: {  // TLP on the rows themselves
                std::string cols = gen.column(j).name + ", " + gen.column(j).name;
                std::vector<std::string> expect =
                    rows_of(run("SELECT " + cols + from + where("")));
                std::vector<std::string> got;
                for (const auto& part : parts) {
                    auto rows = rows_of(run("SELECT " + cols + from + where(part)));
                    got.insert(got.end(), rows.begin(), rows.end());
                }
                std::sort(got.begin(), got.end());
                EXPECT_EQ(got, expect);
                ++rows_checked;
                break;
            }
            case 1: {  // TLP on GROUP BY counts
                std::string g = gen.column(j).name;
                auto groups = [&](const std::string& w) {
                    std::map<std::string, std::int64_t> out;
                    for (const auto& row :
                         run("SELECT " + g + ", COUNT(*)" + from + w +
                             " GROUP BY " + g)
                             .rows)
                        out[row[0].is_null() ? "∅" : row[0].to_string()] +=
                            row[1].as_integer();
                    return out;
                };
                std::map<std::string, std::int64_t> expect = groups(where(""));
                std::map<std::string, std::int64_t> got;
                for (const auto& part : parts)
                    for (const auto& [k, n] : groups(where(part))) got[k] += n;
                EXPECT_EQ(got, expect);
                ++grouped;
                break;
            }
            default: {  // TLP on COUNT(DISTINCT c)
                std::string c = gen.column(j).name;
                std::int64_t expect =
                    count("SELECT COUNT(DISTINCT " + c + ")" + from + where(""));
                std::set<std::string> got;
                for (const auto& part : parts)
                    for (const auto& row :
                         run("SELECT DISTINCT " + c + from + where(part)).rows)
                        if (!row[0].is_null()) got.insert(row[0].to_string());
                EXPECT_EQ(static_cast<std::int64_t>(got.size()), expect);
                ++distinct;
                break;
            }
        }
    }
    std::cout << "[sql-metamorphic] " << executed << " statements x2 ("
              << containment << " containment joins, " << range_stages
              << " joined range stages, " << both
              << " with equalities in ON and WHERE, " << reordered
              << " reordered; " << rows_checked << " row, " << grouped
              << " GROUP BY, " << distinct << " COUNT(DISTINCT) partitions)\n";
    if (HasFailure()) return;
    // The generator must reach the shapes this oracle exists for.
    EXPECT_GT(containment, iters / 10);
    EXPECT_GT(range_stages, 0u);
    EXPECT_GT(both, iters / 10);
    EXPECT_GT(reordered, 0u);
    EXPECT_GT(grouped, 0u);
    EXPECT_GT(distinct, 0u);
}

}  // namespace
}  // namespace xr
