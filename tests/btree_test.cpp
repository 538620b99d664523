// Persistent B+Tree behind every table index (ctest label `index`,
// DESIGN.md §15).
//
// * Seeded insert / update / erase / bulk-build sequences against a
//   std::multimap model, for the (value, row id) secondary-index tree and
//   the int64 primary-key tree, including lower-bound probes.
// * A persistence oracle: every shared (published) tree and every
//   savepoint tree still enumerates exactly the contents it had when it
//   was taken, however many writes, savepoints and rollbacks follow.
// * Table-level rollback by root restore against a brute-force scan.
// * A machine-independent shape gate: index nodes copied per commit of a
//   serial paper-DTD load stay within 2x between document 64 and 1024.
//
// Replayable: the base seed prints at the start; override with
// XMLREL_FUZZ_SEED.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gen/corpora.hpp"
#include "helpers.hpp"
#include "rdb/database.hpp"
#include "rdb/table.hpp"

namespace xr {
namespace {

using rdb::IndexEntry;
using rdb::IndexProbe;
using rdb::IndexTree;
using rdb::PkTree;
using rdb::RowId;
using rdb::Value;

std::uint64_t base_seed() {
    static const std::uint64_t seed = [] {
        const char* v = std::getenv("XMLREL_FUZZ_SEED");
        std::uint64_t s = v != nullptr && *v != '\0'
                              ? std::strtoull(v, nullptr, 10)
                              : 20260913;
        std::cout << "[btree] base seed " << s
                  << " (override with XMLREL_FUZZ_SEED)\n";
        return s;
    }();
    return seed;
}

/// Mixed-type keys with many duplicates: NULLs, integers, reals that
/// equal integers, and short and long (heap-allocated) text.
Value random_value(std::mt19937_64& rng) {
    std::uint64_t r = rng() % 100;
    if (r < 5) return Value::null();
    if (r < 45) return Value(static_cast<std::int64_t>(rng() % 200));
    if (r < 55) return Value(static_cast<double>(rng() % 200));
    if (r < 65) return Value(static_cast<double>(rng() % 200) + 0.25);
    if (r < 90) return Value("k" + std::to_string(rng() % 150));
    return Value("a-much-longer-text-key-" + std::to_string(rng() % 50));
}

using Model = std::multimap<Value, RowId>;

/// The model's entries in (value, row id) order — a multimap keeps equal
/// keys in insertion order, the tree orders them by row id.
std::vector<std::pair<Value, RowId>> sorted_entries(const Model& m) {
    std::vector<std::pair<Value, RowId>> out;
    for (auto it = m.begin(); it != m.end();) {
        auto range = m.equal_range(it->first);
        std::vector<std::pair<Value, RowId>> equal(range.first, range.second);
        std::sort(equal.begin(), equal.end(),
                  [](const auto& a, const auto& b) { return a.second < b.second; });
        out.insert(out.end(), equal.begin(), equal.end());
        it = range.second;
    }
    return out;
}

std::vector<std::pair<Value, RowId>> enumerate(const IndexTree& t) {
    std::vector<std::pair<Value, RowId>> out;
    for (auto c = t.begin(); !c.done(); c.next()) out.emplace_back(c->key, c->row);
    return out;
}

bool same(const std::vector<std::pair<Value, RowId>>& a,
          const std::vector<std::pair<Value, RowId>>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!(a[i].first == b[i].first) || a[i].second != b[i].second ||
            a[i].first.type() != b[i].first.type())
            return false;
    return true;
}

/// Random op sequence on one (value, row) tree: inserts of fresh rows,
/// updates (erase old entry + insert new), erases, duplicate inserts,
/// absent erases and occasional bottom-up rebuilds, each checked against
/// the model — full enumeration every few ops, probes every op.
TEST(BTree, IndexTreeMatchesMultimap) {
    for (std::uint64_t round = 0; round < 6; ++round) {
        const std::uint64_t seed = base_seed() + round;
        std::mt19937_64 rng(seed);
        IndexTree tree;
        Model model;
        std::map<RowId, Value> current;  // row -> its value in the model
        RowId next_row = 0;
        auto model_erase = [&](RowId row) {
            auto range = model.equal_range(current.at(row));
            for (auto it = range.first; it != range.second; ++it)
                if (it->second == row) {
                    model.erase(it);
                    break;
                }
            current.erase(row);
        };
        const int ops = round < 3 ? 4000 : 1500;
        for (int op = 0; op < ops; ++op) {
            std::uint64_t kind = rng() % 100;
            // Append-heavy phases exercise the rightmost fast path.
            bool ascending = (op / 500) % 2 == 1;
            if (kind < 55 || current.empty()) {
                Value v = ascending ? Value(static_cast<std::int64_t>(1000 + op))
                                    : random_value(rng);
                RowId row = next_row++;
                ASSERT_TRUE(tree.insert({v, row})) << "seed " << seed;
                model.emplace(v, row);
                current[row] = v;
            } else if (kind < 75) {
                auto it = current.begin();
                std::advance(it, static_cast<long>(rng() % current.size()));
                RowId row = it->first;
                Value old = it->second;
                Value v = random_value(rng);
                ASSERT_TRUE(tree.erase({old, row})) << "seed " << seed;
                ASSERT_TRUE(tree.insert({v, row})) << "seed " << seed;
                model_erase(row);
                model.emplace(v, row);
                current[row] = v;
            } else if (kind < 93) {
                auto it = current.begin();
                std::advance(it, static_cast<long>(rng() % current.size()));
                ASSERT_TRUE(tree.erase({it->second, it->first})) << "seed " << seed;
                model_erase(it->first);
            } else if (kind < 96) {
                auto it = current.begin();
                std::advance(it, static_cast<long>(rng() % current.size()));
                EXPECT_FALSE(tree.insert({it->second, it->first}))
                    << "duplicate accepted, seed " << seed;
                EXPECT_FALSE(tree.erase({random_value(rng), next_row + 7}))
                    << "absent entry erased, seed " << seed;
            } else if (kind < 98) {
                std::vector<IndexEntry> run;
                for (const auto& [v, row] : sorted_entries(model))
                    run.push_back({v, row});
                tree.assign_sorted(std::move(run));
            } else if (!ascending && rng() % 4 == 0) {
                tree.assign_sorted({});
                model.clear();
                current.clear();
            }
            ASSERT_EQ(tree.size(), model.size()) << "seed " << seed;

            // Probe: the rows of one value, via lower_bound, ascending.
            Value probe = random_value(rng);
            std::vector<RowId> got, want;
            for (auto c = tree.lower_bound(IndexProbe{&probe, 0});
                 !c.done() && c->key == probe; c.next())
                got.push_back(c->row);
            auto range = model.equal_range(probe);
            for (auto it = range.first; it != range.second; ++it)
                want.push_back(it->second);
            std::sort(want.begin(), want.end());
            ASSERT_EQ(got, want) << "seed " << seed << " op " << op;

            if (op % 97 == 0) {
                ASSERT_TRUE(same(enumerate(tree), sorted_entries(model)))
                    << "seed " << seed << " op " << op;
            }
        }
        ASSERT_TRUE(same(enumerate(tree), sorted_entries(model))) << "seed " << seed;
    }
}

TEST(BTree, PkTreeMatchesMap) {
    const std::uint64_t seed = base_seed() + 100;
    std::mt19937_64 rng(seed);
    PkTree tree;
    std::map<std::int64_t, RowId> model;
    std::int64_t next = 1;
    for (int op = 0; op < 20000; ++op) {
        std::uint64_t kind = rng() % 100;
        if (kind < 60) {  // mostly-ascending keys, like auto-increment pks
            std::int64_t key = next++;
            ASSERT_TRUE(tree.insert({key, static_cast<RowId>(op)}));
            model[key] = static_cast<RowId>(op);
        } else if (kind < 80) {  // keys reserved out of order (bulk ranges)
            auto key = static_cast<std::int64_t>(rng() % 40000) + 100000;
            bool fresh = model.emplace(key, static_cast<RowId>(op)).second;
            ASSERT_EQ(tree.insert({key, static_cast<RowId>(op)}), fresh);
        } else if (!model.empty()) {
            auto it = model.lower_bound(static_cast<std::int64_t>(rng() % 140000));
            if (it == model.end()) continue;
            ASSERT_TRUE(tree.erase({it->first, 0}));
            model.erase(it);
        }
        auto key = static_cast<std::int64_t>(rng() % 140000);
        const rdb::PkEntry* e = tree.find(key);
        auto it = model.find(key);
        ASSERT_EQ(e != nullptr, it != model.end()) << "seed " << seed;
        if (e != nullptr) {
            ASSERT_EQ(e->row, it->second);
        }
    }
    ASSERT_EQ(tree.size(), model.size());
    auto it = model.begin();
    for (auto c = tree.begin(); !c.done(); c.next(), ++it) {
        ASSERT_NE(it, model.end());
        ASSERT_EQ(c->key, it->first);
        ASSERT_EQ(c->row, it->second);
    }
    EXPECT_EQ(it, model.end());
}

// Persistence oracle.  Every share() (a published version) is kept with
// the contents it had; savepoints nest and are either committed (popped)
// or rolled back (restored).  After every op, the live tree matches the
// model, and at the end every version and every savepoint ever taken
// still enumerates exactly its own contents.
TEST(BTree, SharedAndSavepointTreesNeverChange) {
    const std::uint64_t seed = base_seed() + 200;
    std::mt19937_64 rng(seed);
    using Contents = std::vector<std::pair<Value, RowId>>;
    IndexTree live;
    Model model;
    RowId next_row = 0;
    std::vector<std::pair<IndexTree, Contents>> published;
    struct Savepoint {
        IndexTree tree;
        Model model;
    };
    std::vector<Savepoint> savepoints;
    std::vector<std::pair<IndexTree, Contents>> checked_savepoints;

    for (int op = 0; op < 3000; ++op) {
        std::uint64_t kind = rng() % 100;
        if (kind < 60 || model.empty()) {
            Value v = random_value(rng);
            RowId row = next_row++;
            live.insert({v, row});
            model.emplace(v, row);
        } else if (kind < 72) {
            auto it = model.begin();
            std::advance(it, static_cast<long>(rng() % model.size()));
            ASSERT_TRUE(live.erase({it->first, it->second}));
            model.erase(it);
        } else if (kind < 82) {
            published.emplace_back(live.share(), sorted_entries(model));
        } else if (kind < 90) {
            savepoints.push_back({live.share(), model});
        } else if (kind < 95 && !savepoints.empty()) {
            // Commit: the frame folds away; its tree is still a valid
            // snapshot of the moment it was taken.
            checked_savepoints.emplace_back(std::move(savepoints.back().tree),
                                            sorted_entries(savepoints.back().model));
            savepoints.pop_back();
        } else if (!savepoints.empty()) {
            // Rollback: keep a second share of the savepoint for the final
            // check, then restore the live tree to it.
            Savepoint sp = std::move(savepoints.back());
            savepoints.pop_back();
            live.restore(std::move(sp.tree));
            model = std::move(sp.model);
            checked_savepoints.emplace_back(live.share(), sorted_entries(model));
        }
        ASSERT_EQ(live.size(), model.size()) << "seed " << seed << " op " << op;
        if (op % 50 == 0) {
            ASSERT_TRUE(same(enumerate(live), sorted_entries(model)))
                << "seed " << seed << " op " << op;
        }
    }
    ASSERT_TRUE(same(enumerate(live), sorted_entries(model)));
    for (std::size_t i = 0; i < published.size(); ++i)
        ASSERT_TRUE(same(enumerate(published[i].first), published[i].second))
            << "published version " << i << " changed, seed " << seed;
    for (std::size_t i = 0; i < checked_savepoints.size(); ++i)
        ASSERT_TRUE(same(enumerate(checked_savepoints[i].first),
                         checked_savepoints[i].second))
            << "savepoint " << i << " changed, seed " << seed;
    for (const Savepoint& sp : savepoints)
        ASSERT_TRUE(same(enumerate(sp.tree), sorted_entries(sp.model)))
            << "open savepoint changed, seed " << seed;
    // Writes after a share copied nodes instead of touching shared ones.
    EXPECT_GT(live.nodes_cowed(), 0u);
}

// Writes between shares copy only the touched path: one insert into a
// large shared tree copies exactly its height in nodes, and a second
// insert under the same epoch copies nothing more.
TEST(BTree, OneWriteCopiesOnePath) {
    PkTree tree;
    std::vector<rdb::PkEntry> run;
    for (std::int64_t k = 0; k < 100000; ++k)
        run.push_back({k * 2, static_cast<RowId>(k)});
    tree.assign_sorted(std::move(run));
    PkTree version = tree.share();
    ASSERT_TRUE(tree.insert({5001, 1}));
    std::uint64_t path = tree.nodes_cowed();
    EXPECT_GE(path, 2u);
    EXPECT_LE(path, 4u);  // 100k / 64-entry nodes: height 3
    ASSERT_TRUE(tree.insert({5003, 2}));
    EXPECT_EQ(tree.nodes_cowed(), path);
    EXPECT_EQ(tree.trees_cowed(), 1u);
    EXPECT_EQ(version.size(), 100000u);
    EXPECT_EQ(version.find(std::int64_t{5001}), nullptr);
    EXPECT_NE(tree.find(std::int64_t{5001}), nullptr);
}

// Table-level units: rollback restores the savepoint's index trees, so
// hash and ordered lookups agree with a scan of the surviving rows after
// any mix of committed and rolled-back nested units, and a frozen clone
// published mid-way keeps answering from its own rows.
TEST(BTree, TableRollbackRestoresIndexes) {
    const std::uint64_t seed = base_seed() + 300;
    std::mt19937_64 rng(seed);
    rdb::TableDef def;
    def.name = "t";
    def.columns = {{"id", rdb::ValueType::kInteger, true, true},
                   {"h", rdb::ValueType::kText, false, false},
                   {"o", rdb::ValueType::kInteger, false, false}};
    rdb::Table t(def);
    t.create_index("h", rdb::IndexKind::kHash);
    t.create_index("o", rdb::IndexKind::kOrdered);
    auto check = [&](const rdb::Table& tab, const char* where) {
        for (int probe = 0; probe < 20; ++probe) {
            Value h("h" + std::to_string(rng() % 30));
            std::vector<RowId> scan;
            for (RowId id = 0; id < tab.row_count(); ++id)
                if (tab.row(id)[1] == h) scan.push_back(id);
            ASSERT_EQ(tab.index_lookup("h", h), scan) << where << " seed " << seed;
            Value lo(static_cast<std::int64_t>(rng() % 100));
            Value hi(static_cast<std::int64_t>(rng() % 100));
            std::vector<RowId> range_scan;
            for (RowId id = 0; id < tab.row_count(); ++id) {
                const Value& o = tab.row(id)[2];
                if (!o.is_null() && !(o < lo) && !(hi < o)) range_scan.push_back(id);
            }
            ASSERT_EQ(tab.index_range_lookup("o", &lo, false, &hi, false),
                      range_scan)
                << where << " seed " << seed;
        }
        rdb::IntegrityReport report;
        tab.verify_into(report);
        ASSERT_TRUE(report.clean()) << where << ": " << report.to_string();
    };
    auto insert_some = [&](int n) {
        for (int i = 0; i < n; ++i) {
            Value o = rng() % 10 == 0 ? Value::null()
                                      : Value(static_cast<std::int64_t>(rng() % 100));
            t.insert({Value::null(), Value("h" + std::to_string(rng() % 30)), o});
        }
    };
    auto update_some = [&](int n) {
        for (int i = 0; i < n && t.row_count() > 0; ++i) {
            auto id = static_cast<RowId>(rng() % t.row_count());
            if (rng() % 2 == 0)
                t.update(id, "h", Value("h" + std::to_string(rng() % 30)));
            else
                t.update(id, "o", Value(static_cast<std::int64_t>(rng() % 100)));
        }
    };
    for (int round = 0; round < 40; ++round) {
        t.begin_unit();
        insert_some(static_cast<int>(rng() % 60));
        update_some(static_cast<int>(rng() % 20));
        std::shared_ptr<const rdb::Table> frozen;
        t.begin_unit();
        insert_some(static_cast<int>(rng() % 60));
        update_some(static_cast<int>(rng() % 20));
        if (rng() % 2 == 0) t.rollback_unit();
        else t.commit_unit();
        check(t, "after inner unit");
        if (rng() % 3 == 0) {
            t.rollback_unit();
        } else {
            t.commit_unit();
            frozen = t.publish();
        }
        check(t, "after outer unit");
        if (frozen != nullptr) {
            std::size_t rows = frozen->row_count();
            t.begin_unit();
            insert_some(10);
            update_some(10);
            t.rollback_unit();
            EXPECT_EQ(frozen->row_count(), rows);
            check(*frozen, "frozen clone");
        }
    }
}

// Shape gate: per-commit index node copies are O(change · height), so a
// serial paper-DTD load copies about as many nodes per commit at
// document 1024 as at document 64 (the height grows by at most one
// level).  Under per-commit whole-index cloning the ratio was ~16x.
TEST(BTree, NodesCopiedPerCommitStayFlat) {
    constexpr std::size_t kWindow = 16;
    constexpr std::size_t kEarly = 64;
    constexpr std::size_t kLate = 1024;
    test::Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(kLate + kWindow, 40, 7);
    auto per_commit = [&](std::size_t from) {
        std::uint64_t before = stack.db.mvcc_stats().index_nodes_cowed;
        for (std::size_t i = from; i < from + kWindow; ++i)
            stack.loader->load(*corpus[i]);
        return static_cast<double>(stack.db.mvcc_stats().index_nodes_cowed -
                                   before) /
               kWindow;
    };
    for (std::size_t i = 0; i < kEarly; ++i) stack.loader->load(*corpus[i]);
    double early = per_commit(kEarly);
    for (std::size_t i = kEarly + kWindow; i < kLate; ++i)
        stack.loader->load(*corpus[i]);
    double late = per_commit(kLate);
    std::cout << "[btree] index nodes copied per commit: " << early
              << " at doc " << kEarly << ", " << late << " at doc " << kLate
              << "\n";
    EXPECT_GT(early, 0.0);
    EXPECT_LE(late, 2.0 * early);
}

}  // namespace
}  // namespace xr
