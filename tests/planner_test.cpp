// Cost-based planner (DESIGN.md §13): the KMV distinct-count sketch,
// incremental vs full-rebuild statistics, epoch bumps, persistence of
// the xrel_stats catalog through snapshot + WAL recovery, golden plan
// shapes from plan_select(), planner-on/off result equivalence, plan
// cache invalidation by statistics epoch, and that execution runs the
// access paths the plan prints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gen/corpora.hpp"
#include "helpers.hpp"
#include "rdb/snapshot.hpp"
#include "rdb/stats.hpp"
#include "sql/executor.hpp"
#include "sql/parser.hpp"
#include "sql/planner.hpp"
#include "xquery/plan_cache.hpp"
#include "xquery/query.hpp"
#include "xquery/sql_translate.hpp"

namespace xr {
namespace {

using rdb::Value;

TEST(NdvSketch, ExactBelowK) {
    rdb::NdvSketch s;
    for (int pass = 0; pass < 3; ++pass)  // duplicates must not inflate
        for (int i = 0; i < 200; ++i) s.add(Value(i));
    EXPECT_EQ(s.estimate(), 200u);
}

TEST(NdvSketch, EstimateWithinFifteenPercentAtScale) {
    rdb::NdvSketch s;
    constexpr std::int64_t kDistinct = 50000;
    for (std::int64_t i = 0; i < kDistinct; ++i) s.add(Value(i));
    std::uint64_t est = s.estimate();
    EXPECT_GT(est, static_cast<std::uint64_t>(kDistinct * 0.85));
    EXPECT_LT(est, static_cast<std::uint64_t>(kDistinct * 1.15));
}

TEST(NdvSketch, NullsAndClear) {
    rdb::NdvSketch s;
    EXPECT_TRUE(s.empty());
    s.add(Value(1));
    s.add(Value("x"));
    EXPECT_EQ(s.estimate(), 2u);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.estimate(), 0u);
}

/// The set-based KMV sketch the flat-buffer NdvSketch replaced, kept as
/// the reference its estimates must equal.
class SetSketch {
public:
    explicit SetSketch(std::size_t k) : k_(k) {}
    void add_hash(std::uint64_t h) {
        if (mins_.size() < k_) {
            mins_.insert(h);
            return;
        }
        if (h >= *mins_.rbegin()) return;
        if (mins_.insert(h).second) mins_.erase(std::prev(mins_.end()));
    }
    [[nodiscard]] std::uint64_t estimate() const {
        if (mins_.size() < k_) return mins_.size();
        double kth = static_cast<double>(*mins_.rbegin());
        if (kth <= 0.0) return mins_.size();
        double est =
            (static_cast<double>(k_) - 1.0) * 18446744073709551616.0 / kth;
        return est < 1.0 ? 1 : static_cast<std::uint64_t>(est);
    }

private:
    std::size_t k_;
    std::set<std::uint64_t> mins_;
};

// Randomized equivalence: over seeded streams of mixed values with heavy
// duplication and several capacities, the flat sorted buffer reports
// exactly the estimate of the std::set implementation after every add.
TEST(NdvSketch, FlatBufferMatchesSetReference) {
    const std::uint64_t seed =
        std::getenv("XMLREL_FUZZ_SEED") != nullptr
            ? std::strtoull(std::getenv("XMLREL_FUZZ_SEED"), nullptr, 10)
            : 20260901;
    std::mt19937_64 rng(seed);
    for (std::size_t k : {1u, 2u, 7u, 64u, 256u}) {
        for (int stream = 0; stream < 4; ++stream) {
            rdb::NdvSketch flat(k);
            SetSketch ref(k);
            std::uint64_t domain = 1 + rng() % 5000;
            for (int i = 0; i < 3000; ++i) {
                Value v;
                switch (rng() % 3) {
                    case 0:
                        v = Value(static_cast<std::int64_t>(rng() % domain));
                        break;
                    case 1: v = Value("s" + std::to_string(rng() % domain)); break;
                    default:
                        v = Value(static_cast<double>(rng() % domain) + 0.5);
                }
                flat.add(v);
                ref.add_hash(rdb::NdvSketch::hash(v));
                ASSERT_EQ(flat.estimate(), ref.estimate())
                    << "seed " << seed << " k " << k << " stream " << stream
                    << " add " << i;
            }
        }
    }
}

// Hand-built skewed schema: `big` (2000 rows, near-unique indexed `val`,
// 10-way `fk`) joining `small` (10 rows).  Written small-first, the only
// sargable predicate sits on the *last* join input — exactly the shape
// the path translator emits for tail predicates.
class PlannerFixture : public ::testing::Test {
protected:
    rdb::Database db;

    void SetUp() override {
        sql::execute(db,
                     "CREATE TABLE small (pk INTEGER PRIMARY KEY, tag TEXT)");
        sql::execute(
            db, "CREATE TABLE big (pk INTEGER PRIMARY KEY, fk INTEGER, "
                "val TEXT, note TEXT)");
        for (int i = 0; i < 10; ++i)
            sql::execute(db, "INSERT INTO small VALUES (" +
                                 std::to_string(i) + ", 'g" +
                                 std::to_string(i) + "')");
        for (int base = 0; base < 2000; base += 100) {
            std::string ins = "INSERT INTO big (fk, val, note) VALUES ";
            for (int i = base; i < base + 100; ++i) {
                if (i != base) ins += ", ";
                std::string val =
                    i == 1234 ? "needle" : "v" + std::to_string(i);
                ins += "(" + std::to_string(i % 10) + ", '" + val + "', " +
                       (i % 4 == 0 ? "NULL" : "'n'") + ")";
            }
            sql::execute(db, ins);
        }
        sql::execute(db, "CREATE INDEX ON big (val)");
    }
};

TEST_F(PlannerFixture, AnalyzeRebuildsAccurateStats) {
    rdb::AnalyzeReport report = db.analyze();
    EXPECT_EQ(report.tables, 2u);  // the xrel_stats catalog is excluded
    EXPECT_NE(db.table(rdb::Database::kStatsTable), nullptr);
    EXPECT_FALSE(report.persisted);  // in-memory database

    const rdb::TableStats& st = db.require("big").stats();
    ASSERT_EQ(st.columns.size(), 4u);
    EXPECT_EQ(st.rows, 2000u);
    EXPECT_FALSE(st.stale);
    const rdb::ColumnStats& fk = st.columns[1];
    EXPECT_EQ(fk.ndv(), 10u);  // exact below the sketch's k
    EXPECT_EQ(fk.min.as_integer(), 0);
    EXPECT_EQ(fk.max.as_integer(), 9);
    EXPECT_EQ(fk.nulls, 0u);
    const rdb::ColumnStats& val = st.columns[2];
    EXPECT_GT(val.ndv(), 1700u);
    EXPECT_LT(val.ndv(), 2300u);
    EXPECT_EQ(st.columns[3].nulls, 500u);  // note NULL every 4th row
}

TEST_F(PlannerFixture, ReordersToDriveFromSelectiveIndex) {
    db.analyze();
    sql::SelectStmt stmt = sql::parse_select(
        "SELECT s.tag FROM small s JOIN big b ON b.fk = s.pk "
        "WHERE b.val = 'needle'");
    sql::PlanInfo info = sql::plan_select(db, stmt);
    ASSERT_TRUE(info.planned);
    EXPECT_TRUE(info.reordered);
    EXPECT_EQ(info.shape(), "index_eq(b.val) probe(s.pk)");
    EXPECT_LT(info.est_rows, 10.0);  // near-unique predicate
    EXPECT_EQ(info.stats_epoch, db.stats_epoch());
    // EXPLAIN rendering carries the cost columns.
    std::string text = info.to_string();
    EXPECT_NE(text.find("cost="), std::string::npos);
    EXPECT_NE(text.find("(reordered)"), std::string::npos);
    EXPECT_NE(text.find("index_eq"), std::string::npos);

    // The reordered statement still computes the right answer: row 1234
    // has fk = 1234 % 10 = 4, and small.pk 4 carries tag 'g4'.
    sql::ResultSet rs = sql::execute_select(db, stmt);
    ASSERT_EQ(rs.row_count(), 1u);
    EXPECT_EQ(rs.rows[0][0].as_text(), "g4");
}

TEST_F(PlannerFixture, AsWrittenOrderKeptWhenAlreadyBest) {
    db.analyze();
    sql::SelectStmt stmt = sql::parse_select(
        "SELECT b.pk FROM big b JOIN small s ON b.fk = s.pk "
        "WHERE b.val = 'needle'");
    sql::PlanInfo info = sql::plan_select(db, stmt);
    ASSERT_TRUE(info.planned);
    EXPECT_FALSE(info.reordered);
    EXPECT_EQ(info.shape(), "index_eq(b.val) probe(s.pk)");
    EXPECT_EQ(info.to_string().find("(reordered)"), std::string::npos);
}

TEST_F(PlannerFixture, SelectStarIsCostedButNeverReordered) {
    db.analyze();
    // Driving from `big` would be cheaper, but the output column order
    // of SELECT * depends on the written table order — the pass costs
    // the statement for EXPLAIN yet must leave the order alone.
    sql::SelectStmt stmt = sql::parse_select(
        "SELECT * FROM small s JOIN big b ON b.fk = s.pk "
        "WHERE b.val = 'needle'");
    sql::PlanInfo info = sql::plan_select(db, stmt);
    EXPECT_TRUE(info.planned);
    EXPECT_FALSE(info.reordered);
    ASSERT_EQ(stmt.from.alias, "s");  // order untouched
}

TEST_F(PlannerFixture, PlannerOnAndOffAgree) {
    db.analyze();
    const char* kQueries[] = {
        "SELECT s.tag FROM small s JOIN big b ON b.fk = s.pk "
        "WHERE b.val = 'needle'",
        "SELECT s.tag, b.val FROM small s JOIN big b ON b.fk = s.pk "
        "WHERE b.pk < 25 ORDER BY b.pk",
        "SELECT COUNT(*) FROM small s JOIN big b ON b.fk = s.pk",
        "SELECT DISTINCT s.tag FROM small s JOIN big b ON b.fk = s.pk "
        "WHERE b.note IS NULL",
    };
    for (const char* q : kQueries) {
        sql::PlannerOptions on;
        sql::PlannerOptions off;
        off.enable = false;
        sql::SelectStmt s1 = sql::parse_select(q);
        sql::SelectStmt s2 = sql::parse_select(q);
        sql::ResultSet r1 = sql::execute_select(db, s1, nullptr, {}, &on);
        sql::ResultSet r2 = sql::execute_select(db, s2, nullptr, {}, &off);
        auto key = [](const rdb::Row& row) {
            std::string k;
            for (const Value& v : row) k += v.to_string() + "|";
            return k;
        };
        std::vector<std::string> a;
        std::vector<std::string> b;
        for (const auto& row : r1.rows) a.push_back(key(row));
        for (const auto& row : r2.rows) b.push_back(key(row));
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b) << q;
    }
}

TEST_F(PlannerFixture, AnalyzeBumpsEpoch) {
    std::uint64_t before = db.stats_epoch();
    db.analyze();
    std::uint64_t first = db.stats_epoch();
    EXPECT_GT(first, before);
    db.analyze();
    EXPECT_EQ(db.stats_epoch(), first + 1);
}

// Loading document-by-document (one commit unit each) must fold the same
// statistics a bulk load followed by analyze() computes.
TEST(PlannerStats, IncrementalFoldMatchesFullRebuild) {
    auto docs = gen::bibliography_corpus(40, 300, 7);
    test::Stack serial(gen::paper_dtd());
    for (const auto& doc : docs) serial.loader->load(*doc);

    test::Stack bulk(gen::paper_dtd());
    for (const auto& doc : docs) bulk.loader->load(*doc);
    bulk.db.analyze();

    for (const auto& name : serial.db.table_names()) {
        const rdb::Table& a = serial.db.require(name);
        const rdb::Table& b = bulk.db.require(name);
        const rdb::TableStats& sa = a.stats();
        const rdb::TableStats& sb = b.stats();
        EXPECT_EQ(sa.rows, a.row_count()) << name;
        EXPECT_EQ(sa.rows, sb.rows) << name;
        ASSERT_EQ(sa.columns.size(), sb.columns.size()) << name;
        for (std::size_t c = 0; c < sa.columns.size(); ++c) {
            EXPECT_EQ(sa.columns[c].nulls, sb.columns[c].nulls)
                << name << " col " << c;
            EXPECT_EQ(sa.columns[c].ndv(), sb.columns[c].ndv())
                << name << " col " << c;
            EXPECT_EQ(sa.columns[c].min.to_string(),
                      sb.columns[c].min.to_string())
                << name << " col " << c;
            EXPECT_EQ(sa.columns[c].max.to_string(),
                      sb.columns[c].max.to_string())
                << name << " col " << c;
        }
    }
}

TEST(PlannerStats, SurviveWalOnlyRecovery) {
    test::TempDir dir;
    std::uint64_t author_ndv = 0;
    std::uint64_t author_rows = 0;
    std::uint64_t epoch = 0;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        auto docs = gen::bibliography_corpus(20, 300, 7);
        for (const auto& doc : docs) stack.loader->load(*doc);
        rdb::AnalyzeReport report = stack.db.analyze();
        EXPECT_TRUE(report.persisted);
        const rdb::TableStats& st = stack.db.require("author").stats();
        author_rows = st.rows;
        ASSERT_GT(st.columns.size(), 0u);
        author_ndv = st.columns[0].ndv();
        epoch = report.epoch;  // the epoch the catalog persisted
        ASSERT_GT(author_rows, 0u);
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_TRUE(reopened.recovery.snapshot_path.empty());
    const rdb::TableStats& st = reopened.db.require("author").stats();
    EXPECT_EQ(st.rows, author_rows);
    EXPECT_EQ(st.rows, reopened.db.require("author").row_count());
    EXPECT_EQ(st.columns[0].ndv(), author_ndv);
    EXPECT_GE(reopened.db.stats_epoch(), epoch);
}

TEST(PlannerStats, SurviveCheckpointRecovery) {
    test::TempDir dir;
    std::uint64_t name_ndv = 0;
    std::uint64_t name_rows = 0;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        auto docs = gen::bibliography_corpus(20, 300, 7);
        for (const auto& doc : docs) stack.loader->load(*doc);
        stack.db.analyze();
        const rdb::TableStats& st = stack.db.require("name").stats();
        name_rows = st.rows;
        name_ndv = st.columns.back().ndv();
        (void)stack.db.checkpoint();
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_FALSE(reopened.recovery.snapshot_path.empty());
    const rdb::TableStats& st = reopened.db.require("name").stats();
    EXPECT_EQ(st.rows, name_rows);
    EXPECT_EQ(st.columns.back().ndv(), name_ndv);
}

TEST(PlannerCache, TranslationCacheKeyedByEpoch) {
    test::Stack stack(gen::paper_dtd());
    xquery::SqlTranslator translator(stack.mapping, stack.schema);
    xquery::TranslationCache cache(translator, 8);
    xquery::PathQuery q = xquery::parse_query("/article/author");

    (void)cache.get(q, 0);
    (void)cache.get(q, 0);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    // A bumped epoch must miss — stale plan shapes age out of the LRU.
    (void)cache.get(q, 1);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.size(), 2u);
}

// The plan EXPLAIN prints is the plan that runs.  `b` drives through its
// index on k, then `a` is probed through its index on x: the ON conjunct
// comes first in conjunct order, so the WHERE equality `b.w = a.z` (no
// index on z) stays a residual filter instead of forcing a hash build of
// all of `a`.
TEST(PlannerExecution, RunsThePrintedAccessPaths) {
    rdb::Database db;
    sql::execute(db, "CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER, "
                     "z INTEGER)");
    sql::execute(db, "CREATE TABLE b (id INTEGER PRIMARY KEY, y INTEGER, "
                     "w INTEGER, k INTEGER)");
    for (int base = 0; base < 2000; base += 100) {
        std::string ins_a = "INSERT INTO a (x, z) VALUES ";
        std::string ins_b = "INSERT INTO b (y, w, k) VALUES ";
        for (int i = base; i < base + 100; ++i) {
            std::string sep = i == base ? "" : ", ";
            ins_a += sep + "(" + std::to_string(i) + ", " +
                     std::to_string(i % 7) + ")";
            ins_b += sep + "(" + std::to_string(i) + ", " +
                     std::to_string(i % 7) + ", " + std::to_string(i) + ")";
        }
        sql::execute(db, ins_a);
        sql::execute(db, ins_b);
    }
    sql::execute(db, "CREATE INDEX ON a (x)");
    sql::execute(db, "CREATE INDEX ON b (k)");
    db.analyze();

    const std::string q =
        "SELECT a.id FROM a JOIN b ON b.y = a.x "
        "WHERE b.w = a.z AND b.k = 5";
    sql::SelectStmt stmt = sql::parse_select(q);
    sql::PlanInfo info = sql::plan_select(db, stmt);
    ASSERT_TRUE(info.planned);
    EXPECT_TRUE(info.reordered);
    EXPECT_EQ(info.shape(), "index_eq(b.k) probe(a.x)");

    sql::ExecStats stats;
    sql::ResultSet on = sql::execute_select(db, stmt, &stats);
    EXPECT_EQ(stats.hash_joins, 0u);
    EXPECT_EQ(stats.index_lookups, 2u);  // b.k = 5, then one probe of a.x

    sql::PlannerOptions off;
    off.enable = false;
    sql::ResultSet as_written = sql::execute(db, q, nullptr, {}, &off);
    ASSERT_EQ(on.row_count(), 1u);
    ASSERT_EQ(as_written.row_count(), 1u);
    EXPECT_EQ(on.rows[0][0].as_integer(), as_written.rows[0][0].as_integer());
}

}  // namespace
}  // namespace xr
