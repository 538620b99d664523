// Concurrent serving tests: readers racing loads and checkpoints, cache
// invalidation at commit boundaries, and ExecStats accuracy under
// concurrent execution.  This file (ctest label `concurrency`) plus the
// differential fuzzer (label `query`) form the TSan lane driven by
// scripts/sanitize_lane.sh.
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/corpora.hpp"
#include "helpers.hpp"
#include "query/service.hpp"
#include "rdb/snapshot.hpp"
#include "sql/executor.hpp"

namespace xr {
namespace {

using test::DurableStack;
using test::Stack;
using test::TempDir;

std::int64_t count_of(const query::QueryService::Result& rs) {
    return rs->scalar().as_integer();
}

// Readers issue snapshot queries while the single writer commits one
// document per unit.  Every observed count must be a committed boundary
// value (0..total documents) and must be monotone per reader — a reader
// can never see a partially loaded document or time travel backwards.
TEST(ConcurrentQuery, ReadersRaceDocumentLoads) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(24, 60, 42);
    query::QueryService service(stack.db, stack.mapping, stack.schema, {});

    // Bounded reader loops (not a spin-until-done flag): the platform
    // rwlock may prefer readers, and unbounded re-acquisition could
    // starve the loading thread on a small machine.
    constexpr int kReaders = 4;
    constexpr int kReadsEach = 200;
    std::vector<std::vector<std::int64_t>> seen(kReaders);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r)
        readers.emplace_back([&, r] {
            for (int i = 0; i < kReadsEach; ++i)
                seen[r].push_back(count_of(service.path("count(/article)")));
        });

    for (auto& doc : corpus) stack.loader->load(*doc);
    for (auto& t : readers) t.join();

    std::int64_t final_count = count_of(service.path("count(/article)"));
    EXPECT_GT(final_count, 0);
    for (int r = 0; r < kReaders; ++r) {
        std::int64_t prev = 0;
        for (std::int64_t c : seen[r]) {
            EXPECT_GE(c, prev) << "reader " << r << " went backwards";
            EXPECT_LE(c, final_count);
            prev = c;
        }
    }
}

// Same race, with a durable database and checkpoints interleaved: the
// checkpoint's exclusive latch must wait out in-flight readers and never
// let one observe a half-written state.
TEST(ConcurrentQuery, ReadersRaceCheckpoints) {
    TempDir dir;
    DurableStack stack(gen::paper_dtd(), dir.path());
    auto corpus = gen::bibliography_corpus(12, 50, 7);
    query::QueryService service(stack.db, stack.mapping, stack.schema, {});

    std::atomic<std::uint64_t> reads{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r)
        readers.emplace_back([&] {
            for (int i = 0; i < 150; ++i) {
                auto rs = service.sql("SELECT COUNT(*) FROM article");
                EXPECT_GE(rs->scalar().as_integer(), 0);
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });

    for (std::size_t i = 0; i < corpus.size(); ++i) {
        stack.loader->load(*corpus[i]);
        if (i % 4 == 3) stack.db.checkpoint();
    }
    for (auto& t : readers) t.join();
    EXPECT_EQ(reads.load(), 3u * 150);
}

// A commit must invalidate affected cached results: hit before, miss (with
// an invalidation) after, and the re-executed query sees the new state.
TEST(ConcurrentQuery, CommitInvalidatesCachedResults) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(3, 60, 9);
    stack.loader->load(*corpus[0]);
    query::QueryService service(stack.db, stack.mapping, stack.schema, {});

    std::int64_t before = count_of(service.path("count(/article)"));
    EXPECT_EQ(count_of(service.path("count(/article)")), before);
    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.result_cache.hits, 1u);
    EXPECT_EQ(st.result_cache.misses, 1u);
    EXPECT_EQ(st.result_cache.invalidated, 0u);
    EXPECT_EQ(st.plan_cache.hits, 0u);  // the hit never reached translation

    stack.loader->load(*corpus[1]);  // outermost commit → watermark bump

    std::int64_t after = count_of(service.path("count(/article)"));
    EXPECT_GT(after, before) << "reader did not see the committed load";
    st = service.stats();
    EXPECT_EQ(st.result_cache.invalidated, 1u);
    EXPECT_EQ(st.result_cache.misses, 2u);

    // Unchanged state again serves from cache.
    EXPECT_EQ(count_of(service.path("count(/article)")), after);
    EXPECT_EQ(service.stats().result_cache.hits, 2u);
}

// The same across submissions: the second submit_path of one text after
// a commit is a miss with one invalidation, executed by a worker, and
// returns the new count; the third is answered at admission again.
TEST(ConcurrentQuery, CommitBetweenSubmissionsInvalidates) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(2, 60, 5);
    stack.loader->load(*corpus[0]);
    query::ServiceOptions opts;
    opts.threads = 1;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);

    std::int64_t before = count_of(service.submit_path("count(/article)").get());
    stack.loader->load(*corpus[1]);
    std::int64_t after = count_of(service.submit_path("count(/article)").get());
    EXPECT_EQ(after, before + 1);
    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.result_cache.invalidated, 1u);
    EXPECT_EQ(st.result_cache.misses, 2u);
    EXPECT_EQ(st.result_cache.hits, 0u);

    EXPECT_EQ(count_of(service.submit_path("count(/article)").get()), after);
    st = service.stats();
    EXPECT_EQ(st.result_cache.hits, 1u);
    EXPECT_EQ(st.result_cache.misses, 2u);
    EXPECT_EQ(st.path_queries, 3u);
    EXPECT_EQ(st.overload.admitted, 3u);
}

// Counting rules: every served query is exactly one hit or one miss,
// whichever entry point served it; a write through sql() is neither.
TEST(ConcurrentQuery, EachServedQueryCountsOneHitOrMiss) {
    Stack stack(gen::paper_dtd());
    query::ServiceOptions opts;
    opts.threads = 1;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);
    (void)service.sql("CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)");
    (void)service.sql("INSERT INTO kv (k, v) VALUES (1, 'a')");
    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.result_cache.hits + st.result_cache.misses, 0u);
    EXPECT_EQ(st.sql_queries, 0u);
    EXPECT_EQ(st.writes, 2u);

    const std::string q = "SELECT COUNT(*) FROM kv";
    (void)service.sql(q);                // miss
    (void)service.sql(q);                // hit
    (void)service.submit_sql(q).get();   // hit at admission
    (void)service.submit_path("count(/article)").get();  // miss
    (void)service.path("count(/article)");               // hit
    st = service.stats();
    EXPECT_EQ(st.result_cache.hits, 3u);
    EXPECT_EQ(st.result_cache.misses, 2u);
    EXPECT_EQ(st.sql_queries, 3u);
    EXPECT_EQ(st.path_queries, 2u);
    EXPECT_EQ(st.overload.admitted, 2u);
}

// Admission hits racing commits (TSan): a hit is served only at the
// current watermark, so no result is older than the committed state a
// client observed before submitting.  The floor is read from a fresh
// snapshot, which is what a submission's own execution would pin.
TEST(ConcurrentQuery, AdmissionHitsNeverOlderThanCommittedState) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(24, 40, 31);
    stack.loader->load(*corpus[0]);
    query::ServiceOptions opts;
    opts.threads = 1;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);

    auto committed = [&] {
        rdb::ReadSnapshot snapshot = stack.db.read_snapshot();
        return sql::execute_read(snapshot.view(),
                                 "SELECT COUNT(*) FROM article")
            .scalar()
            .as_integer();
    };
    // The writer starts once every client has a result cached, and the
    // clients keep submitting until it is done (snapshot reads never
    // block it), so every commit lands among cached repeats.
    constexpr int kClients = 2;
    constexpr int kMinReads = 200;
    std::atomic<int> started{0};
    std::atomic<bool> loaded{false};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&] {
            for (int i = 0; i < kMinReads ||
                            !loaded.load(std::memory_order_acquire);
                 ++i) {
                std::int64_t floor = committed();
                query::QueryService::Submission s =
                    service.submit_path("count(/article)");
                EXPECT_GE(count_of(s.get()), floor)
                    << "a cached result older than the committed state";
                if (i == 0) started.fetch_add(1, std::memory_order_release);
            }
        });
    while (started.load(std::memory_order_acquire) < kClients)
        std::this_thread::yield();
    for (std::size_t i = 1; i < corpus.size(); ++i)
        stack.loader->load(*corpus[i]);
    loaded.store(true, std::memory_order_release);
    for (auto& t : clients) t.join();

    // Quiesced, a repeat is a hit that reports the final count.
    std::uint64_t hits = service.stats().result_cache.hits;
    (void)service.submit_path("count(/article)").get();
    EXPECT_EQ(count_of(service.submit_path("count(/article)").get()),
              static_cast<std::int64_t>(corpus.size()));
    query::ServiceStats st = service.stats();
    EXPECT_GE(st.result_cache.hits, hits + 1);
    EXPECT_EQ(st.result_cache.hits + st.result_cache.misses,
              st.path_queries);
}

// Writes routed through the service invalidate too (and are serialized
// against each other by the service's write mutex).
TEST(ConcurrentQuery, ServiceWritesInvalidate) {
    Stack stack(gen::paper_dtd());
    query::QueryService service(stack.db, stack.mapping, stack.schema, {});
    service.execute_write(
        "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)");

    auto q = [&] {
        return service.sql("SELECT COUNT(*) FROM kv")->scalar().as_integer();
    };
    EXPECT_EQ(q(), 0);
    service.execute_write("INSERT INTO kv (k, v) VALUES (1, 'a')");
    EXPECT_EQ(q(), 1);
    service.execute_write("INSERT INTO kv (k, v) VALUES (2, 'b')");
    EXPECT_EQ(q(), 2);
    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.writes, 3u);
    EXPECT_GE(st.result_cache.invalidated, 2u);
}

// The worker pool: many futures over a mixed workload, all correct, with
// the cache (shared across workers) soaking up the repeats.
TEST(ConcurrentQuery, WorkerPoolServesFutures) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(4, 80, 3);
    for (auto& doc : corpus) stack.loader->load(*doc);

    query::ServiceOptions opts;
    opts.threads = 4;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);

    std::int64_t expected =
        count_of(service.path("count(/article/author)"));
    std::vector<query::QueryService::Submission> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(service.submit_path("count(/article/author)"));
        futures.push_back(
            service.submit_sql("SELECT COUNT(*) FROM article"));
    }
    // Drain every future (not just the asserted ones) before reading
    // stats, so no job is still in flight.
    std::vector<query::QueryService::Result> results;
    results.reserve(futures.size());
    for (auto& f : futures) results.push_back(f.get());
    for (std::size_t i = 0; i < results.size(); i += 2)
        EXPECT_EQ(results[i]->scalar().as_integer(), expected);
    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.sql_queries + st.path_queries, 64u * 2 + 1);
    EXPECT_GT(st.result_cache.hits, 0u);

    // A failing query travels through the future as its exception.
    EXPECT_THROW(service.submit_path("/nosuch/path").get(), QueryError);
}

// Regression: a result bigger than the whole cache budget must be
// refused up front (admitting it would evict everything for an entry
// that can never amortize) and counted, so an operator can tell a
// too-small budget from a cold cache.  Small results still cache.
TEST(ConcurrentQuery, OversizedResultsCountedNotCached) {
    Stack stack(gen::paper_dtd());
    query::ServiceOptions opts;
    opts.threads = 0;
    opts.result_cache_bytes = 512;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);
    service.execute_write("CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)");
    service.execute_write("INSERT INTO kv (k, v) VALUES (1, '" +
                          std::string(2000, 'x') + "')");

    (void)service.sql("SELECT * FROM kv");  // ~2KB result vs 512B budget
    (void)service.sql("SELECT * FROM kv");
    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.result_cache.oversized, 2u);
    EXPECT_EQ(st.result_cache.hits, 0u);
    EXPECT_EQ(st.result_cache.evicted, 0u);

    // A COUNT fits comfortably and caches as before.
    (void)service.sql("SELECT COUNT(*) FROM kv");
    (void)service.sql("SELECT COUNT(*) FROM kv");
    st = service.stats();
    EXPECT_EQ(st.result_cache.hits, 1u);
    EXPECT_EQ(st.result_cache.oversized, 2u);
}

// Regression: ExecStats shared by concurrent executions must not lose
// updates (it used to be plain size_t counters, racy under TSan and
// drop-prone under contention).
TEST(ConcurrentQuery, ExecStatsExactUnderConcurrency) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(2, 60, 21);
    for (auto& doc : corpus) stack.loader->load(*doc);

    sql::ExecStats probe;
    sql::execute(stack.db, "SELECT * FROM article", &probe);
    std::size_t per_scan = probe.rows_scanned.load();
    ASSERT_GT(per_scan, 0u);

    sql::ExecStats shared;
    constexpr int kThreads = 4;
    constexpr int kIters = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                auto snapshot = stack.db.read_snapshot();
                sql::execute_read(snapshot.view(), "SELECT * FROM article",
                                  &shared);
            }
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(shared.rows_scanned.load(), per_scan * kThreads * kIters);
}

// The MVCC guarantee with teeth (DESIGN.md §15): while a bulk-load unit
// is provably OPEN — the writer holds the outermost unit and waits —
// every reader keeps completing snapshot queries against the pre-load
// epoch.  Under the old exclusive-latch read path this deadlocks: the
// readers would block on the writer's latch, the writer on the readers'
// progress.  Bounded latency follows: a read can never be stalled for
// the duration of a bulk load.
TEST(ConcurrentQuery, ReadersProgressWhileBulkLoadUnitOpen) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(8, 60, 13);
    stack.loader->load(*corpus[0]);
    query::QueryService service(stack.db, stack.mapping, stack.schema, {});

    std::int64_t before = count_of(service.path("count(/article)"));

    constexpr int kReaders = 3;
    constexpr int kReadsWhileOpen = 25;
    std::atomic<int> reads_while_open{0};
    std::atomic<bool> unit_open{false};
    std::atomic<bool> done{false};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r)
        readers.emplace_back([&] {
            while (!done.load(std::memory_order_acquire)) {
                std::int64_t c = count_of(service.path("count(/article)"));
                if (unit_open.load(std::memory_order_acquire)) {
                    // Mid-load reads must see exactly the pre-load epoch:
                    // nothing from the open unit, no torn intermediate.
                    EXPECT_EQ(c, before);
                    reads_while_open.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });

    stack.db.begin_unit();  // outermost unit: nothing publishes until commit
    unit_open.store(true, std::memory_order_release);
    for (std::size_t i = 1; i < corpus.size(); ++i)
        stack.loader->load(*corpus[i]);
    // Hold the unit open until every reader demonstrably made progress
    // against it — this is the deadlock under a latched read path.
    while (reads_while_open.load(std::memory_order_relaxed) <
           kReaders * kReadsWhileOpen)
        std::this_thread::yield();
    unit_open.store(false, std::memory_order_release);
    stack.db.commit_unit();
    done.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();

    EXPECT_GE(reads_while_open.load(), kReaders * kReadsWhileOpen);
    // After the commit publishes, a fresh read sees the whole load.
    EXPECT_GT(count_of(service.path("count(/article)")), before);
}

}  // namespace
}  // namespace xr
