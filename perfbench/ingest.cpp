// Workload `ingest`: the write path with no readers.
//
// Each round, into a fresh durable database (WAL on, one fsync per
// commit):
//   1. per-document commits — parse the text, then Loader::load with
//      LoadOptions defaults (validation on), one unit per document;
//   2. Database::checkpoint();
//   3. one BulkLoader::load_texts of a corpus eight times larger;
//   4. close, then recover with Database::open (snapshot plus the bulk
//      load's WAL), and check the result;
//   5. checkpoint the recovered database, now holding both corpora.
// Rounds repeat the same work until the measuring time is used (at least
// kMinRounds).  The single-threaded steps (per-document commits,
// checkpoints, recoveries) are timed on the thread's CPU clock, the
// three-job bulk load on the wall clock.  Rates are each round's, median
// over rounds; the median latency pools every round's samples; the tail
// latency is each round's, median over rounds; checkpoint and recovery
// times are medians over all their repeats.
#include <filesystem>
#include <iostream>
#include <sstream>
#include <type_traits>

#include "bench.hpp"
#include "loader/bulk_loader.hpp"
#include "loader/loader.hpp"
#include "rdb/snapshot.hpp"
#include "validate/validator.hpp"
#include "xml/parser.hpp"

namespace pb {

namespace {

constexpr std::size_t kSerialDocs = 256;
constexpr std::size_t kBulkDocs = 2048;
constexpr std::size_t kBulkJobs = 3;
constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kRecoveries = 3;
constexpr std::size_t kCheckpoints = 3;
/// Tail percentile of one round's 256 per-document commit latencies: the
/// highest of p90, p95, p99 and p99.9 with at least ten samples beyond it
/// (12; p99 would leave 2).
constexpr double kTail = 0.95;
constexpr std::size_t kValidateSample = 64;

struct Round {
    std::vector<double> commit_ms;      ///< wall, per document, corpus order
    std::vector<double> commit_cpu_ms;  ///< CPU, per document
    double serial_s = 0;
    double serial_cpu_s = 0;
    double bulk_s = 0;
    std::vector<double> recovery_cpu_s;
    std::vector<double> checkpoint_cpu_s;  ///< of the recovered database
    double snapshot_ratio = 0;
    double snapshot_mb_per_s = 0;
    double replay_records_per_s = 0;
    double wal_bytes_per_elem = 0;
    double rows_per_elem = 0;
    double verify_s = 0;
    xr::rdb::MvccStats cow;  ///< serial-phase deltas
};

struct Inputs {
    const Stack* stack = nullptr;
    const Corpus* serial = nullptr;
    const Corpus* bulk = nullptr;
};

Round run_round(const Options& opt, const Inputs& in, std::size_t round,
                Result& result, Tracer* tracer,
                std::vector<double>& traced_ms,
                std::vector<double>& untraced_ms, std::size_t& versions_live) {
    const Stack& stack = *in.stack;
    Round r;
    std::string dir = opt.work_dir + "/ingest-round-" + std::to_string(round);
    auto db = create_database(stack, dir);
    xr::loader::Loader loader(stack.logical, stack.mapping, stack.schema, *db);
    std::vector<std::pair<std::int64_t, const std::string*>> docs;
    xr::SplitMix64 coin(opt.seed ^ (0x7ace0000ULL + round));

    // 1. Per-document commits.  Whether a document is traced is decided
    // before it starts, and its spans are recorded inside its timing.
    auto before = db->mvcc_stats();
    auto t0 = Clock::now();
    const double cpu0 = thread_cpu_s();
    for (std::size_t i = 0; i < kSerialDocs; ++i) {
        const std::string& text = in.serial->texts[i];
        Tracer* t = tracer != nullptr && coin.chance(0.5) ? tracer : nullptr;
        auto d0 = Clock::now();
        const double c0 = thread_cpu_s();
        std::int64_t id = -1;
        {
            Scope unit(t, "doc.commit", i + 1);
            std::unique_ptr<xr::xml::Document> doc;
            {
                Scope span(t, "xml.parse_document", i + 1, unit.index());
                doc = xr::xml::parse_document(text);
            }
            Scope span(t, "loader.load", i + 1, unit.index());
            id = loader.load(*doc);
        }
        double ms = ms_between(d0, Clock::now());
        r.commit_cpu_ms.push_back((thread_cpu_s() - c0) * 1e3);
        r.commit_ms.push_back(ms);
        if (tracer != nullptr) {
            (t != nullptr ? traced_ms : untraced_ms).push_back(ms);
            versions_live =
                std::max(versions_live, db->mvcc_stats().versions_live);
        }
        docs.emplace_back(id, &text);
    }
    r.serial_s = seconds_since(t0);
    r.serial_cpu_s = thread_cpu_s() - cpu0;
    auto after = db->mvcc_stats();
    r.cow.indexes_cowed = after.indexes_cowed - before.indexes_cowed;
    r.cow.chunks_cowed = after.chunks_cowed - before.chunks_cowed;
    r.cow.tables_republished =
        after.tables_republished - before.tables_republished;
    r.wal_bytes_per_elem = static_cast<double>(db->wal_bytes_appended()) /
                           static_cast<double>(in.serial->elements);
    result.attempt(kSerialDocs);

    // Validation alone, replayed on a seeded sample outside the timing.
    if (tracer != nullptr && round == 0) {
        for (std::size_t i = 0; i < kValidateSample; ++i) {
            std::size_t k = coin.below(kSerialDocs);
            auto doc = xr::xml::parse_document(in.serial->texts[k]);
            Scope span(tracer, "validate.check_valid", k + 1);
            xr::validate::check_valid(*doc, stack.logical);
        }
    }

    // 2. Checkpoint, so that recovery reads a snapshot and replays the
    // bulk load's WAL.
    {
        Scope span(tracer, "rdb.checkpoint", round);
        (void)db->checkpoint();
    }

    // 3. Bulk load.
    xr::loader::BulkLoader bulk(stack.logical, stack.mapping, stack.schema, *db);
    xr::loader::BulkLoadOptions bulk_options;
    bulk_options.jobs = kBulkJobs;
    auto b0 = Clock::now();
    xr::loader::LoadReport report;
    {
        Scope span(tracer, "loader.bulk_load_texts", round);
        report = bulk.load_texts(in.bulk->texts, bulk_options);
    }
    r.bulk_s = seconds_since(b0);
    result.attempt(kBulkDocs);
    if (!report.ok() || report.loaded != kBulkDocs)
        result.fail("bulk load: " + std::to_string(report.failed) + " failed");
    for (std::size_t i = 0; i < report.outcomes.size(); ++i)
        docs.emplace_back(report.outcomes[i].doc, &in.bulk->texts[i]);
    const auto& ls = loader.stats();
    const auto& bs = bulk.stats();
    r.rows_per_elem =
        static_cast<double>(ls.total_rows() + bs.total_rows()) /
        static_cast<double>(ls.elements_visited + bs.elements_visited);

    // 4. Close and recover, kRecoveries times; each open replays the same
    // WAL over the same snapshot.
    auto expected = row_counts(*db);
    xr::rdb::RecoveryReport rr;
    for (std::size_t i = 0; i < kRecoveries; ++i) {
        db.reset();
        const double c0 = thread_cpu_s();
        db = std::make_unique<xr::rdb::Database>();
        Scope span(tracer, "rdb.open", round);
        rr = db->open(dir);
        r.recovery_cpu_s.push_back(thread_cpu_s() - c0);
    }
    r.replay_records_per_s =
        static_cast<double>(rr.records_replayed) / median_of(r.recovery_cpu_s);
    r.verify_s = check_recovered(result, stack, *db, expected, docs,
                                 opt.seed + round, tracer);

    // 5. Checkpoint the recovered database kCheckpoints times: each writes
    // the same full image of both corpora.
    xr::rdb::SnapshotStats snap;
    for (std::size_t i = 0; i < kCheckpoints; ++i) {
        const double c0 = thread_cpu_s();
        Scope span(tracer, "rdb.checkpoint", round);
        snap = db->checkpoint();
        r.checkpoint_cpu_s.push_back(thread_cpu_s() - c0);
    }
    r.snapshot_ratio = static_cast<double>(snap.bytes) /
                       static_cast<double>(in.serial->bytes + in.bulk->bytes);
    r.snapshot_mb_per_s = static_cast<double>(snap.bytes) / (1 << 20) /
                          median_of(r.checkpoint_cpu_s);
    db.reset();
    std::filesystem::remove_all(dir);
    return r;
}

/// Every round's values of one field, pooled.
template <typename F>
std::vector<double> pooled(const std::vector<Round>& rounds, F field) {
    std::vector<double> v;
    for (const Round& r : rounds) {
        const auto& x = field(r);
        if constexpr (std::is_same_v<std::decay_t<decltype(x)>, double>)
            v.push_back(x);
        else
            v.insert(v.end(), x.begin(), x.end());
    }
    return v;
}

}  // namespace

int run_ingest(const Options& opt, Result& result) {
    // Set-up, repeated; the last repetition's inputs are used.
    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    Corpus serial, bulk;
    std::uint64_t base_seed = xr::SplitMix64(opt.seed)();
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        auto t0 = Clock::now();
        stack = std::make_unique<Stack>();
        serial = Corpus::bibliography(kSerialDocs, base_seed);
        bulk = Corpus::bibliography(kBulkDocs, base_seed + (1u << 20));
        setup_s.push_back(seconds_since(t0));
    }

    std::ostringstream inputs;
    inputs << "{\"workload\": \"ingest\", \"seed\": " << opt.seed
           << ", \"serial_docs\": " << kSerialDocs
           << ", \"serial_elements\": " << serial.elements
           << ", \"serial_bytes\": " << serial.bytes
           << ", \"bulk_docs\": " << kBulkDocs
           << ", \"bulk_elements\": " << bulk.elements
           << ", \"bulk_bytes\": " << bulk.bytes
           << ", \"elements_per_doc\": "
           << static_cast<double>(serial.elements + bulk.elements) /
                  (kSerialDocs + kBulkDocs)
           << ", \"bytes_per_doc\": "
           << static_cast<double>(serial.bytes + bulk.bytes) /
                  (kSerialDocs + kBulkDocs)
           << ", \"bulk_jobs\": " << kBulkJobs << ", \"threads\": " << kBulkJobs
           << "}";
    std::cerr << "inputs: " << inputs.str() << "\n";

    Tracer tracer;
    Tracer* t = opt.trace ? &tracer : nullptr;
    std::vector<double> traced_ms, untraced_ms;
    std::size_t versions_live = 0;
    std::vector<Round> rounds;
    Inputs in{stack.get(), &serial, &bulk};
    auto start = Clock::now();
    do {
        rounds.push_back(run_round(opt, in, rounds.size(), result, t,
                                   traced_ms, untraced_ms, versions_live));
    } while (rounds.size() < kMinRounds || seconds_since(start) < opt.seconds);

    auto commit_cpu_ms = pooled(rounds, [](const Round& r) -> const auto& {
        return r.commit_cpu_ms;
    });
    auto commit_ms = pooled(rounds, [](const Round& r) -> const auto& {
        return r.commit_ms;
    });
    std::vector<double> round_tails, round_rates, round_bulk_rates, wall_rates;
    for (const Round& r : rounds) {
        round_tails.push_back(quantile_of(r.commit_cpu_ms, kTail));
        round_rates.push_back(static_cast<double>(serial.elements) /
                              r.serial_cpu_s);
        wall_rates.push_back(static_cast<double>(serial.elements) / r.serial_s);
        round_bulk_rates.push_back(static_cast<double>(bulk.elements) /
                                   r.bulk_s);
    }
    check_tail(result, rounds[0].commit_cpu_ms, kTail,
               "ingest doc commit latency");
    auto bulk_s = pooled(rounds, [](const Round& r) -> const auto& {
        return r.bulk_s;
    });
    auto checkpoint_s = pooled(rounds, [](const Round& r) -> const auto& {
        return r.checkpoint_cpu_s;
    });
    auto recovery_s = pooled(rounds, [](const Round& r) -> const auto& {
        return r.recovery_cpu_s;
    });
    std::cerr << "rounds: " << rounds.size() << "\n";
    print_spread("per-document phase, elements per CPU second", round_rates);
    print_spread("per-document phase, elements per wall second", wall_rates);
    print_spread("per-document CPU ms p95, by round", round_tails);
    std::cerr << "all rounds: per-document CPU ms p50 "
              << median_of(commit_cpu_ms) << ", wall ms p50 "
              << median_of(commit_ms) << ", wall ms p99 "
              << quantile_of(commit_ms, 0.99) << " of " << commit_ms.size()
              << "\n";
    print_spread("bulk load s", bulk_s);
    print_spread("checkpoint CPU s", checkpoint_s);
    print_spread("recovery CPU s", recovery_s);

    if (!opt.trace) {
        result.set("setup_s", median_of(setup_s), "s");
        result.set("throughput_per_s", median_of(round_rates), "1/s");
        result.set("latency_p50_ms", median_of(commit_cpu_ms), "ms");
        result.set("latency_tail_ms", median_of(round_tails), "ms");
        result.set("bulk_load_elem_per_s", median_of(round_bulk_rates),
                   "elements/s");
        result.set("checkpoint_cpu_s", median_of(checkpoint_s), "s");
        result.set("recovery_cpu_s", median_of(recovery_s), "s");
        result.set("snapshot_bytes_per_xml_byte", rounds[0].snapshot_ratio,
                   "ratio");
        result.set("peak_rss_mb", peak_rss_mb(), "MiB");
        return 0;
    }

    auto parse_us = tracer.durations_us("xml.parse_document");
    double parse_bytes = 0, parse_total_us = 0;
    for (const Span& s : tracer.spans())
        if (std::string_view(s.name) == "xml.parse_document") {
            parse_bytes += static_cast<double>(serial.texts[s.id - 1].size());
            parse_total_us += s.us();
        }
    result.set("xml.parse_us", median_of(parse_us), "us");
    result.set("xml.parse_mb_per_s",
               parse_bytes / (1 << 20) / (parse_total_us / 1e6), "MiB/s");
    result.set("validate.check_us",
               median_of(tracer.durations_us("validate.check_valid")), "us");
    auto load_us = tracer.durations_us("loader.load");
    result.set("loader.load_ms_p50", median_of(load_us) / 1e3, "ms");
    result.set("loader.load_ms_tail", quantile_of(load_us, 0.99) / 1e3, "ms");
    result.set("loader.bulk_s", median_of(bulk_s), "s");
    result.set("loader.rows_per_elem", rounds[0].rows_per_elem, "ratio");
    // Exact counts: the serial phase of round 0, per commit.
    const auto& cow = rounds[0].cow;
    result.set("rdb.indexes_cowed_per_commit",
               static_cast<double>(cow.indexes_cowed) / kSerialDocs, "count");
    result.set("rdb.chunks_cowed_per_commit",
               static_cast<double>(cow.chunks_cowed) / kSerialDocs, "count");
    result.set("rdb.tables_republished_per_commit",
               static_cast<double>(cow.tables_republished) / kSerialDocs,
               "count");
    result.set("rdb.versions_live_max", static_cast<double>(versions_live),
               "count");
    result.set("rdb.wal_bytes_per_elem", rounds[0].wal_bytes_per_elem, "bytes");
    result.set("rdb.snapshot_mb_per_s",
               median_of(pooled(rounds, [](const Round& r) -> const auto& {
                   return r.snapshot_mb_per_s;
               })),
               "MiB/s");
    result.set("rdb.replay_records_per_s",
               median_of(pooled(rounds, [](const Round& r) -> const auto& {
                   return r.replay_records_per_s;
               })),
               "1/s");
    result.set("rdb.verify_s",
               median_of(pooled(rounds, [](const Round& r) -> const auto& {
                   return r.verify_s;
               })),
               "s");
    double untraced = median_of(untraced_ms);
    result.set("trace.overhead_pct",
               100.0 * (median_of(traced_ms) - untraced) / untraced, "%");
    write_trace(opt.work_dir + "/trace-ingest-seed" + std::to_string(opt.seed) +
                    ".json",
                {&tracer}, inputs.str());
    return 0;
}

}  // namespace pb
