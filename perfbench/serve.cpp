// Workloads `serve_hot` and `serve_mixed`: path queries through
// query::QueryService over a bulk-loaded base corpus in a durable
// database (WAL on, one fsync per commit).
//
//   serve_hot    one generator thread keeps 8 submit_path requests in
//                flight (closed loop) against 1 worker, cycling through
//                32 distinct path queries; after warm-up every request is
//                a result-cache hit.
//   serve_mixed  the same closed loop against 1 worker, drawing ad-hoc
//                queries from templates x every distinct three-word text
//                value of the base corpus, while a writer thread commits
//                one new document per unit with Loader::load on a fixed
//                schedule (open loop, 10 documents/s).
//
// The measuring window is cut into slices.  Between slices the client
// pauses serving and probes a second copy of the bulk-loaded base: it
// re-opens it from its snapshot and checkpoints it (the life-cycle
// metrics), so those repeats are spread over the whole run like the
// slices are.  After the window: every distinct query is checked against
// xquery::evaluate over the DOM corpus, then the served database is
// closed, recovered and verified.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "loader/bulk_loader.hpp"
#include "loader/loader.hpp"
#include "query/service.hpp"
#include "rdb/snapshot.hpp"
#include "sql/executor.hpp"
#include "sql/parser.hpp"
#include "sql/planner.hpp"
#include "validate/validator.hpp"
#include "xml/parser.hpp"
#include "xquery/dom_eval.hpp"
#include "xquery/query.hpp"
#include "xquery/sql_translate.hpp"

namespace pb {

namespace {

using xr::query::QueryService;

constexpr std::size_t kBaseDocs = 1024;
constexpr std::size_t kBulkJobs = 3;
constexpr std::size_t kSetupReps = 9;
/// Repeats of the base bulk load, each into a fresh database.
constexpr std::size_t kBulkRepeats = 9;
/// Seconds of serving between two probes (a re-open and a checkpoint of
/// the probe copy of the base); there is one after the last slice too.
constexpr double kProbeGapS = 2.0;
constexpr std::size_t kInFlight = 8;
/// One service worker: its FIFO queue completes requests in submission
/// order, so the client can block on the oldest one instead of polling,
/// and the workload keeps two CPUs of a four-CPU machine idle.  With
/// more busy threads, other load on the machine (even another tenant's)
/// preempted them and serve_hot's throughput fell to a fifth for minutes.
constexpr std::size_t kWorkers = 1;
constexpr double kWriterRate = 10.0;  ///< documents per second
constexpr double kWarmupS = 0.5;
/// Tail percentile of a slice of the window: the highest of p90, p95, p99
/// and p99.9 with at least ten samples beyond it in a slice's reservoir of
/// kSliceReservoir (serve_hot: 4096 kept, 40 beyond) or in all of a slice's
/// completions (serve_mixed: about 3000 per 5-second slice, 30 beyond).
constexpr double kTail = 0.99;
constexpr std::size_t kSliceReservoir = 4096;
/// The whole window's latencies, for the stderr report.
constexpr std::size_t kReservoir = std::size_t{1} << 18;
constexpr std::size_t kCheckThreads = 3;
constexpr std::size_t kHotQueries = 32;
/// Share of requests the traced run records a span for, and the cap on
/// those it replays through the decomposed layer chain.
constexpr double kTraceChance = 1.0 / 64;
constexpr std::size_t kReplayCap = 256;
constexpr double kReplayTail = 0.9;
constexpr std::size_t kValidateSample = 32;

// Paper Q1–Q4 (bench_query's four shapes) and structural queries.
const char* const kFixedHot[] = {
    "/article[title = 'XML RDBMS']/author",
    "count(/article/author/name)",
    "/article/author[name/lastname = 'Smith']",
    "/article/contactauthor/@authorid",
    "//author",
    "//name",
    "//affiliation",
    "//author/@id",
    "count(//name)",
    "count(//author)",
    "count(//contactauthor)",
    "/article//name",
    "/article/author/name",
    "/article//author/@id",
    "count(/article/affiliation)",
    "//contactauthor/@authorid",
};

// Templates over one text value V; selective predicates on distilled
// columns, '//' and [ancestor::] forms.
const char* const kTemplates[] = {
    "/article[title = 'V']/author",
    "/article/author[name/lastname = 'V']",
    "//author[name/firstname = 'V']",
    "count(/article[title = 'V']/author)",
    "/article[title = 'V']//name",
    "//name[lastname = 'V'][ancestor::article]",
    "/article[title = 'V']/author/@id",
    "//author[name/lastname = 'V']/@id",
};

const char* const kIndexes[] = {
    "CREATE INDEX ON article (title)",
    "CREATE INDEX ON name (lastname)",
    "CREATE INDEX ON name (firstname)",
};

std::string instantiate(const char* tmpl, const std::string& value) {
    std::string out = tmpl;
    out.replace(out.find('V'), 1, value);
    return out;
}

/// Every distinct text value of title / firstname / lastname elements.
std::vector<std::string> text_values(const Corpus& corpus) {
    std::set<std::string> values;
    for (const auto& text : corpus.texts) {
        auto doc = xr::xml::parse_document(text);
        xr::xml::visit(*doc->root(), [&](const xr::xml::Node& node) {
            if (!node.is_element()) return;
            const auto& e = static_cast<const xr::xml::Element&>(node);
            if (e.name() == "title" || e.name() == "firstname" ||
                e.name() == "lastname")
                values.insert(e.text());
        });
    }
    return {values.begin(), values.end()};
}

/// The next query of a workload's stream.
class QueryStream {
public:
    QueryStream(bool mixed, std::vector<std::string> values,
                std::uint64_t seed)
        : mixed_(mixed), values_(std::move(values)), rng_(seed) {
        if (mixed_) return;
        for (const char* q : kFixedHot) hot_.emplace_back(q);
        xr::SplitMix64 pick(seed ^ 0x407ULL);
        while (hot_.size() < kHotQueries)
            hot_.push_back(instantiate(kTemplates[hot_.size() % std::size(kTemplates)],
                                       values_[pick.below(values_.size())]));
    }
    std::string next() {
        if (!mixed_) return hot_[i_++ % hot_.size()];
        const char* tmpl = kTemplates[rng_.below(std::size(kTemplates))];
        return instantiate(tmpl, values_[rng_.below(values_.size())]);
    }
    [[nodiscard]] const std::vector<std::string>& hot() const { return hot_; }
    [[nodiscard]] std::size_t space() const {
        return mixed_ ? std::size(kTemplates) * values_.size() : hot_.size();
    }

private:
    bool mixed_;
    std::vector<std::string> values_;
    std::vector<std::string> hot_;
    xr::SplitMix64 rng_;
    std::size_t i_ = 0;
};

/// What a closed loop measured.  The window is cut into slices, each with
/// its completions and latency samples; every end-to-end figure is the
/// median over the slices, the figure of a typical slice.  A stall that
/// lasts less than half the window does not move it; the whole window's
/// tail is kept for the stderr report, where such stalls show.
struct LoopResult {
    Samples window_ms;
    std::vector<std::size_t> slice_done;
    std::vector<Samples> slice_ms;
    double slice_s = 0;
    std::size_t submitted = 0;
    std::size_t failed = 0;
    std::set<std::string> distinct;
    std::vector<std::string> replay;  ///< sampled texts (traced run)
    std::vector<double> traced_ms, untraced_ms;
    std::size_t versions_live = 0;
    LoopResult(std::uint64_t seed, double seconds, double slice)
        : window_ms(seed, kReservoir),
          slice_done(std::max<std::size_t>(
              1, static_cast<std::size_t>(std::lround(seconds / slice)))),
          slice_s(seconds / static_cast<double>(slice_done.size())) {
        for (std::size_t i = 0; i < slice_done.size(); ++i)
            slice_ms.emplace_back(seed + i + 1, kSliceReservoir);
    }
    [[nodiscard]] double throughput() const {
        std::vector<double> v;
        for (std::size_t n : slice_done)
            v.push_back(static_cast<double>(n) / slice_s);
        return median_of(v);
    }
    [[nodiscard]] double latency(double p) const {
        std::vector<double> v;
        for (const Samples& s : slice_ms) v.push_back(s.quantile(p));
        return median_of(v);
    }
    /// The fewest samples beyond the p-quantile in any slice.
    [[nodiscard]] std::size_t fewest_beyond(double p) const {
        std::size_t n = SIZE_MAX;
        for (const Samples& s : slice_ms) n = std::min(n, s.beyond(p));
        return n;
    }
};

/// Closed loop: keep kInFlight submissions outstanding until `seconds`
/// have passed, then drain.  With `measure`, completions are recorded in
/// slice `slice` of `out`.
/// Requests complete in submission order (one worker), so waiting on the
/// oldest observes each completion when it happens.
void closed_loop(QueryService& service, QueryStream& stream, double seconds,
                 bool measure, LoopResult& out, std::size_t slice,
                 Tracer* tracer, xr::SplitMix64& coin,
                 const xr::rdb::Database& db) {
    struct Slot {
        QueryService::Submission sub;
        Clock::time_point start;
        std::string text;
        std::int64_t span = -1;  ///< traced request's span, else -1
        bool active = false;
    };
    std::vector<Slot> slots(kInFlight);
    auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    // Whether a request is traced is decided before it is submitted, and
    // the span's cost falls inside its measured latency.
    auto submit = [&](Slot& slot) {
        slot.text = stream.next();
        slot.start = Clock::now();
        slot.span = tracer != nullptr && measure && coin.chance(kTraceChance)
                        ? tracer->open("query.submit_path", out.submitted)
                        : -1;
        slot.sub = service.submit_path(slot.text);
        slot.active = true;
        ++out.submitted;
    };
    for (Slot& slot : slots) submit(slot);
    std::size_t completions = 0;
    for (std::size_t i = 0, active = slots.size(); active > 0; ++i) {
        Slot& slot = slots[i % slots.size()];
        if (!slot.active) continue;
        slot.sub.future().wait();
        if (slot.span >= 0) tracer->close(slot.span);
        auto end = Clock::now();
        bool ok = true;
        try {
            (void)slot.sub.get();
        } catch (const std::exception& e) {
            ok = false;
            if (measure && out.failed++ < 5)
                std::cerr << "query failed: " << slot.text << ": "
                          << e.what() << "\n";
        }
        slot.active = false;
        --active;
        if (measure && ok && end <= deadline) {
            double ms = ms_between(slot.start, end);
            ++out.slice_done[slice];
            out.slice_ms[slice].add(ms);
            out.window_ms.add(ms);
            out.distinct.insert(slot.text);
            if (tracer != nullptr) {
                if (slot.span >= 0) {
                    out.traced_ms.push_back(ms);
                    if (out.replay.size() < kReplayCap)
                        out.replay.push_back(slot.text);
                } else {
                    out.untraced_ms.push_back(ms);
                }
                if (++completions % 1024 == 0)
                    out.versions_live = std::max(
                        out.versions_live, db.mvcc_stats().versions_live);
            }
        }
        if (Clock::now() < deadline) {
            submit(slot);
            ++active;
        }
    }
}

/// The open-loop writer of serve_mixed: document i is due at
/// start + i / kWriterRate whatever happened before it.
struct Writer {
    Samples lag_ms{17};
    Samples commit_ms{19};  ///< from the scheduled time to committed
    std::vector<std::int64_t> ids;
    std::size_t versions_live = 0;
    xr::rdb::MvccStats before, after;
    std::string error;
    Tracer tracer;

    void run(xr::loader::Loader& loader, xr::rdb::Database& db,
             const Corpus& docs, Clock::time_point start, bool trace) {
        Tracer* t = trace ? &tracer : nullptr;
        before = db.mvcc_stats();
        try {
            for (std::size_t i = 0; i < docs.texts.size(); ++i) {
                auto due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           static_cast<double>(i) / kWriterRate));
                std::this_thread::sleep_until(due);
                auto begin = Clock::now();
                lag_ms.add(ms_between(due, begin));
                {
                    Scope unit(t, "gen.write_unit", i);
                    std::unique_ptr<xr::xml::Document> doc;
                    {
                        Scope span(t, "xml.parse_document", i, unit.index());
                        doc = xr::xml::parse_document(docs.texts[i]);
                    }
                    Scope span(t, "loader.load", i, unit.index());
                    ids.push_back(loader.load(*doc));
                }
                commit_ms.add(ms_between(due, Clock::now()));
                if (trace)
                    versions_live =
                        std::max(versions_live, db.mvcc_stats().versions_live);
            }
        } catch (const std::exception& e) {
            error = e.what();
        }
        after = db.mvcc_stats();
    }
};

/// Compare the service's answer with DOM evaluation, as the differential
/// tests do: counts for counts and node sets, value multisets for strings.
std::string compare(QueryService& service,
                    const std::vector<const xr::xml::Document*>& views,
                    const std::string& text) {
    using xr::xquery::Translation;
    try {
        Translation t = service.translate(text);
        QueryService::Result rs = service.path(text);
        auto dom = xr::xquery::evaluate(views, xr::xquery::parse_query(text));
        if (t.yield == Translation::Yield::kCount) {
            auto n = static_cast<std::size_t>(rs->scalar().as_integer());
            if (n != dom.size())
                return "count " + std::to_string(n) + " vs DOM " +
                       std::to_string(dom.size());
        } else if (t.yield == Translation::Yield::kStrings) {
            std::multiset<std::string> want(dom.strings.begin(),
                                            dom.strings.end());
            if (want.empty())
                for (const auto* n : dom.nodes) want.insert(n->text());
            std::multiset<std::string> got;
            for (const auto& row : rs->rows)
                if (!row.back().is_null()) got.insert(row.back().to_string());
            if (got != want)
                return std::to_string(got.size()) + " values vs DOM " +
                       std::to_string(want.size());
        } else if (rs->row_count() != dom.size()) {
            return std::to_string(rs->row_count()) + " rows vs DOM " +
                   std::to_string(dom.size());
        }
    } catch (const std::exception& e) {
        return std::string("error: ") + e.what();
    }
    return "";
}

}  // namespace

int run_serve(const Options& opt, Result& result) {
    const bool mixed = opt.workload == "serve_mixed";
    const std::size_t writer_docs =
        mixed ? static_cast<std::size_t>(std::ceil(opt.seconds * kWriterRate))
              : 0;
    const std::string dir = opt.work_dir + "/" + opt.workload + "-db";
    const std::string probe_dir = dir + "-probe";
    std::uint64_t base_seed = xr::SplitMix64(opt.seed)();
    Tracer tracer;
    Tracer* t = opt.trace ? &tracer : nullptr;

    // ---- Set-up, repeated (setup_s is the median).  Then the base bulk
    // load, repeated into fresh databases (bulk_load_elem_per_s is from
    // their median).  The first one is checkpointed, closed and kept as
    // the probe copy; the last one is served.
    std::vector<double> setup_s, bulk_s;
    std::unique_ptr<Stack> stack;
    Corpus base, written;
    std::vector<std::string> values;
    std::unique_ptr<xr::rdb::Database> db;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        db.reset();
        auto t0 = Clock::now();
        stack = std::make_unique<Stack>();
        base = Corpus::bibliography(kBaseDocs, base_seed, true);
        written = Corpus::bibliography(writer_docs, base_seed + (1u << 20));
        values = text_values(base);
        db = create_database(*stack, dir);
        setup_s.push_back(seconds_since(t0));
    }
    std::vector<std::pair<std::int64_t, const std::string*>> docs;
    xr::loader::LoadStats bulk_stats;
    for (std::size_t rep = 0; rep < kBulkRepeats; ++rep) {
        db.reset();
        db = create_database(*stack, rep == 0 ? probe_dir : dir);
        auto b0 = Clock::now();
        xr::loader::BulkLoader bulk(stack->logical, stack->mapping,
                                    stack->schema, *db);
        xr::loader::BulkLoadOptions bulk_options;
        bulk_options.jobs = kBulkJobs;
        xr::loader::LoadReport report;
        {
            Scope span(t, "loader.bulk_load_texts", rep);
            report = bulk.load_texts(base.texts, bulk_options);
        }
        bulk_s.push_back(seconds_since(b0));
        result.attempt(base.texts.size());
        if (!report.ok() || report.loaded != base.texts.size())
            result.fail("base bulk load: " + std::to_string(report.failed) +
                        " failed");
        docs.clear();
        for (std::size_t i = 0; i < report.outcomes.size(); ++i)
            docs.emplace_back(report.outcomes[i].doc, &base.texts[i]);
        bulk_stats = bulk.stats();
        if (rep == 0) (void)db->checkpoint();
    }
    const std::uint64_t bulk_wal_bytes = db->wal_bytes_appended();
    print_spread("bulk load s", bulk_s);

    // ---- Each probe between slices re-opens the probe copy from its
    // snapshot and checkpoints it again, both on the client's CPU clock
    // (recovery_cpu_s and checkpoint_cpu_s are their medians).  The peak
    // resident set is read before the first probe, so it covers set-up,
    // the loads and serving, and not the probe copy.
    std::vector<double> checkpoint_runs, recovery_runs;
    xr::rdb::SnapshotStats snap;
    xr::rdb::RecoveryReport rr;
    double peak_rss = 0;
    auto probe = [&] {
        const std::size_t i = recovery_runs.size();
        if (i == 0) peak_rss = peak_rss_mb();
        auto copy = std::make_unique<xr::rdb::Database>();
        double c0 = thread_cpu_s();
        {
            Scope span(t, "rdb.open", i);
            rr = copy->open(probe_dir);
        }
        recovery_runs.push_back(thread_cpu_s() - c0);
        c0 = thread_cpu_s();
        {
            Scope span(t, "rdb.checkpoint", i);
            snap = copy->checkpoint();
        }
        checkpoint_runs.push_back(thread_cpu_s() - c0);
    };

    log_phase("set-up done");
    QueryStream stream(mixed, values, base_seed ^ 0x51ULL);
    std::ostringstream inputs;
    inputs << "{\"workload\": \"" << opt.workload << "\", \"seed\": "
           << opt.seed << ", \"base_docs\": " << base.texts.size()
           << ", \"base_elements\": " << base.elements
           << ", \"base_bytes\": " << base.bytes
           << ", \"elements_per_doc\": "
           << static_cast<double>(base.elements) / base.texts.size()
           << ", \"bytes_per_doc\": "
           << static_cast<double>(base.bytes) / base.texts.size()
           << ", \"written_docs\": " << written.texts.size()
           << ", \"written_elements\": " << written.elements
           << ", \"writer_rate_per_s\": " << (mixed ? kWriterRate : 0)
           << ", \"distinct_text_values\": " << values.size()
           << ", \"query_space\": " << stream.space()
           << ", \"in_flight\": " << kInFlight << ", \"workers\": " << kWorkers
           << ", \"threads\": " << kWorkers + 1 + (mixed ? 1 : 0)
           << ", \"result_cache_bytes\": " << (16u << 20)
           << ", \"plan_cache_entries\": 256}";
    std::cerr << "inputs: " << inputs.str() << "\n";

    // ---- Service, with the query indexes created through the user path.
    xr::query::ServiceOptions service_options;
    service_options.threads = kWorkers;
    auto service = std::make_unique<QueryService>(*db, stack->mapping,
                                                  stack->schema, service_options);
    for (const char* ddl : kIndexes) service->execute_write(ddl);
    std::unique_ptr<xr::loader::Loader> loader;
    if (mixed)
        loader = std::make_unique<xr::loader::Loader>(
            stack->logical, stack->mapping, stack->schema, *db);

    log_phase("service ready");
    xr::SplitMix64 coin(opt.seed ^ 0xc011ULL);
    {
        LoopResult warm(opt.seed, kWarmupS, kWarmupS);
        if (!mixed)
            for (const auto& q : stream.hot()) (void)service->path(q);
        closed_loop(*service, stream, kWarmupS, false, warm, 0, nullptr, coin,
                    *db);
    }

    log_phase("warm-up done");
    // ---- Measuring window.
    LoopResult loop(opt.seed, opt.seconds, mixed ? 5.0 : 1.0);
    Writer writer;
    auto s0 = service->stats();
    auto window_start = Clock::now();
    std::thread writer_thread;
    if (mixed)
        writer_thread = std::thread([&] {
            writer.run(*loader, *db, written, window_start, opt.trace);
        });
    const auto probe_every = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(kProbeGapS / loop.slice_s)));
    for (std::size_t k = 0; k < loop.slice_done.size(); ++k) {
        closed_loop(*service, stream, loop.slice_s, true, loop, k, t, coin, *db);
        if ((k + 1) % probe_every == 0 || k + 1 == loop.slice_done.size())
            probe();
    }
    if (writer_thread.joinable()) writer_thread.join();
    const double checkpoint_s = median_of(checkpoint_runs);
    const double recovery_s = median_of(recovery_runs);
    print_spread("probe checkpoint CPU s", checkpoint_runs);
    print_spread("probe recovery CPU s", recovery_runs);
    {
        std::vector<double> per_slice, tails;
        for (std::size_t i = 0; i < loop.slice_done.size(); ++i) {
            per_slice.push_back(static_cast<double>(loop.slice_done[i]) /
                                loop.slice_s);
            tails.push_back(loop.slice_ms[i].quantile(kTail));
        }
        print_spread("queries completed per second, by slice", per_slice);
        print_spread("latency p99 ms, by slice", tails);
        for (double p : {0.99, 0.999, 0.9999})
            std::cerr << "whole window: latency p" << p * 100 << " "
                      << loop.window_ms.quantile(p) << " ms, "
                      << loop.window_ms.beyond(p) << " of "
                      << loop.window_ms.values().size() << " kept beyond\n";
    }
    auto s1 = service->stats();
    result.attempt(loop.submitted + written.texts.size());
    for (std::size_t i = 0; i < loop.failed; ++i) result.fail("query failed");
    if (!writer.error.empty()) result.fail("writer: " + writer.error);
    result.check(loop.fewest_beyond(kTail) >= 10,
                 "query latency: a slice has fewer than 10 samples beyond p99");
    for (std::size_t i = 0; i < writer.ids.size(); ++i)
        docs.emplace_back(writer.ids[i], &written.texts[i]);

    log_phase("window done");
    // ---- Decomposed chain replay on one pinned snapshot (traced run).
    Tracer replay_tracer;
    xr::sql::ExecStats exec;
    std::size_t rows_returned = 0;
    if (opt.trace) {
        Tracer* r = &replay_tracer;
        xr::xquery::SqlTranslator translator(stack->mapping, stack->schema);
        auto snapshot = db->read_snapshot();
        auto view = snapshot.view();
        for (std::size_t i = 0; i < loop.replay.size(); ++i) {
            Scope chain(r, "replay.path", i);
            xr::xquery::PathQuery q;
            xr::xquery::Translation tr;
            {
                Scope s(r, "xquery.parse_query", i, chain.index());
                q = xr::xquery::parse_query(loop.replay[i]);
            }
            {
                Scope s(r, "xquery.translate", i, chain.index());
                tr = translator.translate(q);
            }
            xr::sql::SelectStmt stmt;
            {
                Scope s(r, "sql.parse_select", i, chain.index());
                stmt = xr::sql::parse_select(tr.sql);
            }
            {
                Scope s(r, "sql.plan_select", i, chain.index());
                (void)xr::sql::plan_select(view, stmt);
            }
            Scope s(r, "sql.execute_select", i, chain.index());
            rows_returned += xr::sql::execute_select(view, stmt, &exec).row_count();
        }
        if (mixed)
            for (std::size_t i = 0; i < kValidateSample && i < written.texts.size();
                 ++i) {
                std::size_t k = coin.below(written.texts.size());
                auto doc = xr::xml::parse_document(written.texts[k]);
                Scope span(r, "validate.check_valid", k);
                xr::validate::check_valid(*doc, stack->logical);
            }
    }

    log_phase("replay done");
    // ---- Every distinct query against the DOM corpus (final state).
    {
        std::vector<std::unique_ptr<xr::xml::Document>> dom;
        std::vector<const xr::xml::Document*> views;
        for (const auto& [id, text] : docs) {
            dom.push_back(xr::xml::parse_document(*text));
            views.push_back(dom.back().get());
        }
        std::vector<std::string> queries(loop.distinct.begin(),
                                         loop.distinct.end());
        std::vector<std::string> verdicts(queries.size());
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> checkers;
        for (std::size_t k = 0; k < kCheckThreads; ++k)
            checkers.emplace_back([&] {
                for (std::size_t i; (i = next++) < queries.size();)
                    verdicts[i] = compare(*service, views, queries[i]);
            });
        for (auto& c : checkers) c.join();
        for (std::size_t i = 0; i < queries.size(); ++i)
            result.check(verdicts[i].empty(),
                         queries[i] + " disagrees with DOM: " + verdicts[i]);
        std::cerr << "checked " << queries.size()
                  << " distinct queries against the DOM corpus\n";
    }

    log_phase("DOM check done");
    // ---- Close and recover (replaying the index DDL and the writer's
    // commits from the WAL), then verify.
    service->shutdown();
    service.reset();
    loader.reset();
    const std::uint64_t wal_bytes = bulk_wal_bytes + db->wal_bytes_appended();
    auto expected = row_counts(*db);
    db.reset();
    db = std::make_unique<xr::rdb::Database>();
    {
        Scope span(t, "rdb.open", recovery_runs.size());
        db->open(dir);
    }
    double verify_s =
        check_recovered(result, *stack, *db, expected, docs, opt.seed, t);
    db.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(probe_dir);

    log_phase("recovery checks done");
    const double p50_ms = loop.latency(0.5);
    if (!opt.trace) {
        result.set("setup_s", median_of(setup_s), "s");
        result.set("throughput_per_s",
                   loop.throughput(),
                   "1/s");
        result.set("latency_p50_ms", p50_ms, "ms");
        result.set("latency_tail_ms", loop.latency(kTail), "ms");
        result.set("bulk_load_elem_per_s",
                   static_cast<double>(base.elements) / median_of(bulk_s),
                   "elements/s");
        result.set("checkpoint_cpu_s", checkpoint_s, "s");
        result.set("recovery_cpu_s", recovery_s, "s");
        result.set("snapshot_bytes_per_xml_byte",
                   static_cast<double>(snap.bytes) /
                       static_cast<double>(base.bytes),
                   "ratio");
        result.set("peak_rss_mb", peak_rss, "MiB");
        return 0;
    }

    const auto& rt = replay_tracer;
    result.set("loader.bulk_s", median_of(bulk_s), "s");
    result.set("rdb.snapshot_mb_per_s",
               static_cast<double>(snap.bytes) / (1 << 20) / checkpoint_s,
               "MiB/s");
    result.set("rdb.replay_records_per_s",
               static_cast<double>(rr.records_replayed) / recovery_s, "1/s");
    result.set("rdb.verify_s", verify_s, "s");
    result.set("rdb.versions_live_max",
               static_cast<double>(
                   std::max(loop.versions_live, writer.versions_live)),
               "count");
    result.set("xquery.parse_us", median_of(rt.durations_us("xquery.parse_query")),
               "us");
    result.set("xquery.translate_us",
               median_of(rt.durations_us("xquery.translate")), "us");
    auto plan_hits = s1.plan_cache.hits - s0.plan_cache.hits;
    auto plan_misses = s1.plan_cache.misses - s0.plan_cache.misses;
    result.set("xquery.plan_cache_hit_ratio",
               static_cast<double>(plan_hits) /
                   std::max<double>(1, static_cast<double>(plan_hits + plan_misses)),
               "ratio");
    result.set("sql.parse_us", median_of(rt.durations_us("sql.parse_select")),
               "us");
    result.set("sql.plan_us", median_of(rt.durations_us("sql.plan_select")), "us");
    auto exec_us = rt.durations_us("sql.execute_select");
    result.set("sql.execute_us_p50", median_of(exec_us), "us");
    result.set("sql.execute_us_tail", quantile_of(exec_us, kReplayTail), "us");
    result.set("sql.rows_scanned_per_row_returned",
               static_cast<double>(exec.rows_scanned.load()) /
                   std::max<double>(1, static_cast<double>(rows_returned)),
               "ratio");
    result.set("sql.index_lookups_per_query",
               static_cast<double>(exec.index_lookups.load()) /
                   std::max<double>(1, static_cast<double>(loop.replay.size())),
               "count");
    auto hits = s1.result_cache.hits - s0.result_cache.hits;
    auto misses = s1.result_cache.misses - s0.result_cache.misses;
    double hit_ratio = static_cast<double>(hits) /
                       std::max<double>(1, static_cast<double>(hits + misses));
    result.set("query.result_cache_hit_ratio", hit_ratio, "ratio");
    result.set("query.queue_wait_p50_us",
               static_cast<double>(s1.overload.p50_queue_wait_us), "us");
    result.set("query.queue_wait_p99_us",
               static_cast<double>(s1.overload.p99_queue_wait_us), "us");
    // Service latency minus the decomposed layer calls the service had to
    // make: on a result-cache hit it makes none.
    double chain_us = median_of(rt.durations_us("replay.path"));
    result.set("query.service_overhead_us",
               p50_ms * 1e3 - (1 - hit_ratio) * chain_us, "us");
    double untraced = median_of(loop.untraced_ms);
    result.set("trace.overhead_pct",
               100.0 * (median_of(loop.traced_ms) - untraced) / untraced, "%");

    if (mixed) {
        const auto& wt = writer.tracer;
        std::size_t commits = writer.ids.size();
        double n = static_cast<double>(std::max<std::size_t>(1, commits));
        result.set("query.result_cache_invalidated_per_commit",
                   static_cast<double>(s1.result_cache.invalidated -
                                       s0.result_cache.invalidated) / n,
                   "count");
        result.set("rdb.indexes_cowed_per_commit",
                   static_cast<double>(writer.after.indexes_cowed -
                                       writer.before.indexes_cowed) / n,
                   "count");
        result.set("rdb.chunks_cowed_per_commit",
                   static_cast<double>(writer.after.chunks_cowed -
                                       writer.before.chunks_cowed) / n,
                   "count");
        result.set("rdb.tables_republished_per_commit",
                   static_cast<double>(writer.after.tables_republished -
                                       writer.before.tables_republished) / n,
                   "count");
        auto parse_us = wt.durations_us("xml.parse_document");
        double parse_total_us = 0, parse_bytes = 0;
        for (const Span& s : wt.spans())
            if (std::string_view(s.name) == "xml.parse_document") {
                parse_total_us += s.us();
                parse_bytes += static_cast<double>(written.texts[s.id].size());
            }
        result.set("xml.parse_us", median_of(parse_us), "us");
        result.set("xml.parse_mb_per_s",
                   parse_bytes / (1 << 20) / (parse_total_us / 1e6), "MiB/s");
        result.set("validate.check_us",
                   median_of(rt.durations_us("validate.check_valid")), "us");
        auto load_us = wt.durations_us("loader.load");
        result.set("loader.load_ms_p50", median_of(load_us) / 1e3, "ms");
        result.set("loader.load_ms_tail", quantile_of(load_us, 0.9) / 1e3, "ms");
        result.set("gen.writer_lag_tail_ms", writer.lag_ms.quantile(0.9), "ms");
        result.set("gen.writer_commit_p50_ms", writer.commit_ms.median(), "ms");
        result.set("gen.writer_commit_tail_ms", writer.commit_ms.quantile(0.9),
                   "ms");
    }
    result.set("loader.rows_per_elem",
               static_cast<double>(bulk_stats.total_rows()) /
                   static_cast<double>(bulk_stats.elements_visited),
               "ratio");
    result.set("rdb.wal_bytes_per_elem",
               static_cast<double>(wal_bytes) /
                   static_cast<double>(base.elements + written.elements),
               "bytes");
    write_trace(opt.work_dir + "/trace-" + opt.workload + "-seed" +
                    std::to_string(opt.seed) + ".json",
                {&tracer, &replay_tracer, &writer.tracer}, inputs.str());
    return 0;
}

}  // namespace pb
