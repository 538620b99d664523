// Shared pieces of the xmlrel benchmark program: options, the result
// record, latency samples, in-memory span tracing, and the set-up steps
// (DTD → mapping → relational schema → generated corpus) every workload
// starts from.
#pragma once

#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dtd/dtd.hpp"
#include "mapping/pipeline.hpp"
#include "rdb/database.hpp"
#include "rel/schema.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}
/// CPU time of the calling thread, in seconds.  Single-threaded steps
/// are timed on this clock: it leaves out the time the thread waited for
/// a CPU held by other work on the machine (or taken by the hypervisor,
/// as steal time), which on a shared host moves wall time by a third or
/// more for minutes at a time.  It also leaves out fsync waits.
inline double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work_dir;  ///< working space for data directories and traces
};

/// What one run prints: the metrics of its mode plus the operation and
/// failure counts.  Every failed correctness check counts as a failed
/// operation.
class Result {
public:
    void set(const std::string& name, double value, const std::string& unit);
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string& why);
    /// attempt() plus fail() when !ok.
    void check(bool ok, const std::string& why);

    [[nodiscard]] bool correct() const { return failed_ == 0; }
    [[nodiscard]] std::string json() const;
    [[nodiscard]] std::string human() const;

private:
    struct Metric {
        std::string name;
        double value = 0;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> errors_;
};

/// Latency samples in a bounded, seeded reservoir (Algorithm R), so the
/// benchmark's own memory does not grow with the system's throughput.
class Samples {
public:
    explicit Samples(std::uint64_t seed = 1, std::size_t cap = 1u << 18)
        : rng_(seed), cap_(cap) {}
    void add(double v);
    /// Nearest-rank quantile, p in (0, 1].  0 when empty.
    [[nodiscard]] double quantile(double p) const;
    [[nodiscard]] double median() const { return quantile(0.5); }
    /// Samples kept that lie beyond the p-quantile's rank.
    [[nodiscard]] std::size_t beyond(double p) const;
    [[nodiscard]] const std::vector<double>& values() const { return values_; }

private:
    xr::SplitMix64 rng_;
    std::size_t cap_;
    std::size_t seen_ = 0;
    std::vector<double> values_;
};

/// The fixed tail percentile a workload reports must keep at least ten
/// samples beyond it; anything less is a failed check, not a number.
void check_tail(Result& result, const std::vector<double>& samples, double p,
                const std::string& what);

// ---------------------------------------------------------------------------
// Tracing.  Each thread that records spans owns a Tracer.  Call sites
// take a Tracer*: null means "do not trace this", which is how untraced
// runs (and the untraced half of a traced run) skip recording.  Spans
// hold times relative to process start.

struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;       ///< request or document the span belongs to
    std::int64_t parent = -1;   ///< index in the same tracer, -1 for a root
    [[nodiscard]] double us() const { return (end_ns - start_ns) / 1e3; }
};

std::int64_t since_start_ns(Clock::time_point t);

class Tracer {
public:
    std::int64_t record(const char* name, std::uint64_t id,
                        Clock::time_point start, Clock::time_point end,
                        std::int64_t parent = -1);
    std::int64_t open(const char* name, std::uint64_t id,
                      std::int64_t parent = -1);
    void close(std::int64_t span);
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    /// Durations in µs of every span with this name.
    [[nodiscard]] std::vector<double> durations_us(const char* name) const;

private:
    std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; does
/// nothing when the tracer is null.
class Scope {
public:
    Scope(Tracer* tracer, const char* name, std::uint64_t id,
          std::int64_t parent = -1)
        : tracer_(tracer),
          index_(tracer ? tracer->open(name, id, parent) : -1) {}
    ~Scope() {
        if (tracer_) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int64_t index() const { return index_; }

private:
    Tracer* tracer_;
    std::int64_t index_;
};

/// Log "<phase> at <seconds since start>" to stderr.
void log_phase(const char* phase);

/// Median of a sample vector (0 when empty).
double median_of(std::vector<double> v);
/// Nearest-rank quantile of a sample vector (0 when empty).
double quantile_of(std::vector<double> v, double p);
/// Print "<what>: n, min, median, max" of a sample vector to stderr.
void print_spread(const char* what, const std::vector<double>& v);

/// Write every span plus self time per layer (the span name up to the
/// first '.') to `path` as JSON, and print the self-time table to stderr.
/// `inputs` is a flat JSON object of the run's input properties.
void write_trace(const std::string& path,
                 const std::vector<const Tracer*>& tracers,
                 const std::string& inputs);

// ---------------------------------------------------------------------------
// Set-up: the steps that count toward setup_s only.

/// DTD, its mapping and relational schema.
struct Stack {
    xr::dtd::Dtd logical;
    xr::mapping::MappingResult mapping;
    xr::rel::RelationalSchema schema;
    Stack();
};

/// Generated documents as compact XML text, with their real sizes.
struct Corpus {
    std::vector<std::string> texts;
    std::size_t elements = 0;
    std::size_t bytes = 0;
    /// gen::bibliography_corpus(count, 400, seed), serialized compactly;
    /// with `paper_sample`, the paper's own sample document goes first.
    static Corpus bibliography(std::size_t count, std::uint64_t seed,
                               bool paper_sample = false);
};

/// A fresh durable database in `dir` (WAL on, one fsync per commit) with
/// the schema materialized.
std::unique_ptr<xr::rdb::Database> create_database(const Stack& stack,
                                                   const std::string& dir);

/// Row count of every table.
std::map<std::string, std::size_t> row_counts(const xr::rdb::Database& db);

/// Peak resident set size of this process so far (VmHWM), in MiB.
double peak_rss_mb();

/// After recovery: Database::verify() is clean, row counts match the
/// counts taken before the close, and a seeded sample of documents
/// rebuilds byte-exact (compact serialization) from the database.
/// `docs` maps doc id → original text.  Returns verify()'s duration.
double check_recovered(Result& result, const Stack& stack,
                       const xr::rdb::Database& db,
                       const std::map<std::string, std::size_t>& expected,
                       const std::vector<std::pair<std::int64_t,
                                                   const std::string*>>& docs,
                       std::uint64_t seed, Tracer* tracer);

/// Compact serialization (no declaration, no DOCTYPE) of an XML text.
std::string compact(const std::string& text);

int run_ingest(const Options& options, Result& result);
int run_serve(const Options& options, Result& result);

}  // namespace pb
