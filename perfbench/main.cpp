// xrbench — one named workload of the xmlrel benchmark, from a seed.
//
//   xrbench --workload ingest|serve_hot|serve_mixed --seed N --seconds S
//           --trace 0|1 --work DIR
//
// Prints a human report on stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around every public call it makes and prints per-layer
// metrics instead (see NOTES.md).  Exits 1 when any check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "gen/corpora.hpp"
#include "loader/reconstruct.hpp"
#include "rel/materialize.hpp"
#include "rel/translate.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace pb {

namespace {

const Clock::time_point kProcessStart = Clock::now();

std::string number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
            continue;
        }
        out += c;
    }
    return out + "\"";
}

}  // namespace

// ---- Result ---------------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
    for (auto& m : metrics_)
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& why) {
    ++failed_;
    if (errors_.size() < 20) errors_.push_back(why);
    std::cerr << "FAILED: " << why << "\n";
}

void Result::check(bool ok, const std::string& why) {
    attempt();
    if (!ok) fail(why);
}

std::string Result::json() const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
        << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        out << (i ? ", " : "") << quoted(m.name) << ": {\"value\": "
            << number(m.value) << ", \"unit\": " << quoted(m.unit) << "}";
    }
    out << "}}";
    return out.str();
}

std::string Result::human() const {
    std::ostringstream out;
    for (const Metric& m : metrics_) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-40s %14.6g %s\n", m.name.c_str(),
                      m.value, m.unit.c_str());
        out << line;
    }
    out << "  attempted " << attempted_ << ", failed " << failed_ << "\n";
    for (const auto& e : errors_) out << "  error: " << e << "\n";
    return out.str();
}

// ---- Samples --------------------------------------------------------------

void Samples::add(double v) {
    ++seen_;
    if (values_.size() < cap_) {
        values_.push_back(v);
        return;
    }
    std::uint64_t slot = rng_.below(seen_);
    if (slot < cap_) values_[slot] = v;
}

double quantile_of(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

double median_of(std::vector<double> v) { return quantile_of(std::move(v), 0.5); }

void print_spread(const char* what, const std::vector<double>& v) {
    if (v.empty()) return;
    std::fprintf(stderr, "%s: n %zu, min %.6g, median %.6g, max %.6g\n", what,
                 v.size(), *std::min_element(v.begin(), v.end()), median_of(v),
                 *std::max_element(v.begin(), v.end()));
}

double Samples::quantile(double p) const { return quantile_of(values_, p); }

namespace {

std::size_t beyond_rank(std::size_t n, double p) {
    auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
    return n - std::min(rank, n);
}

}  // namespace

std::size_t Samples::beyond(double p) const {
    return beyond_rank(values_.size(), p);
}

void check_tail(Result& result, const std::vector<double>& samples, double p,
                const std::string& what) {
    std::size_t n = beyond_rank(samples.size(), p);
    result.check(n >= 10, what + ": only " + std::to_string(n) +
                              " samples beyond p" + number(p * 100) +
                              " of " + std::to_string(samples.size()));
}

// ---- Tracing --------------------------------------------------------------

std::int64_t since_start_ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - kProcessStart)
        .count();
}

void log_phase(const char* phase) {
    std::fprintf(stderr, "[%8.3f s] %s\n",
                 static_cast<double>(since_start_ns(Clock::now())) / 1e9, phase);
}

std::int64_t Tracer::record(const char* name, std::uint64_t id,
                            Clock::time_point start, Clock::time_point end,
                            std::int64_t parent) {
    spans_.push_back({name, since_start_ns(start), since_start_ns(end), id,
                      parent});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::open(const char* name, std::uint64_t id,
                          std::int64_t parent) {
    auto now = Clock::now();
    return record(name, id, now, now, parent);
}

void Tracer::close(std::int64_t span) {
    if (span < 0) return;
    spans_[static_cast<std::size_t>(span)].end_ns =
        since_start_ns(Clock::now());
}

std::vector<double> Tracer::durations_us(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
        if (std::string_view(s.name) == name) out.push_back(s.us());
    return out;
}

void write_trace(const std::string& path,
                 const std::vector<const Tracer*>& tracers,
                 const std::string& inputs) {
    // Self time: a span's duration minus the time its children cover
    // (children of one span never overlap: each tracer is one thread).
    std::map<std::string, double> self_ms;
    std::map<std::string, std::size_t> span_count;
    std::ofstream out(path);
    out << "{\"inputs\": " << inputs << ",\n \"spans\": [";
    bool first = true;
    std::size_t base = 0;
    for (const Tracer* t : tracers) {
        const auto& spans = t->spans();
        std::vector<double> child_ns(spans.size(), 0);
        for (const Span& s : spans)
            if (s.parent >= 0)
                child_ns[static_cast<std::size_t>(s.parent)] +=
                    static_cast<double>(s.end_ns - s.start_ns);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            std::string name = s.name;
            std::string layer = name.substr(0, name.find('.'));
            self_ms[layer] +=
                (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) / 1e6;
            ++span_count[layer];
            out << (first ? "\n  " : ",\n  ") << "{\"name\": " << quoted(name)
                << ", \"start_ns\": " << s.start_ns
                << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
                << ", \"parent\": "
                << (s.parent < 0 ? -1
                                 : s.parent + static_cast<std::int64_t>(base))
                << "}";
            first = false;
        }
        base += spans.size();
    }
    out << "],\n \"self_ms_by_layer\": {";
    first = true;
    std::cerr << "trace: self time by layer (" << path << ")\n";
    for (const auto& [layer, ms] : self_ms) {
        out << (first ? "" : ", ") << quoted(layer) << ": " << number(ms);
        first = false;
        char line[128];
        std::snprintf(line, sizeof line, "  %-10s %12.3f ms  %8zu spans\n",
                      layer.c_str(), ms, span_count[layer]);
        std::cerr << line;
    }
    out << "}}\n";
}

// ---- Set-up ---------------------------------------------------------------

Stack::Stack() : logical(xr::gen::paper_dtd()) {
    mapping = xr::mapping::map_dtd(logical);
    schema = xr::rel::translate(mapping);
}

std::string compact(const std::string& text) {
    xr::xml::SerializeOptions options;
    options.indent.clear();
    options.declaration = false;
    options.doctype = false;
    return xr::xml::serialize(*xr::xml::parse_document(text), options);
}

Corpus Corpus::bibliography(std::size_t count, std::uint64_t seed,
                            bool paper_sample) {
    xr::xml::SerializeOptions options;
    options.indent.clear();
    options.declaration = false;
    options.doctype = false;
    Corpus corpus;
    if (paper_sample) {
        auto doc = xr::xml::parse_document(xr::gen::paper_sample_document());
        corpus.elements += doc->root()->subtree_element_count();
        corpus.texts.push_back(xr::xml::serialize(*doc, options));
    }
    for (auto& doc : xr::gen::bibliography_corpus(count, 400, seed)) {
        corpus.elements += doc->root()->subtree_element_count();
        corpus.texts.push_back(xr::xml::serialize(*doc, options));
    }
    for (const auto& t : corpus.texts) corpus.bytes += t.size();
    return corpus;
}

std::unique_ptr<xr::rdb::Database> create_database(const Stack& stack,
                                                   const std::string& dir) {
    std::filesystem::remove_all(dir);
    auto db = std::make_unique<xr::rdb::Database>();
    db->open(dir);
    xr::rel::materialize(stack.schema, stack.mapping, *db);
    db->flush_wal();
    return db;
}

std::map<std::string, std::size_t> row_counts(const xr::rdb::Database& db) {
    std::map<std::string, std::size_t> counts;
    for (const auto& name : db.table_names())
        counts[name] = db.require(name).row_count();
    return counts;
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double check_recovered(Result& result, const Stack& stack,
                       const xr::rdb::Database& db,
                       const std::map<std::string, std::size_t>& expected,
                       const std::vector<std::pair<std::int64_t,
                                                   const std::string*>>& docs,
                       std::uint64_t seed, Tracer* tracer) {
    auto t0 = Clock::now();
    xr::rdb::IntegrityReport report;
    {
        Scope span(tracer, "rdb.verify", 0);
        report = db.verify();
    }
    double verify_s = seconds_since(t0);
    result.check(report.clean(), "verify() after recovery: " +
                                     std::to_string(report.errors()) +
                                     " errors");
    result.check(row_counts(db) == expected,
                 "row counts after recovery differ from before the close");

    constexpr std::size_t kSample = 32;
    xr::SplitMix64 rng(seed ^ 0x5eed5eedULL);
    xr::loader::Reconstructor reconstructor(stack.mapping, stack.schema, db);
    xr::xml::SerializeOptions options;
    options.indent.clear();
    options.declaration = false;
    options.doctype = false;
    for (std::size_t i = 0; i < kSample && !docs.empty(); ++i) {
        const auto& [id, text] = docs[rng.below(docs.size())];
        std::string rebuilt;
        try {
            Scope span(tracer, "loader.reconstruct", static_cast<std::uint64_t>(id));
            rebuilt = xr::xml::serialize(*reconstructor.reconstruct(id), options);
        } catch (const std::exception& e) {
            rebuilt = std::string("error: ") + e.what();
        }
        result.check(rebuilt == compact(*text),
                     "doc " + std::to_string(id) +
                         " does not rebuild byte-exact after recovery");
    }
    return verify_s;
}

}  // namespace pb

namespace {

int usage() {
    std::cerr << "usage: xrbench --workload ingest|serve_hot|serve_mixed "
                 "--seed N --seconds S --trace 0|1 --work DIR\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    pb::Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string value = argv[i + 1];
        if (key == "--workload") options.workload = value;
        else if (key == "--seed") options.seed = std::stoull(value);
        else if (key == "--seconds") options.seconds = std::stod(value);
        else if (key == "--trace") options.trace = value == "1";
        else if (key == "--work") options.work_dir = value;
        else return usage();
    }
    if (argc % 2 == 0 || options.work_dir.empty() || options.seconds <= 0)
        return usage();

    pb::Result result;
    int rc = 0;
    try {
        std::filesystem::create_directories(options.work_dir);
        if (options.workload == "ingest")
            rc = pb::run_ingest(options, result);
        else if (options.workload == "serve_hot" ||
                 options.workload == "serve_mixed")
            rc = pb::run_serve(options, result);
        else
            return usage();
    } catch (const std::exception& e) {
        std::cerr << "xrbench: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "== " << options.workload << " seed " << options.seed
              << (options.trace ? " (traced)" : "") << "\n"
              << result.human();
    std::cout << result.json() << std::endl;
    return rc != 0 || !result.correct() ? 1 : 0;
}
