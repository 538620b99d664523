// Storage integrity (DESIGN.md §14): Database::verify() invariant
// coverage, typed CorruptionError context, the torn-tail vs mid-segment
// WAL rule, checkpoint verification, salvage repair, and seeded fuzzing
// of both storage readers (snapshot and WAL) under byte mutation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "helpers.hpp"
#include "rdb/database.hpp"
#include "rdb/integrity.hpp"
#include "rdb/snapshot.hpp"
#include "rdb/wal.hpp"

namespace xr {
namespace {

namespace fs = std::filesystem;

std::string article(int n) {
    std::string i = std::to_string(n);
    return "<article><title>t" + i + "</title><author id=\"a" + i +
           "\"><name><lastname>L" + i +
           "</lastname></name></author><contactauthor authorid=\"a" + i +
           "\"/></article>";
}

std::vector<std::string> corpus(int n) {
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i) out.push_back(article(i));
    return out;
}

std::string read_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << path;
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f.is_open()) << path;
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void flip_byte_at(const std::string& path, std::size_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ 0x5A));
}

/// Deterministic generator for the fuzz legs (no std::random to keep the
/// sequences identical across platforms).
struct Rng {
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed ^ 0x9E3779B97F4A7C15ull) {}
    std::uint64_t next() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    std::size_t below(std::size_t n) {
        return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
    }
};

/// One seeded mutation: bit flip, truncation, extension, or zeroed run.
std::string mutate(const std::string& pristine, Rng& rng) {
    std::string bytes = pristine;
    switch (rng.below(4)) {
        case 0: {  // flip one byte
            if (bytes.empty()) break;
            std::size_t at = rng.below(bytes.size());
            bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.below(8)));
            break;
        }
        case 1: {  // truncate
            bytes.resize(rng.below(bytes.size() + 1));
            break;
        }
        case 2: {  // extend with garbage
            std::size_t extra = 1 + rng.below(64);
            for (std::size_t i = 0; i < extra; ++i)
                bytes.push_back(static_cast<char>(rng.next() & 0xFF));
            break;
        }
        default: {  // zero a run
            if (bytes.empty()) break;
            std::size_t at = rng.below(bytes.size());
            std::size_t len = 1 + rng.below(16);
            for (std::size_t i = at; i < bytes.size() && i < at + len; ++i)
                bytes[i] = 0;
            break;
        }
    }
    return bytes;
}

struct ArmedFault {
    explicit ArmedFault(std::string_view point, long countdown = 1) {
        fault::arm(point, countdown);
    }
    ~ArmedFault() { fault::disarm(); }
};

// -- the report itself -------------------------------------------------------

TEST(Integrity, ReportCapsIssuesAndCountsSuppressed) {
    rdb::IntegrityReport report;
    for (int i = 0; i < 300; ++i)
        report.add({rdb::IntegrityIssue::Severity::kError, "check", "t", -1,
                    "issue " + std::to_string(i)});
    EXPECT_EQ(report.issues.size(), rdb::IntegrityReport::kMaxIssues);
    EXPECT_EQ(report.issues_suppressed,
              300 - rdb::IntegrityReport::kMaxIssues);
    EXPECT_EQ(report.errors(), 300u);
    EXPECT_FALSE(report.clean());
    EXPECT_NE(report.to_string().find("suppressed"), std::string::npos);
}

TEST(Integrity, CorruptionErrorCarriesContext) {
    CorruptionError e("CRC mismatch", "/data/snapshot-000001.xrs", 1234,
                      "section 2 (table)");
    EXPECT_EQ(e.file(), "/data/snapshot-000001.xrs");
    EXPECT_EQ(e.offset(), 1234u);
    EXPECT_EQ(e.section(), "section 2 (table)");
    std::string what = e.what();
    EXPECT_NE(what.find("snapshot-000001.xrs"), std::string::npos);
    EXPECT_NE(what.find("byte offset 1234"), std::string::npos);
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos);
    // And it still lands in the catch(Error&) sites the codebase uses.
    EXPECT_THROW(throw CorruptionError("x"), Error);
}

// -- verify() on healthy databases -------------------------------------------

TEST(Integrity, VerifyCleanOnLoadedCorpus) {
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(5)).ok());
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_EQ(report.docs_checked, 5u);
    EXPECT_GT(report.tables_checked, 0u);
    EXPECT_GT(report.rows_checked, 0u);
}

TEST(Integrity, VerifyCleanOnEmptyDatabase) {
    rdb::Database db;
    rdb::IntegrityReport report = db.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_EQ(report.tables_checked, 0u);
}

TEST(Integrity, VerifyCleanAfterRecovery) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    rdb::IntegrityReport report = reopened.db.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_EQ(report.docs_checked, 3u);
}

TEST(Integrity, VerifyRunsConcurrentlyWithWriters) {
    test::Stack stack(gen::paper_dtd());
    std::thread writer([&] {
        for (int i = 0; i < 20; ++i) {
            auto doc = xml::parse_document(article(i));
            stack.loader->load(*doc);
        }
    });
    // Every snapshot the checker takes must be internally consistent, no
    // matter where the writer is between units.
    for (int i = 0; i < 10; ++i) {
        rdb::IntegrityReport report = stack.db.verify();
        EXPECT_TRUE(report.clean()) << report.to_string();
    }
    writer.join();
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_EQ(report.docs_checked, 20u);
}

// -- targeted invariant violations -------------------------------------------

TEST(Integrity, VerifyFlagsOrphanedDocRows) {
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
    // Deregister the first document while its rows stay behind.
    rdb::Table* docs = stack.db.table("xrel_docs");
    ASSERT_NE(docs, nullptr);
    ASSERT_EQ(docs->row_count(), 2u);
    std::int64_t victim = docs->at(0, "doc").as_integer();
    ASSERT_EQ(docs->delete_where("doc", rdb::Value(victim)), 1u);
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_FALSE(report.clean());
    bool orphan = false;
    for (const auto& issue : report.issues)
        orphan = orphan || (issue.check == "doc-orphan" && issue.doc == victim);
    EXPECT_TRUE(orphan) << report.to_string();
}

TEST(Integrity, VerifyFlagsBrokenLabelCoverage) {
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(1)).ok());
    // Push one row's pre label outside the document's registered range.
    bool damaged = false;
    for (const auto& name : stack.db.table_names()) {
        rdb::Table* t = stack.db.table(name);
        if (name == "xrel_docs" || t->row_count() == 0) continue;
        int pre = t->def().column_index("pre");
        if (pre < 0) continue;
        t->update(0, "pre", rdb::Value(std::int64_t{1} << 40));
        damaged = true;
        break;
    }
    ASSERT_TRUE(damaged) << "no labeled table found";
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_FALSE(report.clean());
    bool coverage = false;
    for (const auto& issue : report.issues)
        coverage = coverage || (issue.check == "dietz-coverage" ||
                                issue.check == "dietz-nesting");
    EXPECT_TRUE(coverage) << report.to_string();
}

TEST(Integrity, VerifyFlagsDuplicateDocRegistration) {
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(1)).ok());
    rdb::Table* docs = stack.db.table("xrel_docs");
    ASSERT_NE(docs, nullptr);
    ASSERT_EQ(docs->row_count(), 1u);
    rdb::Row dup = docs->row(0);
    dup[0] = rdb::Value::null();  // fresh pk
    docs->insert(std::move(dup));
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_FALSE(report.clean());
    bool duplicate = false;
    for (const auto& issue : report.issues)
        duplicate = duplicate || issue.check == "doc-duplicate";
    EXPECT_TRUE(duplicate) << report.to_string();
}

TEST(Integrity, SalvageRepairQuarantinesBrokenDocument) {
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
    // Break doc 1's label interval.
    bool damaged = false;
    for (const auto& name : stack.db.table_names()) {
        rdb::Table* t = stack.db.table(name);
        if (name == "xrel_docs" || t->def().column_index("pre") < 0) continue;
        int dc = t->def().column_index("doc");
        if (dc < 0) continue;
        for (rdb::RowId id = 0; id < t->row_count() && !damaged; ++id) {
            if (t->row(id)[static_cast<std::size_t>(dc)].as_integer() != 1)
                continue;
            t->update(id, "pre", rdb::Value(std::int64_t{1} << 40));
            damaged = true;
        }
        if (damaged) break;
    }
    ASSERT_TRUE(damaged);
    ASSERT_FALSE(stack.db.verify().clean());

    rdb::SalvageReport sr;
    std::size_t quarantined = rdb::salvage_repair(stack.db, sr);
    EXPECT_EQ(quarantined, 1u);
    EXPECT_EQ(sr.docs_quarantined, 1u);
    EXPECT_GT(sr.rows_purged, 0u);
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();
    // Docs 0 and 2 stay; doc 1 is deregistered and traced in quarantine.
    rdb::Table* docs = stack.db.table("xrel_docs");
    ASSERT_NE(docs, nullptr);
    EXPECT_EQ(docs->row_count(), 2u);
    rdb::Table* q = stack.db.table("xrel_quarantine");
    ASSERT_NE(q, nullptr);
    ASSERT_EQ(q->row_count(), 1u);
    EXPECT_EQ(q->at(0, "idx").as_integer(), 1);
    EXPECT_EQ(q->at(0, "error_type").as_text(), "salvage");
    // Idempotent: a second pass finds nothing more to repair.
    rdb::SalvageReport again;
    EXPECT_EQ(rdb::salvage_repair(stack.db, again), 0u);
    EXPECT_FALSE(again.any());
}

// -- typed snapshot corruption ----------------------------------------------

TEST(Integrity, SnapshotCorruptionErrorNamesFileOffsetSection) {
    test::TempDir dir;
    rdb::Database db;
    db.open(dir.path());
    rdb::TableDef def;
    def.name = "t";
    def.columns.push_back({"id", rdb::ValueType::kInteger, true, true});
    def.columns.push_back({"val", rdb::ValueType::kText, false, false});
    rdb::Table& t = db.create_table(std::move(def));
    for (int i = 0; i < 16; ++i)
        t.insert({rdb::Value::null(), rdb::Value("v" + std::to_string(i))});
    db.checkpoint();
    std::string path = rdb::snapshot_file(dir.path(), 1);
    ASSERT_TRUE(fs::exists(path));
    flip_byte_at(path, 40);  // inside the first table section's payload

    rdb::Database target;
    try {
        xr::rdb::read_snapshot(path, target);
        FAIL() << "corrupt snapshot read back cleanly";
    } catch (const CorruptionError& e) {
        EXPECT_EQ(e.file(), path);
        EXPECT_GT(e.offset() + 1, 0u);  // offset is meaningful, not junk
        EXPECT_FALSE(e.section().empty());
        EXPECT_NE(std::string(e.what()).find("CRC mismatch"),
                  std::string::npos);
    }
}

TEST(Integrity, SnapshotSalvageDropsDamagedSectionAndReports) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(4)).ok());
        stack.db.checkpoint();
    }
    std::string snap = rdb::snapshot_file(dir.path(), 1);
    ASSERT_TRUE(fs::exists(snap));
    // Strict recovery still has the full WAL chain, so damage to the
    // snapshot alone is survivable; remove wal-0 to force the snapshot
    // to be the only source, then damage it.
    fs::remove(rdb::wal_file(dir.path(), 0));
    flip_byte_at(snap, fs::file_size(snap) / 2);

    {
        rdb::Database strict;
        EXPECT_THROW(strict.open(dir.path()), CorruptionError);
    }
    rdb::Database db;
    rdb::DurabilityOptions opts;
    opts.recovery = rdb::RecoveryMode::kSalvage;
    rdb::RecoveryReport report = db.open(dir.path(), opts);
    EXPECT_TRUE(report.salvage.attempted);
    EXPECT_TRUE(report.salvage.any());
    EXPECT_GT(report.salvage.snapshot_sections_dropped +
                  report.salvage.wal_segments_missing,
              0u);
    rdb::IntegrityReport integrity = db.verify();
    EXPECT_TRUE(integrity.clean()) << integrity.to_string();
    // The salvage open checkpointed a verified image: a plain strict
    // reopen must now succeed.
    {
        rdb::Database again;
        EXPECT_NO_THROW(again.open(dir.path()));
    }
}

// -- the torn-tail vs mid-segment WAL rule -----------------------------------

TEST(Integrity, MidSegmentWalCorruptionFailsStrictRecovery) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(4)).ok());
    }
    std::string wal = rdb::wal_file(dir.path(), 0);
    ASSERT_GT(fs::file_size(wal), 64u);
    // Damage the FIRST record while committed records follow: a crash
    // cannot produce this shape (appends are sequential), so treating it
    // as a torn tail would silently drop everything behind the flip.
    flip_byte_at(wal, 12);
    rdb::Database db;
    try {
        db.open(dir.path());
        FAIL() << "mid-segment corruption recovered as if torn";
    } catch (const CorruptionError& e) {
        EXPECT_EQ(e.file(), wal);
        EXPECT_NE(std::string(e.what()).find("mid-segment"),
                  std::string::npos);
    }
}

TEST(Integrity, TornRecordInOlderSegmentBreaksTheChain) {
    test::TempDir dir;
    {
        rdb::Database db;
        db.open(dir.path());
        rdb::TableDef def;
        def.name = "t";
        def.columns.push_back({"id", rdb::ValueType::kInteger, true, true});
        def.columns.push_back({"val", rdb::ValueType::kText, false, false});
        db.create_table(def);
        db.begin_unit();
        for (int i = 0; i < 8; ++i)
            db.require("t").insert(
                {rdb::Value::null(), rdb::Value("a" + std::to_string(i))});
        db.commit_unit();
        db.checkpoint();  // snapshot-1 + wal-1
        db.begin_unit();
        db.require("t").insert({rdb::Value::null(), rdb::Value("tail")});
        db.commit_unit();
    }
    // Force recovery through the wal-0 → wal-1 chain, then tear wal-0's
    // tail.  In the *newest* segment that tear would be truncated; one
    // segment earlier it means records the next segment depends on are
    // gone — recovery must refuse.
    fs::remove(rdb::snapshot_file(dir.path(), 1));
    std::string wal0 = rdb::wal_file(dir.path(), 0);
    fs::resize_file(wal0, fs::file_size(wal0) - 3);
    rdb::Database db;
    try {
        db.open(dir.path());
        FAIL() << "torn mid-chain segment recovered silently";
    } catch (const CorruptionError& e) {
        EXPECT_EQ(e.file(), wal0);
        EXPECT_NE(std::string(e.what()).find("torn record"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("not the newest segment"),
                  std::string::npos);
    }
}

// -- checkpoint verification -------------------------------------------------

TEST(Integrity, FailedCheckpointVerificationLeavesOldChainAuthoritative) {
    test::TempDir dir;
    std::vector<std::string> expected;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
        expected = test::db_fingerprint(stack.db);
        ArmedFault armed("snapshot.verify");
        EXPECT_THROW(stack.db.checkpoint(), fault::InjectedFault);
        // The unverifiable snapshot is gone and the WAL did not rotate.
        EXPECT_FALSE(fs::exists(rdb::snapshot_file(dir.path(), 1)));
        EXPECT_TRUE(fs::exists(rdb::wal_file(dir.path(), 0)));
        // The database keeps working, and a later checkpoint succeeds.
        EXPECT_NO_THROW(stack.db.checkpoint());
        EXPECT_TRUE(fs::exists(rdb::snapshot_file(dir.path(), 1)));
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_EQ(test::db_fingerprint(reopened.db), expected);
    EXPECT_EQ(reopened.recovery.snapshot_seq, 1u);
}

// -- seeded fuzz: both readers must degrade to typed errors ------------------

std::uint64_t fuzz_seed() {
    if (const char* env = std::getenv("XMLREL_FUZZ_SEED"))
        return std::strtoull(env, nullptr, 0);
    return 0xF00DFACEull;
}

TEST(Integrity, SnapshotFuzzStrictNeverCrashesOrMisreads) {
    test::TempDir dir;
    std::vector<std::string> baseline;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
        stack.db.checkpoint();
        baseline = test::db_fingerprint(stack.db);
    }
    std::string pristine = read_file(rdb::snapshot_file(dir.path(), 1));
    ASSERT_FALSE(pristine.empty());
    std::string fuzzed = dir.path() + "/fuzz.xrs";
    Rng rng(fuzz_seed());
    int survived = 0;
    for (int i = 0; i < 300; ++i) {
        std::string bytes = mutate(pristine, rng);
        write_file(fuzzed, bytes);
        rdb::Database strict;
        try {
            xr::rdb::read_snapshot(fuzzed, strict);
            // A read that passes every checksum must be byte-identical
            // data — anything else is a silent misread.
            EXPECT_EQ(test::db_fingerprint(strict), baseline)
                << "iteration " << i;
            ++survived;
        } catch (const Error&) {
            // typed failure: expected for nearly every mutation
        }
        rdb::Database salvage;
        rdb::SalvageReport sr;
        try {
            xr::rdb::read_snapshot_salvage(fuzzed, salvage, sr);
        } catch (const Error&) {
            // typed failure: header damage is unsalvageable by design
        }
    }
    // The only mutations a strict read survives are no-ops (flips that
    // hit the file twice, zero runs over zeros, …); corruption that
    // changes decoded bytes must never survive.
    SCOPED_TRACE("seed " + std::to_string(fuzz_seed()));
    EXPECT_LT(survived, 300);
}

TEST(Integrity, WalFuzzSalvageAlwaysYieldsVerifiablyCleanState) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
    }
    std::string pristine = read_file(rdb::wal_file(dir.path(), 0));
    ASSERT_FALSE(pristine.empty());
    Rng rng(fuzz_seed() ^ 0x5EEDull);
    for (int i = 0; i < 60; ++i) {
        test::TempDir scratch;
        write_file(rdb::wal_file(scratch.path(), 0), mutate(pristine, rng));
        {
            rdb::Database strict;
            try {
                strict.open(scratch.path());
                rdb::IntegrityReport report = strict.verify();
                EXPECT_TRUE(report.clean())
                    << "iteration " << i << ": " << report.to_string();
            } catch (const Error&) {
                // typed failure is an acceptable strict outcome
            }
        }
        rdb::Database salvage;
        rdb::DurabilityOptions opts;
        opts.recovery = rdb::RecoveryMode::kSalvage;
        try {
            salvage.open(scratch.path(), opts);
        } catch (const Error& e) {
            ADD_FAILURE() << "iteration " << i
                          << ": salvage open refused a damaged WAL: "
                          << e.what();
            continue;
        }
        rdb::IntegrityReport report = salvage.verify();
        EXPECT_TRUE(report.clean())
            << "iteration " << i << ": " << report.to_string();
    }
}

}  // namespace
}  // namespace xr
