// Data loading: plan matcher, row shapes, group segmentation, ordering
// columns, distilled values, ID registry and IDREF resolution.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sql/executor.hpp"
#include "loader/plan.hpp"
#include "sql/executor.hpp"

namespace xr::loader {
namespace {

using rdb::Value;
using test::Stack;

// -- matcher -------------------------------------------------------------------

std::vector<MatchEvent> match(Stack& stack, const std::string& element,
                              std::vector<std::string> children) {
    const dtd::ElementDecl* decl = stack.mapping.grouped.element(element);
    PlanNode plan = build_plan(stack.mapping.grouped, stack.mapping.metadata,
                               *decl);
    std::vector<std::string_view> names(children.begin(), children.end());
    std::vector<MatchEvent> events;
    EXPECT_TRUE(match_children(plan, names, events));
    return events;
}

TEST(Plan, ArticleGroupSegmentation) {
    Stack stack(gen::paper_dtd());
    auto events = match(stack, "article",
                        {"title", "author", "affiliation", "author",
                         "contactauthor"});
    // Two G2 instances: (author, affiliation) and (author).
    int enters = 0, exits = 0, matches = 0;
    for (const auto& e : events) {
        if (e.type == MatchEvent::Type::kEnterGroup) ++enters;
        if (e.type == MatchEvent::Type::kExitGroup) ++exits;
        if (e.type == MatchEvent::Type::kMatchChild) ++matches;
    }
    EXPECT_EQ(enters, 2);
    EXPECT_EQ(exits, 2);
    EXPECT_EQ(matches, 5);
    // First event is matching 'title' at position 0, outside any group.
    EXPECT_EQ(events[0].type, MatchEvent::Type::kMatchChild);
    EXPECT_EQ(events[0].pos, 0u);
    EXPECT_EQ(events[1].type, MatchEvent::Type::kEnterGroup);
}

TEST(Plan, BookChoiceGroup) {
    Stack stack(gen::paper_dtd());
    auto a = match(stack, "book", {"booktitle", "editor"});
    EXPECT_EQ(a.size(), 4u);  // booktitle, enter G1, editor, exit G1
    auto b = match(stack, "book", {"booktitle", "author", "author"});
    int matches = 0;
    for (const auto& e : b)
        if (e.type == MatchEvent::Type::kMatchChild) ++matches;
    EXPECT_EQ(matches, 3);
}

TEST(Plan, RejectsInvalidSequences) {
    Stack stack(gen::paper_dtd());
    const dtd::ElementDecl* decl = stack.mapping.grouped.element("article");
    PlanNode plan = build_plan(stack.mapping.grouped, stack.mapping.metadata,
                               *decl);
    std::vector<MatchEvent> events;
    std::vector<std::string_view> bad = {"title"};
    EXPECT_FALSE(match_children(plan, bad, events));
    EXPECT_TRUE(events.empty());
    std::vector<std::string_view> bad2 = {"title", "affiliation"};
    EXPECT_FALSE(match_children(plan, bad2, events));
}

// -- loading -------------------------------------------------------------------

TEST(Loader, PaperSampleDocumentRowShapes) {
    Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document(gen::paper_sample_document());
    stack.loader->load(*doc);

    // One article with its title distilled into a column.
    const rdb::Table& article = stack.db.require("article");
    ASSERT_EQ(article.row_count(), 1u);
    EXPECT_EQ(article.at(0, "title").as_text(), "XML RDBMS");

    // Two authors; two NG2 group instances; one affiliation.
    EXPECT_EQ(stack.db.require("author").row_count(), 2u);
    EXPECT_EQ(stack.db.require("ng2").row_count(), 2u);
    EXPECT_EQ(stack.db.require("affiliation").row_count(), 1u);

    // name rows carry distilled firstname/lastname.
    const rdb::Table& name = stack.db.require("name");
    ASSERT_EQ(name.row_count(), 2u);
    EXPECT_EQ(name.at(0, "firstname").as_text(), "John");
    EXPECT_EQ(name.at(0, "lastname").as_text(), "Smith");
    EXPECT_EQ(name.at(1, "lastname").as_text(), "Brown");

    // The ANY element stored its raw content.
    const rdb::Table& affiliation = stack.db.require("affiliation");
    EXPECT_EQ(affiliation.at(0, "raw_xml").as_text(), "GTE Laboratories");
}

TEST(Loader, GroupInstancesLinkMembers) {
    Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document(gen::paper_sample_document());
    stack.loader->load(*doc);

    // NG2 instance 1 links author 1 and the affiliation; instance 2 links
    // author 2 only.
    const rdb::Table& ng2 = stack.db.require("ng2");
    EXPECT_FALSE(ng2.at(0, "author_pk").is_null());
    EXPECT_FALSE(ng2.at(0, "affiliation_pk").is_null());
    EXPECT_FALSE(ng2.at(1, "author_pk").is_null());
    EXPECT_TRUE(ng2.at(1, "affiliation_pk").is_null());
    // Data ordering: group instances carry their child positions.
    EXPECT_LT(ng2.at(0, "ord").as_integer(), ng2.at(1, "ord").as_integer());
}

TEST(Loader, IdRegistryAndReferenceResolution) {
    Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document(gen::paper_sample_document());
    stack.loader->load(*doc);

    const rdb::Table& ids = stack.db.require("xrel_ids");
    ASSERT_EQ(ids.row_count(), 2u);
    EXPECT_EQ(ids.at(0, "idval").as_text(), "a1");
    EXPECT_EQ(ids.at(0, "entity").as_text(), "author");

    const rdb::Table& refs = stack.db.require("ref_authorid");
    ASSERT_EQ(refs.row_count(), 1u);
    EXPECT_EQ(refs.at(0, "idref").as_text(), "a1");
    EXPECT_EQ(refs.at(0, "target_entity").as_text(), "author");
    EXPECT_EQ(refs.at(0, "target_pk").as_integer(),
              ids.at(0, "entity_pk").as_integer());
    EXPECT_EQ(stack.loader->stats().resolved_references, 1u);
    EXPECT_EQ(stack.loader->stats().unresolved_references, 0u);
}

TEST(Loader, ForeignKeysHoldAfterLoad) {
    Stack stack(gen::paper_dtd());
    for (auto& doc : gen::bibliography_corpus(10, 150, 3))
        stack.loader->load(*doc);
    EXPECT_TRUE(stack.db.check_foreign_keys().empty());
}

TEST(Loader, OrdColumnsRecoverDocumentOrder) {
    Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document(gen::paper_sample_document());
    stack.loader->load(*doc);
    // The paper (Section 3, Ordering): John precedes Dave.  Join the NG2
    // ordering back to names via SQL.
    auto rs = sql::execute(stack.db,
                           "SELECT name.firstname FROM ng2 "
                           "JOIN author ON author.pk = ng2.author_pk "
                           "JOIN nname ON nname.parent_pk = author.pk "
                           "JOIN name ON name.pk = nname.child_pk "
                           "ORDER BY ng2.ord");
    ASSERT_EQ(rs.row_count(), 2u);
    EXPECT_EQ(rs.at(0, 0).as_text(), "John");
    EXPECT_EQ(rs.at(1, 0).as_text(), "Dave");
}

TEST(Loader, MultipleDocumentsKeepDocIds) {
    Stack stack(gen::paper_dtd());
    auto d1 = xml::parse_document(gen::paper_sample_document());
    auto d2 = xml::parse_document(gen::paper_sample_document());
    std::int64_t id1 = stack.loader->load(*d1);
    std::int64_t id2 = stack.loader->load(*d2);
    EXPECT_NE(id1, id2);
    auto rs = sql::execute(stack.db,
                           "SELECT doc, COUNT(*) FROM author GROUP BY doc");
    EXPECT_EQ(rs.row_count(), 2u);
    // IDs are per-document: 'a1' twice in the registry, resolution stays
    // within each document.
    const rdb::Table& refs = stack.db.require("ref_authorid");
    EXPECT_EQ(refs.at(0, "doc").as_integer(), id1);
    EXPECT_EQ(refs.at(1, "doc").as_integer(), id2);
    EXPECT_NE(refs.at(0, "target_pk").as_integer(),
              refs.at(1, "target_pk").as_integer());
}

TEST(Loader, InvalidDocumentRejectedWhenValidating) {
    Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document("<article><title>t</title></article>");
    EXPECT_THROW(stack.loader->load(*doc), ValidationError);
}

TEST(Loader, StrictModeRejectsUnmappedElements) {
    Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document(
        "<article><title>t</title><mystery/><author id=\"a\"><name>"
        "<lastname>x</lastname></name></author></article>");
    loader::LoadOptions options;
    options.validate = false;
    EXPECT_THROW(stack.loader->load(*doc, options), ValidationError);
}

TEST(Loader, LenientModeSkipsUnknownSubtrees) {
    Stack stack(
        "<!ELEMENT a (b*)>"
        "<!ELEMENT b (#PCDATA)>");
    auto doc = xml::parse_document("<a><b>one</b><x><b>ignored</b></x><b>two</b></a>");
    loader::LoadOptions options;
    options.validate = false;
    options.strict = false;
    stack.loader->load(*doc, options);
    EXPECT_EQ(stack.db.require("b").row_count(), 2u);
    EXPECT_GT(stack.loader->stats().skipped_elements, 0u);
}

TEST(Loader, MixedContentNestedRowsKeepNodeOrder) {
    Stack stack(
        "<!ELEMENT p (#PCDATA | em)*>"
        "<!ELEMENT em (#PCDATA)>");
    xml::ParseOptions popt;
    popt.keep_whitespace_text = true;
    auto doc = xml::parse_document(
        "<p>alpha <em>beta</em> gamma <em>delta</em></p>", popt);
    stack.loader->load(*doc);
    const rdb::Table& p = stack.db.require("p");
    ASSERT_EQ(p.row_count(), 1u);
    EXPECT_NE(p.at(0, "pcdata").as_text().find("alpha"), std::string::npos);
    const rdb::Table& em = stack.db.require("em");
    EXPECT_EQ(em.row_count(), 2u);
    const rdb::Table& nem = stack.db.require("nem");
    ASSERT_EQ(nem.row_count(), 2u);
    EXPECT_LT(nem.at(0, "ord").as_integer(), nem.at(1, "ord").as_integer());
}

TEST(Loader, RecursiveDtdLoads) {
    // The paper DTD is recursive (editor → book → editor); exercise a
    // nested editor chain explicitly.
    Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document(
        "<article><title>t</title>"
        "<author id=\"a1\"><name><lastname>smith</lastname></name></author>"
        "</article>");
    stack.loader->load(*doc);
    EXPECT_EQ(stack.db.require("article").row_count(), 1u);

    Stack stack2(gen::paper_dtd());
    // book under editor under book: validate + load.
    dtd::Dtd d2 = gen::paper_dtd();
    auto nested = xml::parse_document(
        "<article><title>t</title>"
        "<author id=\"a1\"><name><lastname>s</lastname></name></author>"
        "<contactauthor authorid=\"a1\"/></article>");
    stack2.loader->load(*nested);
    EXPECT_EQ(stack2.loader->stats().resolved_references, 1u);
}

TEST(Loader, EmptyGroupContentRoundTrips) {
    // book with zero authors: the choice arm author* matches emptily, so a
    // NG1 instance exists with no member links.
    Stack stack(gen::paper_dtd());
    dtd::Dtd d = gen::paper_dtd();
    auto doc = xml::parse_document(
        "<article><title>t</title>"
        "<author id=\"a1\"><name><lastname>s</lastname></name></author>"
        "</article>");
    stack.loader->load(*doc);
    EXPECT_EQ(stack.db.require("ng1").row_count(), 0u);
}

TEST(Loader, UnloadRemovesExactlyOneDocument) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(3, 120, 31);
    std::vector<std::int64_t> ids;
    for (auto& doc : corpus) ids.push_back(stack.loader->load(*doc));
    std::size_t rows_before = stack.db.require("author").row_count();

    std::size_t removed = stack.loader->unload(ids[1]);
    EXPECT_GT(removed, 0u);
    EXPECT_LT(stack.db.require("author").row_count(), rows_before);

    // The other documents are untouched and still consistent.
    EXPECT_TRUE(stack.db.check_foreign_keys().empty());
    auto remaining = sql::execute(stack.db,
                                  "SELECT DISTINCT doc FROM article ORDER BY 1");
    ASSERT_EQ(remaining.row_count(), 2u);
    EXPECT_EQ(remaining.at(0, 0).as_integer(), ids[0]);
    EXPECT_EQ(remaining.at(1, 0).as_integer(), ids[2]);

    // Unloading twice (or an unknown id) is an error.
    EXPECT_THROW(stack.loader->unload(ids[1]), SchemaError);
    EXPECT_THROW(stack.loader->unload(999), SchemaError);
}

TEST(Loader, ReloadAfterUnload) {
    Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document(gen::paper_sample_document());
    std::int64_t id = stack.loader->load(*doc);
    stack.loader->unload(id);
    EXPECT_EQ(stack.db.require("article").row_count(), 0u);
    std::int64_t id2 = stack.loader->load(*doc);
    EXPECT_NE(id2, id);
    EXPECT_EQ(stack.db.require("article").row_count(), 1u);
    EXPECT_TRUE(stack.db.check_foreign_keys().empty());
}

// Per-document resolution scans only rows appended since the last pass
// that committed; a fresh Loader's full pass over the same database must
// then find nothing left to resolve and count the same unresolved rows —
// across unloads (compaction), rolled-back outer units and loads with
// resolution off.
TEST(Loader, IncrementalResolutionMatchesFullPass) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(8, 80, 17);
    auto dangling = xml::parse_document(
        "<article><title>t</title>"
        "<author id=\"a1\"><name><lastname>s</lastname></name></author>"
        "<contactauthor authorid=\"nobody\"/></article>");
    loader::LoadOptions unvalidated;
    unvalidated.validate = false;
    auto check = [&](const char* step) {
        loader::Loader fresh(stack.logical, stack.mapping, stack.schema,
                             stack.db);
        fresh.resolve_references();
        EXPECT_EQ(fresh.stats().resolved_references, 0u) << step;
        EXPECT_EQ(fresh.stats().unresolved_references,
                  stack.loader->stats().unresolved_references)
            << step;
    };
    std::vector<std::int64_t> ids;
    ids.push_back(stack.loader->load(*corpus[0]));
    ids.push_back(stack.loader->load(*dangling, unvalidated));
    ids.push_back(stack.loader->load(*corpus[1]));
    check("after loads");
    stack.loader->unload(ids[0]);
    ids.push_back(stack.loader->load(*corpus[2]));
    check("after unload and reload");
    stack.db.begin_unit();
    stack.loader->load(*corpus[3]);
    stack.db.rollback_unit();
    ids.push_back(stack.loader->load(*corpus[4]));
    check("after a rolled-back outer unit");
    loader::LoadOptions deferred;
    deferred.resolve_references = false;
    stack.loader->load(*corpus[5], deferred);
    ids.push_back(stack.loader->load(*dangling, unvalidated));
    check("after a deferred load");
    EXPECT_EQ(stack.loader->stats().unresolved_references, 2u);
}

TEST(Loader, StatsAccumulate) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(5, 100, 9);
    for (auto& doc : corpus) {
        loader::LoadOptions options;
        options.resolve_references = false;
        stack.loader->load(*doc, options);
    }
    stack.loader->resolve_references();
    const LoadStats& st = stack.loader->stats();
    EXPECT_EQ(st.documents, 5u);
    EXPECT_GT(st.entity_rows, 0u);
    EXPECT_GT(st.relationship_rows, 0u);
    EXPECT_EQ(st.entity_rows + st.relationship_rows + st.reference_rows,
              st.total_rows());
    EXPECT_EQ(st.unresolved_references, 0u);
}

}  // namespace
}  // namespace xr::loader
