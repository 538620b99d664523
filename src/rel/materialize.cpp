#include "rel/materialize.hpp"

#include "rel/translate.hpp"

namespace xr::rel {

namespace {

using rdb::Value;

void populate_metadata(const mapping::MappingResult& m, rdb::Database& db,
                       const RelationalSchema& schema) {
    if (rdb::Table* elements = db.table("xrel_elements")) {
        for (const auto& e : m.converted.elements) {
            elements->insert({Value::null(), Value(e.name),
                              Value(std::string(to_string(e.residual)))});
        }
    }

    if (rdb::Table* attrs = db.table("xrel_attributes")) {
        for (const auto& e : m.converted.elements) {
            for (const auto& a : e.attributes) {
                bool distilled = a.type == dtd::AttrType::kPCData;
                Value position = Value::null();
                for (const auto& d : m.metadata.distilled) {
                    if (d.element == e.name && d.attribute == a.name)
                        position = Value(static_cast<std::int64_t>(d.position));
                }
                attrs->insert({Value::null(), Value(e.name), Value(a.name),
                               Value(std::string(dtd::to_string(a.type))),
                               Value(std::string(dtd::to_string(a.default_kind))),
                               Value(a.default_value),
                               Value(static_cast<std::int64_t>(distilled)),
                               position});
            }
        }
    }

    if (rdb::Table* rels = db.table("xrel_relationships")) {
        for (const auto& r : m.model.relationships()) {
            for (const auto& member : r.members) {
                rels->insert(
                    {Value::null(), Value(r.name),
                     Value(std::string(er::to_string(r.kind))), Value(r.parent),
                     Value(member.entity),
                     Value(std::string(dtd::to_string(member.occurrence))),
                     Value(static_cast<std::int64_t>(member.choice)),
                     Value(static_cast<std::int64_t>(member.position))});
            }
        }
    }

    if (rdb::Table* order = db.table("xrel_schema_order")) {
        for (const auto& entry : m.metadata.schema_order) {
            for (std::size_t i = 0; i < entry.children_in_order.size(); ++i) {
                order->insert({Value::null(), Value(entry.element),
                               Value(static_cast<std::int64_t>(i)),
                               Value(entry.children_in_order[i])});
            }
        }
    }

    if (rdb::Table* map = db.table("xrel_mapping")) {
        for (const auto& t : schema.tables()) {
            if (t.kind == TableKind::kMetadata) continue;
            map->insert({Value::null(), Value(std::string(to_string(t.kind))),
                         Value(t.source2.empty() ? t.source
                                                 : t.source + "/" + t.source2),
                         Value(t.name)});
            for (const auto& c : t.columns) {
                if (c.role != ColumnRole::kAttribute) continue;
                map->insert({Value::null(), Value(std::string("attribute")),
                             Value(t.source + "/@" + c.source),
                             Value(t.name + "." + c.name)});
            }
        }
    }
}

}  // namespace

void materialize(const RelationalSchema& schema,
                 const mapping::MappingResult& mapping, rdb::Database& db,
                 const MaterializeOptions& options) {
    for (const auto& t : schema.tables()) {
        db.create_table(t.to_table_def());
        for (const auto& c : t.columns) {
            if (c.role == ColumnRole::kForeignKey && !c.references.empty())
                db.add_foreign_key({t.name, c.name, c.references, "pk"});
        }
        if (!options.create_indexes) continue;
        switch (t.kind) {
            case TableKind::kNestedRel:
                db.create_index(t.name, "parent_pk", options.index_kind);
                db.create_index(t.name, "child_pk", options.index_kind);
                break;
            case TableKind::kGroupRel:
                db.create_index(t.name, "parent_pk", options.index_kind);
                break;
            case TableKind::kGroupMemberLink:
                db.create_index(t.name, "group_pk", options.index_kind);
                db.create_index(t.name, "member_pk", options.index_kind);
                break;
            case TableKind::kReferenceRel:
                db.create_index(t.name, "source_pk", options.index_kind);
                db.create_index(t.name, "idref", options.index_kind);
                break;
            case TableKind::kIdRegistry:
                db.create_index(t.name, "idval", options.index_kind);
                break;
            case TableKind::kTextSegments:
            case TableKind::kOverflow:
                db.create_index(t.name, "parent_pk", options.index_kind);
                break;
            case TableKind::kEntity:
                // Structural index: interval containment joins binary-search
                // this sorted-by-pre index instead of scanning (DESIGN.md §10).
                if (t.column("pre") != nullptr)
                    db.create_index(t.name, "pre", rdb::IndexKind::kOrdered);
                break;
            case TableKind::kMetadata:
                break;
        }
    }
    if (options.populate_metadata) populate_metadata(mapping, db, schema);
}

}  // namespace xr::rel
