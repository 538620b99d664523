// Persistent (path-copying) B+Tree: the one index structure behind every
// table index — primary key, hash role and ordered role alike
// (DESIGN.md §15).
//
// Nodes are immutable once shared.  Every node records the writer epoch
// that created it; share() hands out a tree that references the current
// nodes and moves the writer to a fresh epoch, so the next write copies
// each node on its root-to-leaf path before touching it (path copying)
// and mutates nodes of its own epoch in place.  A commit therefore copies
// O(changed leaves · height) nodes, and a retired version frees only the
// nodes it did not share.  share() is how a table publishes a frozen
// version and how a load unit takes a savepoint; rolling back is
// restore() of the saved tree.
//
// Threading: one writer; any number of readers holding shared trees.
// Shared nodes are never written, and reference counts are atomic, so a
// reader may drop the last reference to a retired version while the
// writer copies nodes of the current one.  Epochs come from one global
// counter, so no two trees ever stamp nodes with the same epoch.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace xr::rdb {

namespace btree_detail {
inline std::atomic<std::uint64_t> epoch_source{1};
inline std::uint64_t fresh_epoch() {
    return epoch_source.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace btree_detail

/// A sorted set of unique `Entry`s ordered by `Less`.  `Less` may also
/// compare entries against a probe type (both argument orders), which
/// lower_bound() accepts.
template <typename Entry, typename Less>
class BTree {
    struct Node;
    struct Leaf;
    struct Inner;

public:
    /// Entries per leaf and children per inner node: ~1 KiB nodes.
    static constexpr std::size_t kCap = sizeof(Entry) <= 16 ? 64 : 32;

    BTree() : epoch_(btree_detail::fresh_epoch()) {}
    ~BTree() { release(root_); }
    // A moved-from tree takes a new epoch: no two trees may write nodes
    // under the same one.
    BTree(BTree&& o) noexcept
        : root_(std::exchange(o.root_, nullptr)),
          size_(std::exchange(o.size_, 0)),
          epoch_(std::exchange(o.epoch_, btree_detail::fresh_epoch())),
          fresh_(o.fresh_),
          copied_(o.copied_),
          trees_cowed_(o.trees_cowed_),
          nodes_cowed_(o.nodes_cowed_) {}
    BTree& operator=(BTree&& o) noexcept {
        if (this != &o) {
            release(root_);
            root_ = std::exchange(o.root_, nullptr);
            size_ = std::exchange(o.size_, 0);
            epoch_ = std::exchange(o.epoch_, btree_detail::fresh_epoch());
            fresh_ = o.fresh_;
            copied_ = o.copied_;
            trees_cowed_ = o.trees_cowed_;
            nodes_cowed_ = o.nodes_cowed_;
        }
        return *this;
    }
    BTree(const BTree&) = delete;
    BTree& operator=(const BTree&) = delete;

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    // -- versions ------------------------------------------------------------
    /// A tree sharing every node of this one.  The writer moves to a new
    /// epoch first (only if it created nodes since the last share), so
    /// later writes here copy before they touch a shared node and the
    /// returned tree never changes.  Writer-side only.
    [[nodiscard]] BTree share() {
        if (fresh_) {
            epoch_ = btree_detail::fresh_epoch();
            fresh_ = false;
            copied_ = false;
        }
        BTree out;
        out.root_ = acquire(root_);
        out.size_ = size_;
        return out;
    }

    /// Roll back to a tree an earlier share() returned (a savepoint):
    /// adopt its root and size under a new epoch, so the adopted nodes,
    /// which other versions may share, are copied before any write.
    /// Copy-on-write counters stay with this tree.
    void restore(BTree&& saved) {
        release(root_);
        root_ = std::exchange(saved.root_, nullptr);
        size_ = std::exchange(saved.size_, 0);
        epoch_ = btree_detail::fresh_epoch();
        fresh_ = false;
    }

    /// Replace the contents with `sorted` (ascending, unique), built
    /// bottom-up in O(n): full leaves, then each inner level over them.
    void assign_sorted(std::vector<Entry> sorted) {
        release(root_);
        root_ = nullptr;
        size_ = sorted.size();
        if (sorted.empty()) return;
        fresh_ = true;
        std::vector<Node*> level;
        std::vector<Entry> mins;  // smallest entry under each node of `level`
        level.reserve(sorted.size() / kCap + 1);
        mins.reserve(sorted.size() / kCap + 1);
        for (std::size_t i = 0; i < sorted.size(); i += kCap) {
            Leaf* l = new_leaf();
            std::size_t n = std::min(kCap, sorted.size() - i);
            mins.push_back(sorted[i]);
            std::move(sorted.begin() + static_cast<std::ptrdiff_t>(i),
                      sorted.begin() + static_cast<std::ptrdiff_t>(i + n),
                      l->items);
            l->count = static_cast<std::uint32_t>(n);
            level.push_back(l);
        }
        while (level.size() > 1) {
            std::vector<Node*> up;
            std::vector<Entry> up_mins;
            up.reserve(level.size() / kCap + 1);
            up_mins.reserve(level.size() / kCap + 1);
            for (std::size_t i = 0; i < level.size(); i += kCap) {
                Inner* in = new_inner();
                std::size_t n = std::min(kCap, level.size() - i);
                for (std::size_t k = 0; k < n; ++k) {
                    in->kids[k] = level[i + k];
                    if (k > 0) in->keys[k] = mins[i + k];
                }
                in->count = static_cast<std::uint32_t>(n);
                up_mins.push_back(std::move(mins[i]));
                up.push_back(in);
            }
            level = std::move(up);
            mins = std::move(up_mins);
        }
        root_ = level.front();
    }

    // -- writes --------------------------------------------------------------
    /// Insert `e`; false (and no change) when an equal entry exists.
    /// Appends past the current maximum take the rightmost path without
    /// searching and split leaves full-left, so ascending keys pack.
    bool insert(Entry e) {
        if (root_ == nullptr) root_ = new_leaf();
        Split split;
        Result r = insert_rec(root_, std::move(e), true, split);
        if (r == Result::kDuplicate) return false;
        if (r == Result::kSplit) {
            Inner* top = new_inner();
            top->kids[0] = root_;
            top->kids[1] = split.right;
            top->keys[1] = std::move(split.sep);
            top->count = 2;
            root_ = top;
        }
        ++size_;
        return true;
    }

    /// Remove the entry equal to `e`; false when absent.  Emptied nodes
    /// are unlinked; partly filled ones are not merged (index erases are
    /// rare: cell updates of indexed columns only).
    bool erase(const Entry& e) {
        if (!contains(e)) return false;
        if (erase_rec(root_, e)) {
            release(root_);
            root_ = nullptr;
        } else if (!root_->leaf && root_->count == 1) {
            Node* kid = acquire(static_cast<Inner*>(root_)->kids[0]);
            release(root_);
            root_ = kid;
        }
        --size_;
        return true;
    }

    // -- reads ---------------------------------------------------------------
    /// Forward cursor over entries in order; holds the root-to-leaf path.
    class Cursor {
    public:
        [[nodiscard]] bool done() const { return depth_ == 0; }
        [[nodiscard]] const Entry& operator*() const {
            return static_cast<const Leaf*>(path_[depth_ - 1])
                ->items[idx_[depth_ - 1]];
        }
        [[nodiscard]] const Entry* operator->() const { return &**this; }
        void next() {
            if (++idx_[depth_ - 1] < path_[depth_ - 1]->count) return;
            // Leaf exhausted: climb to the first ancestor with a next
            // child, then descend to that subtree's leftmost leaf.
            while (--depth_ > 0) {
                if (++idx_[depth_ - 1] < path_[depth_ - 1]->count) {
                    descend_leftmost(
                        static_cast<const Inner*>(path_[depth_ - 1])
                            ->kids[idx_[depth_ - 1]]);
                    return;
                }
            }
        }

    private:
        friend class BTree;
        static constexpr int kMaxDepth = 32;
        void push(const Node* n, std::uint32_t i) {
            assert(depth_ < kMaxDepth);
            path_[depth_] = n;
            idx_[depth_] = i;
            ++depth_;
        }
        void descend_leftmost(const Node* n) {
            for (;;) {
                push(n, 0);
                if (n->leaf) return;
                n = static_cast<const Inner*>(n)->kids[0];
            }
        }
        const Node* path_[kMaxDepth];  // [0, depth_) valid
        std::uint32_t idx_[kMaxDepth];
        int depth_ = 0;
    };

    [[nodiscard]] Cursor begin() const {
        Cursor c;
        if (root_ != nullptr && size_ > 0) c.descend_leftmost(root_);
        return c;
    }

    /// Cursor at the first entry not less than `probe`.
    template <typename Probe>
    [[nodiscard]] Cursor lower_bound(const Probe& probe) const {
        Cursor c;
        if (root_ == nullptr || size_ == 0) return c;
        const Node* n = root_;
        while (!n->leaf) {
            const Inner* in = static_cast<const Inner*>(n);
            // The first entry >= probe lies under the last child whose
            // separator is < probe (or is the next child's first entry,
            // which Cursor::next() reaches).
            std::uint32_t i = lower_index(in->keys + 1, in->count - 1, probe);
            c.push(n, i);
            n = in->kids[i];
        }
        const Leaf* l = static_cast<const Leaf*>(n);
        std::uint32_t at = lower_index(l->items, l->count, probe);
        c.push(n, at);
        if (at == l->count) {
            --c.idx_[c.depth_ - 1];  // re-enter next() at the leaf's end
            c.next();
        }
        return c;
    }

    /// The stored entry equal to `probe`, or nullptr.  Descends to the
    /// one child whose range can hold it; no cursor.
    template <typename Probe>
    [[nodiscard]] const Entry* find(const Probe& probe) const {
        if (root_ == nullptr) return nullptr;
        const Node* n = root_;
        while (!n->leaf) {
            const auto* in = static_cast<const Inner*>(n);
            n = in->kids[upper_index(in->keys + 1, in->count - 1, probe)];
        }
        const auto* l = static_cast<const Leaf*>(n);
        std::uint32_t at = lower_index(l->items, l->count, probe);
        if (at == l->count || Less{}(probe, l->items[at])) return nullptr;
        return &l->items[at];
    }
    [[nodiscard]] bool contains(const Entry& e) const {
        return find(e) != nullptr;
    }

    // -- copy-on-write accounting (MvccStats) --------------------------------
    /// Share periods in which this tree copied at least one node.
    [[nodiscard]] std::uint64_t trees_cowed() const { return trees_cowed_; }
    /// Nodes copied because a shared version still referenced them.
    [[nodiscard]] std::uint64_t nodes_cowed() const { return nodes_cowed_; }

    /// Rough heap footprint of the entries (bench metric).
    [[nodiscard]] std::size_t memory_bytes() const {
        return size_ * (sizeof(Entry) + sizeof(Entry) / 4);
    }

private:
    struct Node {
        std::atomic<std::uint32_t> refs{1};
        std::uint32_t count = 0;  ///< entries (leaf) or children (inner)
        std::uint64_t epoch = 0;  ///< writer epoch that created the node
        bool leaf = true;
    };
    struct Leaf : Node {
        Entry items[kCap];
    };
    /// keys[i] (i >= 1) bounds child i: every entry under kids[i] is >=
    /// keys[i] and every entry under kids[i-1] is < keys[i].  keys[0] is
    /// unused.  Erases may leave a separator below its subtree's minimum,
    /// which keeps both bounds true.
    struct Inner : Node {
        Entry keys[kCap];
        Node* kids[kCap];
    };

    enum class Result { kDone, kSplit, kDuplicate };
    struct Split {
        Entry sep;  ///< smallest entry under `right`
        Node* right = nullptr;
    };

    static Node* acquire(Node* n) {
        if (n != nullptr) n->refs.fetch_add(1, std::memory_order_relaxed);
        return n;
    }
    static void release(Node* n) {
        if (n == nullptr ||
            n->refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
            return;
        if (n->leaf) {
            delete static_cast<Leaf*>(n);
            return;
        }
        auto* in = static_cast<Inner*>(n);
        for (std::uint32_t i = 0; i < in->count; ++i) release(in->kids[i]);
        delete in;
    }

    Leaf* new_leaf() {
        auto* l = new Leaf;
        l->epoch = epoch_;
        fresh_ = true;
        return l;
    }
    Inner* new_inner() {
        auto* in = new Inner;
        in->leaf = false;
        in->epoch = epoch_;
        fresh_ = true;
        return in;
    }

    /// The node in `slot`, made private to the current epoch: a node a
    /// shared tree may still reference is copied and the copy swapped in.
    Node* writable(Node*& slot) {
        Node* n = slot;
        if (n->epoch == epoch_) return n;
        ++nodes_cowed_;
        if (!copied_) {
            copied_ = true;
            ++trees_cowed_;
        }
        Node* copy;
        if (n->leaf) {
            const auto* from = static_cast<const Leaf*>(n);
            Leaf* l = new_leaf();
            std::copy(from->items, from->items + from->count, l->items);
            copy = l;
        } else {
            const auto* from = static_cast<const Inner*>(n);
            Inner* in = new_inner();
            std::copy(from->keys + 1, from->keys + from->count, in->keys + 1);
            for (std::uint32_t i = 0; i < from->count; ++i)
                in->kids[i] = acquire(from->kids[i]);
            copy = in;
        }
        copy->count = n->count;
        release(n);
        slot = copy;
        return copy;
    }

    /// Number of entries in [a, a + n) less than `probe` — a binary
    /// search whose steps compile to conditional moves for arithmetic
    /// keys, so probes pay no branch mispredictions.
    template <typename Probe>
    static std::uint32_t lower_index(const Entry* a, std::uint32_t n,
                                     const Probe& probe) {
        const Less less;
        if (n == 0) return 0;
        const Entry* base = a;
        while (n > 1) {
            std::uint32_t half = n / 2;
            base = less(base[half], probe) ? base + half : base;
            n -= half;
        }
        return static_cast<std::uint32_t>(base - a) + (less(*base, probe) ? 1 : 0);
    }
    /// Number of entries in [a, a + n) not greater than `probe`.
    template <typename Probe>
    static std::uint32_t upper_index(const Entry* a, std::uint32_t n,
                                     const Probe& probe) {
        const Less less;
        if (n == 0) return 0;
        const Entry* base = a;
        while (n > 1) {
            std::uint32_t half = n / 2;
            base = less(probe, base[half]) ? base : base + half;
            n -= half;
        }
        return static_cast<std::uint32_t>(base - a) + (less(probe, *base) ? 0 : 1);
    }

    /// Index of the child of `in` that holds (or would hold) `e`.
    static std::uint32_t child_for(const Inner* in, const Entry& e) {
        return upper_index(in->keys + 1, in->count - 1, e);
    }

    Result insert_rec(Node*& slot, Entry&& e, bool rightmost, Split& out) {
        const Less less;
        Node* n = writable(slot);
        if (n->leaf) {
            auto* l = static_cast<Leaf*>(n);
            std::uint32_t pos;
            if (rightmost && l->count > 0 && less(l->items[l->count - 1], e)) {
                pos = l->count;  // append fast path
            } else {
                pos = lower_index(l->items, l->count, e);
                if (pos < l->count && !less(e, l->items[pos]))
                    return Result::kDuplicate;
            }
            if (l->count < kCap) {
                insert_at(l->items, l->count, pos, std::move(e));
                ++l->count;
                return Result::kDone;
            }
            Leaf* right = new_leaf();
            if (rightmost && pos == kCap) {
                // Ascending append: keep the left leaf full.
                right->items[0] = std::move(e);
                right->count = 1;
            } else {
                constexpr std::uint32_t mid = kCap / 2;
                std::move(l->items + mid, l->items + kCap, right->items);
                std::fill(l->items + mid, l->items + kCap, Entry{});
                l->count = mid;
                right->count = kCap - mid;
                if (pos <= mid) {
                    insert_at(l->items, l->count, pos, std::move(e));
                    ++l->count;
                } else {
                    insert_at(right->items, right->count, pos - mid,
                              std::move(e));
                    ++right->count;
                }
            }
            out.sep = right->items[0];
            out.right = right;
            return Result::kSplit;
        }

        auto* in = static_cast<Inner*>(n);
        std::uint32_t i = rightmost && !less(e, in->keys[in->count - 1])
                              ? in->count - 1
                              : child_for(in, e);
        bool kid_rightmost = rightmost && i == in->count - 1;
        Split sub;
        Result r = insert_rec(in->kids[i], std::move(e), kid_rightmost, sub);
        if (r != Result::kSplit) return r;

        std::uint32_t pos = i + 1;  // where the new child goes
        if (in->count < kCap) {
            insert_child(in, pos, std::move(sub));
            return Result::kDone;
        }
        Inner* right = new_inner();
        if (kid_rightmost && pos == kCap) {
            right->kids[0] = sub.right;
            right->count = 1;
            out.sep = std::move(sub.sep);
        } else {
            constexpr std::uint32_t mid = kCap / 2;
            std::move(in->keys + mid, in->keys + kCap, right->keys);
            std::fill(in->keys + mid, in->keys + kCap, Entry{});
            std::copy(in->kids + mid, in->kids + kCap, right->kids);
            in->count = mid;
            right->count = kCap - mid;
            out.sep = std::move(right->keys[0]);
            right->keys[0] = Entry{};
            if (pos <= mid) insert_child(in, pos, std::move(sub));
            else insert_child(right, pos - mid, std::move(sub));
        }
        out.right = right;
        return Result::kSplit;
    }

    /// Erase `e` (known present) below `slot`; true when the node emptied.
    bool erase_rec(Node*& slot, const Entry& e) {
        Node* n = writable(slot);
        if (n->leaf) {
            auto* l = static_cast<Leaf*>(n);
            Entry* at = l->items + lower_index(l->items, l->count, e);
            std::move(at + 1, l->items + l->count, at);
            l->items[--l->count] = Entry{};
            return l->count == 0;
        }
        auto* in = static_cast<Inner*>(n);
        std::uint32_t i = child_for(in, e);
        if (!erase_rec(in->kids[i], e)) return false;
        release(in->kids[i]);
        std::move(in->keys + i + 1, in->keys + in->count, in->keys + i);
        std::copy(in->kids + i + 1, in->kids + in->count, in->kids + i);
        --in->count;
        in->keys[in->count] = Entry{};
        return in->count == 0;
    }

    static void insert_at(Entry* items, std::uint32_t count, std::uint32_t pos,
                          Entry&& e) {
        std::move_backward(items + pos, items + count, items + count + 1);
        items[pos] = std::move(e);
    }
    static void insert_child(Inner* in, std::uint32_t pos, Split&& sub) {
        std::move_backward(in->keys + pos, in->keys + in->count,
                           in->keys + in->count + 1);
        std::copy_backward(in->kids + pos, in->kids + in->count,
                           in->kids + in->count + 1);
        in->keys[pos] = std::move(sub.sep);
        in->kids[pos] = sub.right;
        ++in->count;
    }

    Node* root_ = nullptr;
    std::size_t size_ = 0;
    std::uint64_t epoch_;
    bool fresh_ = false;   ///< nodes of epoch_ exist (share() must re-epoch)
    bool copied_ = false;  ///< copied a node since the last re-epoch
    std::uint64_t trees_cowed_ = 0;
    std::uint64_t nodes_cowed_ = 0;
};

}  // namespace xr::rdb
