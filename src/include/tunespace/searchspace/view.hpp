#pragma once
// SubSpace: an immutable, zero-copy filtered view over a resolved
// SearchSpace (including mmap-loaded snapshots).
//
// Constructing the constrained space once is what makes auto-tuning scale
// (§4); real tuning sessions then *restrict* that space repeatedly —
// hardware limits discovered at runtime, per-device shared-memory caps,
// user-pinned parameters.  A SubSpace applies such a restriction (a
// query::Predicate) without re-solving: the view borrows the parent's
// packed columns and indexes and only materializes a selection vector of
// parent row ids.  The rows are found by one block scan over the packed
// columns: each 64-row block is first classified by the parent's per-block
// code ranges (skipped when a conjunct admits none of them, passed whole
// when every conjunct admits all of them) and only the rest is decoded and
// tested against each conjunct's allowed values.
//
// Views are cheap value types (two pointers; the selection is shared), and
// refinement chains: `view.restrict(...)` starts from the parent view's row
// set instead of the full space.  A whole-space view carries no selection
// at all, so every optimizer can run over a SubSpace exactly as over the
// SearchSpace itself — rows are addressed by a dense *local* id in
// [0, size()), which for a whole-space view coincides with the parent row.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tunespace/searchspace/query.hpp"
#include "tunespace/searchspace/searchspace.hpp"

namespace tunespace::searchspace {

class SubSpace {
 public:
  /// Whole-space view: zero-copy, no selection vector.  Implicit so every
  /// API taking `const SubSpace&` accepts a SearchSpace directly.
  SubSpace(const SearchSpace& parent) : parent_(&parent) {}  // NOLINT implicit
  /// Views borrow their parent: constructing one from a temporary
  /// SearchSpace would dangle, so it is a compile error.
  SubSpace(const SearchSpace&&) = delete;

  /// Whole-space view sharing ownership of the parent — the concurrent
  /// runtime's shared-space handoff.  The view (and every restriction
  /// chained off it) keeps `parent` alive, so a session can safely outlive
  /// the registry entry that produced the space.  Throws
  /// std::invalid_argument on a null pointer.
  explicit SubSpace(std::shared_ptr<const SearchSpace> parent);

  /// Filtered view over `parent` (equivalent to a whole-space view
  /// restricted by `pred`).
  static SubSpace filter(const SearchSpace& parent, const query::Predicate& pred,
                         query::QueryStats* stats = nullptr);
  static SubSpace filter(const SearchSpace&&, const query::Predicate&,
                         query::QueryStats* = nullptr) = delete;

  /// Chained refinement: the restriction is evaluated over *this view's*
  /// row set, so narrowing an already-filtered view only visits the blocks
  /// that hold one of its rows.  A trivial predicate returns a view sharing
  /// this selection outright.  The first restriction of a space derives the
  /// parent's summary (searchspace.hpp), so on a snapshot loaded at
  /// SnapshotVerify::kShape with a code outside its domain it throws
  /// SnapshotError.
  SubSpace restrict(const query::Predicate& pred,
                    query::QueryStats* stats = nullptr) const;

  // --- Shape ----------------------------------------------------------------
  const SearchSpace& parent() const { return *parent_; }
  /// True for a whole-space view (local ids == parent row ids).
  bool is_whole() const { return sel_ == nullptr; }
  std::size_t size() const { return sel_ ? sel_->rows.size() : parent_->size(); }
  std::size_t count() const { return size(); }
  bool empty() const { return size() == 0; }
  std::size_t num_params() const { return parent_->num_params(); }
  const std::string& param_name(std::size_t p) const { return parent_->param_name(p); }
  const csp::Problem& problem() const { return parent_->problem(); }

  // --- Row addressing --------------------------------------------------------
  /// Parent row id of local row `local`.
  std::size_t parent_row(std::size_t local) const {
    return sel_ ? sel_->rows[local] : local;
  }
  /// Local id of a parent row, if it is a member of this view.
  std::optional<std::size_t> local_of(std::size_t parent_row) const;
  /// The selection vector (parent row ids, ascending).  Empty for a
  /// whole-space view, whose rows are implicitly [0, parent().size()).
  std::span<const std::uint32_t> selection() const {
    return sel_ ? std::span<const std::uint32_t>(sel_->rows)
                : std::span<const std::uint32_t>();
  }
  /// Parent row ids of the first min(k, size()) rows in enumeration order.
  std::vector<std::size_t> top_rows(std::size_t k) const;

  // --- Configuration access (local row ids) ----------------------------------
  std::vector<std::uint32_t> indices(std::size_t local) const {
    return parent_->indices(parent_row(local));
  }
  csp::Config config(std::size_t local) const {
    return parent_->config(parent_row(local));
  }
  const csp::Value& value(std::size_t local, std::size_t p) const {
    return parent_->value(parent_row(local), p);
  }
  std::uint32_t value_index(std::size_t local, std::size_t p) const {
    return parent_->value_index(parent_row(local), p);
  }

  // --- Lookup ---------------------------------------------------------------
  /// Local id of an index-row, if it is a valid configuration in this view.
  std::optional<std::size_t> find(const std::vector<std::uint32_t>& index_row) const;
  bool contains(const std::vector<std::uint32_t>& index_row) const {
    return find(index_row).has_value();
  }

  // --- True bounds within the view -------------------------------------------
  /// Domain value indices of parameter `p` that occur in at least one row of
  /// this view, ascending (the view's own §4.4 "true parameter bounds").
  /// Derived lazily on first use — restriction itself only selects rows —
  /// and thread-safe to trigger from concurrent readers.
  const std::vector<std::uint32_t>& present_values(std::size_t p) const;
  /// Distinct values of a parameter across the view, in domain order.
  std::vector<csp::Value> project(std::size_t p) const;
  std::vector<csp::Value> project(const std::string& param) const;

 private:
  /// Shared state of a filtered view; whole-space views have none.  `rows`
  /// is immutable after construction; `present` is a lazily-derived cache
  /// guarded by `present_once` (copies of the view share it).
  struct Selection {
    std::vector<std::uint32_t> rows;  ///< parent row ids, ascending
    mutable std::once_flag present_once;
    mutable std::vector<std::vector<std::uint32_t>> present;
  };

  SubSpace(const SearchSpace& parent, std::shared_ptr<const Selection> sel)
      : parent_(&parent), sel_(std::move(sel)) {}

  const SearchSpace* parent_;
  std::shared_ptr<const Selection> sel_;
  /// Optional shared ownership of the parent (see the shared_ptr
  /// constructor); restrictions propagate it so chained views stay safe.
  std::shared_ptr<const SearchSpace> keepalive_;
};

}  // namespace tunespace::searchspace
