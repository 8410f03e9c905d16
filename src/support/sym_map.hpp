// SymMap<V>: a flat, sorted, SymId-keyed map.
//
// The analysis layers keep many tiny environments (tile sizes, substitution
// bindings, affine coefficients) that used to be std::map<std::string, V>.
// Symbol counts are small (a handful to a few dozen), so a sorted vector with
// binary search beats a node-based tree by a wide margin: one contiguous
// allocation, integer comparisons, cache-friendly iteration.
//
// Iteration order is SymId order (first-intern order) — deterministic within
// a run, but not lexicographic; render paths that need name order must sort
// by name explicitly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <string_view>
#include <utility>
#include <vector>

#include "support/interner.hpp"

namespace soap {

template <class V>
class SymMap {
 public:
  using value_type = std::pair<SymId, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  SymMap() = default;
  SymMap(std::initializer_list<value_type> init) {
    for (const value_type& kv : init) set(kv.first, kv.second);
  }
  /// Name-keyed literal, e.g. `e.eval({{"N", 2.0}})`: interns each name.
  SymMap(std::initializer_list<std::pair<std::string_view, V>> init) {
    for (const auto& kv : init) set(kv.first, kv.second);
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Inserts or overwrites the binding for `id`.
  void set(SymId id, V value) {
    auto it = lower_bound(id);
    if (it != entries_.end() && it->first == id) {
      it->second = std::move(value);
    } else {
      entries_.insert(it, value_type(id, std::move(value)));
    }
  }
  /// Convenience: interns `name` and binds it.
  void set(std::string_view name, V value) {
    set(intern_symbol(name), std::move(value));
  }

  /// Pointer to the bound value, or nullptr when absent.
  [[nodiscard]] const V* find(SymId id) const {
    auto it = lower_bound(id);
    return it != entries_.end() && it->first == id ? &it->second : nullptr;
  }
  [[nodiscard]] V* find(SymId id) {
    auto it = lower_bound(id);
    return it != entries_.end() && it->first == id ? &it->second : nullptr;
  }
  [[nodiscard]] bool contains(SymId id) const { return find(id) != nullptr; }

  /// Value reference, default-constructing the binding when absent.
  V& operator[](SymId id) {
    auto it = lower_bound(id);
    if (it == entries_.end() || it->first != id) {
      it = entries_.insert(it, value_type(id, V()));
    }
    return it->second;
  }

  void erase(SymId id) {
    auto it = lower_bound(id);
    if (it != entries_.end() && it->first == id) entries_.erase(it);
  }
  void clear() { entries_.clear(); }

  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  friend bool operator==(const SymMap& a, const SymMap& b) {
    return a.entries_ == b.entries_;
  }
  friend bool operator!=(const SymMap& a, const SymMap& b) {
    return !(a == b);
  }

 private:
  typename std::vector<value_type>::iterator lower_bound(SymId id) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const value_type& kv, SymId key) { return kv.first < key; });
  }
  [[nodiscard]] typename std::vector<value_type>::const_iterator lower_bound(
      SymId id) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const value_type& kv, SymId key) { return kv.first < key; });
  }

  std::vector<value_type> entries_;  // invariant: sorted by SymId, unique
};

/// Sorted set of SymIds with a 64-bit bloom mask for fast negative lookups.
/// This is the shape of the per-node symbol caches in the symbolic core and
/// of the "which variables does this term involve" sets in the bounds layer.
class SymIdSet {
 public:
  SymIdSet() = default;
  explicit SymIdSet(std::vector<SymId> sorted_unique)
      : ids_(std::move(sorted_unique)) {
    for (SymId id : ids_) mask_ |= bit(id);
  }

  static SymIdSet from_unsorted(std::vector<SymId> ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return SymIdSet(std::move(ids));
  }

  [[nodiscard]] bool contains(SymId id) const {
    if ((mask_ & bit(id)) == 0) return false;
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }
  [[nodiscard]] bool empty() const { return ids_.empty(); }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] const std::vector<SymId>& ids() const { return ids_; }
  [[nodiscard]] std::uint64_t mask() const { return mask_; }

  [[nodiscard]] auto begin() const { return ids_.begin(); }
  [[nodiscard]] auto end() const { return ids_.end(); }

 private:
  static std::uint64_t bit(SymId id) { return 1ULL << (id.value & 63u); }

  std::vector<SymId> ids_;  // sorted, unique
  std::uint64_t mask_ = 0;
};

}  // namespace soap
