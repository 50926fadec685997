#ifndef ALDSP_COMMON_LRU_MAP_H_
#define ALDSP_COMMON_LRU_MAP_H_

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace aldsp {

/// A hash map that keeps its entries in recency order. Every operation is
/// O(1): entries live in a recency list and a hash index maps each key to
/// its list node, so marking an entry recent splices one node instead of
/// searching the list, and the list and the index always hold the same
/// keys. The index refers to the key stored in the node, so each key is
/// stored once. Not synchronized.
template <typename K, typename V>
class LruMap {
 public:
  LruMap() = default;
  // The index points into the list's nodes, so a copy would alias them.
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  /// The value for `key` without changing its recency, or null.
  V* Peek(const K& key) {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }
  const V* Peek(const K& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  /// The value for `key`, marked most recently used, or null.
  V* Touch(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  /// Stores `value` under `key` as the most recently used entry, replacing
  /// the value of a key already present.
  V& Put(const K& key, V value) {
    if (V* present = Touch(key)) {
      *present = std::move(value);
      return *present;
    }
    order_.push_front(Entry{key, std::move(value)});
    index_.emplace(std::cref(order_.front().key), order_.begin());
    return order_.front().value;
  }

  /// Evicts least recently used entries until fewer than `capacity`
  /// remain, so one new key fits. Returns how many were evicted.
  size_t MakeRoom(size_t capacity) {
    size_t evicted = 0;
    while (!order_.empty() && index_.size() >= capacity) {
      index_.erase(order_.back().key);
      order_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  /// Calls `fn(key, value)` for every entry, most recently used first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : order_) fn(e.key, e.value);
  }

  size_t size() const { return index_.size(); }
  /// Length of the recency list; equal to size() by construction.
  size_t recency_size() const { return order_.size(); }
  void clear() {
    index_.clear();
    order_.clear();
  }

 private:
  struct Entry {
    K key;
    V value;
  };
  using KeyRef = std::reference_wrapper<const K>;
  struct KeyHash {
    size_t operator()(KeyRef k) const { return std::hash<K>{}(k.get()); }
  };
  struct KeyEq {
    bool operator()(KeyRef a, KeyRef b) const { return a.get() == b.get(); }
  };

  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<KeyRef, typename std::list<Entry>::iterator, KeyHash,
                     KeyEq>
      index_;
};

}  // namespace aldsp

#endif  // ALDSP_COMMON_LRU_MAP_H_
