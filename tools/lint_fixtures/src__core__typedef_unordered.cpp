// Fixture: unordered containers hidden behind typedef/using aliases and
// behind a function returning one.  No iteration below names
// `unordered_map` itself, so the linter must resolve each alias to the
// container type before unordered-iter can see it; the std::map alias is
// the negative.
//
// Hermetic std:: stand-ins keep the fixture free of system headers; the
// type names are what the linter keys on, not the library's
// implementation.

namespace std {

template <typename K, typename V>
struct umap_entry {
  K first;
  V second;
};

template <typename K, typename V>
struct unordered_map {
  using value_type = umap_entry<K, V>;
  struct iterator {
    value_type* pos;
    iterator& operator++() { return *this; }
    bool operator!=(const iterator& other) const { return pos != other.pos; }
    value_type& operator*() const { return *pos; }
  };
  iterator begin() const { return iterator{nullptr}; }
  iterator end() const { return iterator{nullptr}; }
  iterator find(const K&) const { return iterator{nullptr}; }
};

template <typename K, typename V>
struct map {
  using value_type = umap_entry<K, V>;
  struct iterator {
    value_type* pos;
    iterator& operator++() { return *this; }
    bool operator!=(const iterator& other) const { return pos != other.pos; }
    value_type& operator*() const { return *pos; }
  };
  iterator begin() const { return iterator{nullptr}; }
  iterator end() const { return iterator{nullptr}; }
};

}  // namespace std

namespace yoso {

using CacheTable = std::unordered_map<int, double>;
typedef std::unordered_map<int, int> HitCounts;
using SortedTable = std::map<int, double>;

double sum_cache(const CacheTable& table) {
  double total = 0.0;
  for (const auto& entry : table) {  // expect-lint: unordered-iter
    total += entry.second;
  }
  return total;
}

int walk_hits(HitCounts& hits) {
  int n = 0;
  for (auto it = hits.begin(); it != hits.end(); ++it) {  // expect-lint: unordered-iter
    ++n;
  }
  return n;
}

CacheTable copy_cache(const CacheTable& table) {
  return table;
}

double sum_twice(const CacheTable& table) {
  double total = 0.0;
  for (const auto& entry : copy_cache(table)) {  // expect-lint: unordered-iter
    total += entry.second;
  }
  return total;
}

// Not violations: iteration over an ordered alias, and unordered lookups
// that never depend on iteration order.
double sum_sorted(const SortedTable& totals) {
  double total = 0.0;
  for (const auto& entry : totals) {
    total += entry.second;
  }
  return total;
}

bool cache_has(const CacheTable& table, int key) {
  auto hit = table.find(key);
  return hit != table.end();
}

}  // namespace yoso
