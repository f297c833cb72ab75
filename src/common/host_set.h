// HostSet — a set of host ids with a small-set-inline representation.
//
// The protocol's copysets, invalidation-round accounting, membership masks,
// and probe/arrival sets were all `uint64_t` bitmasks, which capped clusters
// at 64 hosts. HostSet keeps the ≤64-host case exactly as cheap (one inline
// word, no allocation, the same bit operations) and spills to a dynamic
// bitmap — `vector<uint64_t>` of words 1..k — only when a host id ≥ 64 is
// inserted. All operations treat absent spill words as zero, so sets that
// grew and shrank across the 64-host boundary compare equal to ones that
// never spilled.
//
// Iteration order is ascending host id (lowest set bit first), matching the
// order the old mask code produced with ctz/drop-lowest-bit loops; replica
// rotation (DirEntry::PickReplica) depends on this.

#ifndef SRC_COMMON_HOST_SET_H_
#define SRC_COMMON_HOST_SET_H_

#include <cstdint>
#include <vector>

#include "src/common/logging.h"

namespace millipage {

// Hard ceiling on host ids, cluster-wide. The wire format's widened (v1)
// host field is 10 bits (src/net/message.h), so ids are [0, 1024). Any id at
// or past this bound is corrupt — HostSet operations fail loudly on it.
inline constexpr uint32_t kMaxHosts = 1024;

class HostSet {
 public:
  HostSet() = default;

  // The set {0..n-1}: every host of an n-host cluster.
  static HostSet AllBelow(uint32_t n) {
    MP_CHECK(n <= kMaxHosts) << "host count " << n << " above kMaxHosts";
    HostSet s;
    if (n == 0) {
      return s;
    }
    const uint32_t words = (n + 63) / 64;
    if (words > 1) {
      s.hi_.assign(words - 1, ~0ULL);
    }
    s.w0_ = ~0ULL;
    const uint32_t rem = n % 64;
    if (rem != 0) {
      uint64_t& last = words == 1 ? s.w0_ : s.hi_[words - 2];
      last = (1ULL << rem) - 1;
    }
    return s;
  }

  static HostSet Single(uint32_t h) {
    HostSet s;
    s.Add(h);
    return s;
  }

  bool Contains(uint32_t h) const {
    CheckId(h);
    if (h < 64) {
      return (w0_ >> h) & 1u;
    }
    const uint32_t word = h / 64 - 1;
    return word < hi_.size() && ((hi_[word] >> (h % 64)) & 1u);
  }

  void Add(uint32_t h) {
    CheckId(h);
    if (h < 64) {
      w0_ |= 1ULL << h;
      return;
    }
    const uint32_t word = h / 64 - 1;
    if (word >= hi_.size()) {
      hi_.resize(word + 1, 0);
    }
    hi_[word] |= 1ULL << (h % 64);
  }

  void Remove(uint32_t h) {
    CheckId(h);
    if (h < 64) {
      w0_ &= ~(1ULL << h);
      return;
    }
    const uint32_t word = h / 64 - 1;
    if (word < hi_.size()) {
      hi_[word] &= ~(1ULL << (h % 64));
    }
  }

  void Clear() {
    w0_ = 0;
    hi_.clear();
  }

  bool Empty() const {
    if (w0_ != 0) {
      return false;
    }
    for (uint64_t w : hi_) {
      if (w != 0) {
        return false;
      }
    }
    return true;
  }

  int Count() const {
    int n = __builtin_popcountll(w0_);
    for (uint64_t w : hi_) {
      n += __builtin_popcountll(w);
    }
    return n;
  }

  // Hosts 0..63 as a plain mask, for trace fields and log diagnostics.
  uint64_t LowWord() const { return w0_; }

  // Lowest host id in the set; -1 when empty.
  int First() const {
    if (w0_ != 0) {
      return __builtin_ctzll(w0_);
    }
    for (size_t i = 0; i < hi_.size(); ++i) {
      if (hi_[i] != 0) {
        return static_cast<int>((i + 1) * 64) + __builtin_ctzll(hi_[i]);
      }
    }
    return -1;
  }

  void UnionWith(const HostSet& o) {
    w0_ |= o.w0_;
    if (o.hi_.size() > hi_.size()) {
      hi_.resize(o.hi_.size(), 0);
    }
    for (size_t i = 0; i < o.hi_.size(); ++i) {
      hi_[i] |= o.hi_[i];
    }
  }

  void IntersectWith(const HostSet& o) {
    w0_ &= o.w0_;
    if (hi_.size() > o.hi_.size()) {
      hi_.resize(o.hi_.size());
    }
    for (size_t i = 0; i < hi_.size(); ++i) {
      hi_[i] &= o.hi_[i];
    }
  }

  void SubtractAll(const HostSet& o) {
    w0_ &= ~o.w0_;
    const size_t n = hi_.size() < o.hi_.size() ? hi_.size() : o.hi_.size();
    for (size_t i = 0; i < n; ++i) {
      hi_[i] &= ~o.hi_[i];
    }
  }

  bool Intersects(const HostSet& o) const {
    if ((w0_ & o.w0_) != 0) {
      return true;
    }
    const size_t n = hi_.size() < o.hi_.size() ? hi_.size() : o.hi_.size();
    for (size_t i = 0; i < n; ++i) {
      if ((hi_[i] & o.hi_[i]) != 0) {
        return true;
      }
    }
    return false;
  }

  // Superset test: every host of `o` is in *this.
  bool ContainsAll(const HostSet& o) const {
    if ((o.w0_ & ~w0_) != 0) {
      return false;
    }
    for (size_t i = 0; i < o.hi_.size(); ++i) {
      const uint64_t mine = i < hi_.size() ? hi_[i] : 0;
      if ((o.hi_[i] & ~mine) != 0) {
        return false;
      }
    }
    return true;
  }

  bool operator==(const HostSet& o) const {
    if (w0_ != o.w0_) {
      return false;
    }
    const size_t n = hi_.size() > o.hi_.size() ? hi_.size() : o.hi_.size();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t a = i < hi_.size() ? hi_[i] : 0;
      const uint64_t b = i < o.hi_.size() ? o.hi_[i] : 0;
      if (a != b) {
        return false;
      }
    }
    return true;
  }
  bool operator!=(const HostSet& o) const { return !(*this == o); }

  // The n-th member in ascending host-id order (n in [0, Count())). This is
  // the old mask code's "drop n lowest set bits, take ctz" — PickReplica's
  // rotation order is defined by it.
  uint32_t SelectNth(int n) const {
    MP_CHECK(n >= 0) << "SelectNth with negative index";
    uint64_t w = w0_;
    uint32_t base = 0;
    size_t next = 0;
    for (;;) {
      const int pc = __builtin_popcountll(w);
      if (n < pc) {
        while (n-- > 0) {
          w &= w - 1;  // drop lowest set bit
        }
        return base + static_cast<uint32_t>(__builtin_ctzll(w));
      }
      n -= pc;
      MP_CHECK(next < hi_.size()) << "SelectNth index past set population";
      w = hi_[next++];
      base += 64;
    }
  }

  // Visit members in ascending host-id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t w = w0_; w != 0; w &= w - 1) {
      fn(static_cast<uint32_t>(__builtin_ctzll(w)));
    }
    for (size_t i = 0; i < hi_.size(); ++i) {
      const uint32_t base = static_cast<uint32_t>((i + 1) * 64);
      for (uint64_t w = hi_[i]; w != 0; w &= w - 1) {
        fn(base + static_cast<uint32_t>(__builtin_ctzll(w)));
      }
    }
  }

 private:
  static void CheckId(uint32_t h) {
    MP_CHECK(h < kMaxHosts) << "host id " << h << " out of range (kMaxHosts = " << kMaxHosts
                            << ", the wire format's 10-bit host field)";
  }

  uint64_t w0_ = 0;                // hosts 0..63 — never allocates
  std::vector<uint64_t> hi_;       // hosts 64.. in words 1..k (spill)
};

}  // namespace millipage

#endif  // SRC_COMMON_HOST_SET_H_
