#ifndef MFGCP_BASELINES_REQUEST_CACHE_H_
#define MFGCP_BASELINES_REQUEST_CACHE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"

// Request-level cache decision engines for the discrete-event request
// simulator (sim/request_engine.h). Where the CachingPolicy interface in
// core/policy.h answers "at what *rate* should an EDP cache content k"
// (the mean-field planning granularity), these policies answer the
// request-granular question the paper's headline metrics are about: "is
// content k resident when a request for it arrives" — cache hit ratio,
// access delay, and backhaul load per scheme.
//
// All state is flat arrays indexed by content id (no per-entry nodes, no
// hashing): Reset sizes every vector once for a catalog shape, and
// OnRequest then runs allocation-free at tens of millions of requests per
// second. The request engine's `allocs_per_replay=0` contract
// (tests/sim/request_alloc_test.cc) covers every policy here.
//
// Determinism: OnRequest has no randomness; every eviction tie is broken
// toward the smaller content id, so a replay's statistics depend only on
// the request stream.

namespace mfg::baselines {

// A cache of `capacity` whole contents over a catalog of `num_contents`.
// Capacity is counted in contents (the paper's homogeneous Q_k catalog);
// the engine converts a MB budget before Reset.
class RequestCachePolicy {
 public:
  virtual ~RequestCachePolicy() = default;

  // Rebinds to a catalog shape and clears all cache state. `prior` is the
  // popularity prior (one weight per content; schemes that ignore it
  // accept an empty span). Storage is reused: calling Reset again with
  // the same shape is allocation-free.
  virtual common::Status Reset(std::size_t num_contents, std::size_t capacity,
                               std::span<const double> prior) = 0;

  // Serves one request: returns true on a cache hit, false on a miss, and
  // applies the scheme's admission/eviction rule. Must not allocate.
  virtual bool OnRequest(std::uint32_t content) = 0;

  // True when `content` is currently resident (introspection for tests
  // and the engine's placement export).
  virtual bool IsCached(std::uint32_t content) const = 0;

  virtual std::string_view name() const = 0;
};

// Least Recently Used: classic full-admission LRU over an intrusive
// doubly-linked list threaded through flat prev/next arrays (the
// onlineJCCP exemplar's cache_list, without pointer nodes). A hit moves
// the content to the front; a miss admits it, evicting the back.
class LruCache final : public RequestCachePolicy {
 public:
  common::Status Reset(std::size_t num_contents, std::size_t capacity,
                       std::span<const double> prior) override;
  bool OnRequest(std::uint32_t content) override;
  bool IsCached(std::uint32_t content) const override;
  std::string_view name() const override { return "LRU"; }

 private:
  void Unlink(std::uint32_t content);
  void PushFront(std::uint32_t content);

  std::size_t capacity_ = 0;
  std::size_t resident_ = 0;
  // Sentinel-free list: head_/tail_ are kNil when empty.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint8_t> cached_;
};

// Shared base of the count-ordered caches (LFU and PG below). The
// resident set is a binary min-heap of resident ids keyed by (lifetime
// request count, id), plus a content -> heap-slot index. (count, id) is a
// strict total order over residents, so the heap top is exactly the
// eviction victim both caches define — the fewest requests, ties toward
// the smaller id — and each request costs O(log C) instead of a scan over
// all C residents. Counts cover every content, resident or not, and
// persist across evictions.
class CountOrderedCache : public RequestCachePolicy {
 public:
  common::Status Reset(std::size_t num_contents, std::size_t capacity,
                       std::span<const double> prior) override;
  bool IsCached(std::uint32_t content) const override {
    return slot_[content] != kNoSlot;
  }

 protected:
  // Counts one request for `content` and returns true when it is
  // resident (a hit), sifting it down to its new key.
  bool CountRequest(std::uint32_t content);
  bool full() const { return size_ == capacity_; }
  std::uint64_t count(std::uint32_t content) const { return count_[content]; }
  // Count of the top resident, the next victim; requires full().
  std::uint64_t min_count() const { return heap_[0].count; }
  // Admits a non-resident `content` while the cache is not full.
  void Push(std::uint32_t content);
  // Evicts the top resident and admits a non-resident `content`.
  void ReplaceTop(std::uint32_t content);

 private:
  struct Entry {
    std::uint64_t count;
    std::uint32_t id;
  };
  static bool Before(const Entry& a, const Entry& b) {
    return a.count < b.count || (a.count == b.count && a.id < b.id);
  }
  void SiftDown(std::size_t hole, Entry entry);
  void SiftUp(std::size_t hole, Entry entry);
  void Place(std::size_t slot, const Entry& entry) {
    heap_[slot] = entry;
    slot_[entry.id] = static_cast<std::uint32_t>(slot);
  }

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  // Heap order over slots [0, size_); sized min(capacity, catalog).
  std::vector<Entry> heap_;
  std::vector<std::uint32_t> slot_;   // kNoSlot when not resident.
  std::vector<std::uint64_t> count_;
};

// Least Frequently Used: full admission; eviction removes the resident
// content with the fewest lifetime requests (ties toward the smaller id),
// the heap top. Frequencies persist across evictions (perfect-LFU, not
// in-cache-LFU), which is the stronger and simpler-to-reason-about
// variant.
class LfuCache final : public CountOrderedCache {
 public:
  bool OnRequest(std::uint32_t content) override;
  std::string_view name() const override { return "LFU"; }
};

// Popularity-greedy: admit-on-compare against the running empirical
// popularity (the prior is ignored). A miss is admitted only when the
// requested content's observed request count (after this request) exceeds
// the count of the least-requested resident — the heap top — which it
// then evicts. Unlike LRU/LFU it can *decline* to cache a cold content —
// the online greedy heuristic the MFG-CP plan is benchmarked against.
class PopularityGreedyCache final : public CountOrderedCache {
 public:
  bool OnRequest(std::uint32_t content) override;
  std::string_view name() const override { return "PG"; }
};

// A fixed placement that never changes at request time: the base of the
// static most-popular baseline (set = top-capacity of the prior), the
// offline upper bound (set = top-capacity of the realized stream counts),
// and the MFG-CP plan consumer (set refreshed by the replan hook at epoch
// boundaries — static *within* an epoch, adaptive across them).
class StaticSetCache final : public RequestCachePolicy {
 public:
  explicit StaticSetCache(std::string_view name = "MPC") : name_(name) {}

  // Seeds the placement with the top-capacity contents by `prior` (ties
  // toward the smaller id). An empty prior leaves the cache empty until
  // Assign.
  common::Status Reset(std::size_t num_contents, std::size_t capacity,
                       std::span<const double> prior) override;
  bool OnRequest(std::uint32_t content) override;
  bool IsCached(std::uint32_t content) const override;
  std::string_view name() const override { return name_; }

  // Replaces the placement with the top-capacity contents by `score`
  // (one entry per content). Allocation-free after Reset.
  common::Status AssignTopByScore(std::span<const double> score);

  // Replaces the placement with an explicit content set (at most
  // `capacity` ids, each < num_contents).
  common::Status Assign(std::span<const std::uint32_t> contents);

  std::span<const std::uint32_t> placement() const { return residents_; }

 private:
  std::string_view name_;
  std::size_t num_contents_ = 0;
  std::size_t capacity_ = 0;
  std::vector<std::uint8_t> cached_;
  std::vector<std::uint32_t> residents_;
  // Scratch for AssignTopByScore's partial selection.
  std::vector<std::uint32_t> order_;
};

// Writes the indices of the `capacity` largest scores into `out`
// (descending by score, ties toward the smaller index; `out` is resized
// to min(capacity, score.size())). Shared by StaticSetCache and the
// offline-bound construction in the gauntlet.
void SelectTopByScore(std::span<const double> score, std::size_t capacity,
                      std::vector<std::uint32_t>& out);

}  // namespace mfg::baselines

#endif  // MFGCP_BASELINES_REQUEST_CACHE_H_
