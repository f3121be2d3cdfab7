#include "baselines/request_cache.h"

#include <algorithm>

namespace mfg::baselines {

namespace {

common::Status ValidateShape(std::size_t num_contents, std::size_t capacity,
                             std::span<const double> prior) {
  if (num_contents == 0) {
    return common::Status::InvalidArgument("catalog must be non-empty");
  }
  if (num_contents > 0xFFFFFFFEull) {
    return common::Status::InvalidArgument("catalog too large for uint32 ids");
  }
  if (capacity == 0) {
    return common::Status::InvalidArgument("cache capacity must be positive");
  }
  if (!prior.empty() && prior.size() != num_contents) {
    return common::Status::InvalidArgument(
        "prior must have one weight per content");
  }
  return common::Status::Ok();
}

}  // namespace

void SelectTopByScore(std::span<const double> score, std::size_t capacity,
                      std::vector<std::uint32_t>& out) {
  const std::size_t take = std::min(capacity, score.size());
  out.clear();
  out.reserve(score.size());
  for (std::uint32_t k = 0; k < score.size(); ++k) out.push_back(k);
  // Descending by score; the smaller id wins a tie, so the selection is a
  // pure function of the score vector.
  const auto better = [&](std::uint32_t a, std::uint32_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  };
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(take),
                    out.end(), better);
  out.resize(take);
}

// ---------------------------------------------------------------- LruCache

common::Status LruCache::Reset(std::size_t num_contents, std::size_t capacity,
                               std::span<const double> prior) {
  if (auto status = ValidateShape(num_contents, capacity, prior); !status.ok()) {
    return status;
  }
  capacity_ = capacity;
  resident_ = 0;
  head_ = kNil;
  tail_ = kNil;
  prev_.assign(num_contents, kNil);
  next_.assign(num_contents, kNil);
  cached_.assign(num_contents, 0);
  return common::Status::Ok();
}

void LruCache::Unlink(std::uint32_t content) {
  const std::uint32_t p = prev_[content];
  const std::uint32_t n = next_[content];
  if (p != kNil) next_[p] = n; else head_ = n;
  if (n != kNil) prev_[n] = p; else tail_ = p;
}

void LruCache::PushFront(std::uint32_t content) {
  prev_[content] = kNil;
  next_[content] = head_;
  if (head_ != kNil) prev_[head_] = content;
  head_ = content;
  if (tail_ == kNil) tail_ = content;
}

bool LruCache::OnRequest(std::uint32_t content) {
  if (cached_[content]) {
    if (head_ != content) {
      Unlink(content);
      PushFront(content);
    }
    return true;
  }
  if (resident_ == capacity_) {
    const std::uint32_t victim = tail_;
    Unlink(victim);
    cached_[victim] = 0;
    --resident_;
  }
  cached_[content] = 1;
  PushFront(content);
  ++resident_;
  return false;
}

bool LruCache::IsCached(std::uint32_t content) const {
  return cached_[content] != 0;
}

// ------------------------------------------------------- CountOrderedCache

common::Status CountOrderedCache::Reset(std::size_t num_contents,
                                        std::size_t capacity,
                                        std::span<const double> prior) {
  if (auto status = ValidateShape(num_contents, capacity, prior); !status.ok()) {
    return status;
  }
  capacity_ = capacity;
  size_ = 0;
  heap_.resize(std::min(capacity, num_contents));
  slot_.assign(num_contents, kNoSlot);
  count_.assign(num_contents, 0);
  return common::Status::Ok();
}

bool CountOrderedCache::CountRequest(std::uint32_t content) {
  const std::uint64_t count = ++count_[content];
  const std::uint32_t slot = slot_[content];
  if (slot == kNoSlot) return false;
  // The key only grows, so the resident can only move down.
  SiftDown(slot, Entry{count, content});
  return true;
}

void CountOrderedCache::Push(std::uint32_t content) {
  SiftUp(size_++, Entry{count_[content], content});
}

void CountOrderedCache::ReplaceTop(std::uint32_t content) {
  slot_[heap_[0].id] = kNoSlot;
  SiftDown(0, Entry{count_[content], content});
}

void CountOrderedCache::SiftDown(std::size_t hole, Entry entry) {
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= size_) break;
    if (child + 1 < size_ && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], entry)) break;
    Place(hole, heap_[child]);
    hole = child;
  }
  Place(hole, entry);
}

void CountOrderedCache::SiftUp(std::size_t hole, Entry entry) {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!Before(entry, heap_[parent])) break;
    Place(hole, heap_[parent]);
    hole = parent;
  }
  Place(hole, entry);
}

// ---------------------------------------------------------------- LfuCache

bool LfuCache::OnRequest(std::uint32_t content) {
  if (CountRequest(content)) return true;
  if (full()) {
    ReplaceTop(content);
  } else {
    Push(content);
  }
  return false;
}

// --------------------------------------------- PopularityGreedyCache

bool PopularityGreedyCache::OnRequest(std::uint32_t content) {
  if (CountRequest(content)) return true;
  if (!full()) {
    Push(content);
  } else if (count(content) > min_count()) {
    // Admit only when strictly more requested than the coldest resident —
    // a tie keeps the incumbent, so a stream of singletons cannot churn a
    // warm cache.
    ReplaceTop(content);
  }
  return false;
}

// ----------------------------------------------------------- StaticSetCache

common::Status StaticSetCache::Reset(std::size_t num_contents,
                                     std::size_t capacity,
                                     std::span<const double> prior) {
  if (auto status = ValidateShape(num_contents, capacity, prior); !status.ok()) {
    return status;
  }
  num_contents_ = num_contents;
  capacity_ = capacity;
  cached_.assign(num_contents, 0);
  residents_.clear();
  residents_.reserve(capacity);
  order_.clear();
  order_.reserve(num_contents);
  if (prior.empty()) return common::Status::Ok();
  return AssignTopByScore(prior);
}

common::Status StaticSetCache::AssignTopByScore(std::span<const double> score) {
  if (score.size() != num_contents_) {
    return common::Status::InvalidArgument(
        "score must have one entry per content");
  }
  SelectTopByScore(score, capacity_, order_);
  return Assign(order_);
}

common::Status StaticSetCache::Assign(std::span<const std::uint32_t> contents) {
  if (contents.size() > capacity_) {
    return common::Status::InvalidArgument("placement exceeds cache capacity");
  }
  for (const std::uint32_t k : contents) {
    if (k >= num_contents_) {
      return common::Status::InvalidArgument("placement content out of range");
    }
  }
  std::fill(cached_.begin(), cached_.end(), std::uint8_t{0});
  residents_.clear();
  for (const std::uint32_t k : contents) {
    if (cached_[k]) continue;
    cached_[k] = 1;
    residents_.push_back(k);
  }
  return common::Status::Ok();
}

bool StaticSetCache::OnRequest(std::uint32_t content) {
  return cached_[content] != 0;
}

bool StaticSetCache::IsCached(std::uint32_t content) const {
  return cached_[content] != 0;
}

}  // namespace mfg::baselines
