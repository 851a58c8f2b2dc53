// Drop-oldest flight-recorder ring that allocates on demand: the storage
// behind obs::ProvenanceGraph, the one sim-time event record.
//
// `capacity` is a bound, not a reservation. Storage is fixed-size chunks
// allocated the first time a write reaches them, so a ring that never
// records (provenance switched off) owns no memory, and
// a trial that records a few hundred events pays for one chunk instead
// of 2^16 slots. Once every chunk exists the ring wraps and overwrites
// its oldest record, exactly like an eagerly sized ring. Chunks never
// move, so a reference to a retained record stays valid until that
// record is evicted (or the ring is cleared or resized).
//
// The ring keeps no drop counter of its own: owners check full() before
// push() and count the eviction, because the provenance graph also
// counts id gaps as drops.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace sm::obs {

template <typename T>
class ChunkedRing {
 public:
  /// Records per chunk (a power of two: slot -> chunk is a shift).
  static constexpr size_t kChunk = 256;

  explicit ChunkedRing(size_t capacity) : capacity_(clamp(capacity)) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == capacity_; }
  /// Chunks currently allocated (0 until the first push).
  size_t chunks() const { return chunks_.size(); }

  /// The i-th retained record, oldest first (i < size()).
  T& operator[](size_t i) { return slot(wrap(start_ + i)); }
  const T& operator[](size_t i) const { return slot(wrap(start_ + i)); }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[count_ - 1]; }

  /// Appends `value`, overwriting the oldest record when full. Returns
  /// the stored record.
  T& push(T value) {
    const size_t at = wrap(start_ + count_);
    if ((at / kChunk) == chunks_.size()) grow();
    T& dst = slot(at);
    dst = std::move(value);
    if (count_ == capacity_) {
      start_ = wrap(start_ + 1);
    } else {
      ++count_;
    }
    return dst;
  }

  /// Forgets every record in O(size()). Allocated chunks are kept for
  /// reuse; records that own memory are reset so it is released now.
  void clear() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (size_t i = 0; i < count_; ++i) (*this)[i] = T{};
    }
    start_ = 0;
    count_ = 0;
  }

  /// Re-bounds the ring in O(size()), keeping the newest records that
  /// fit. Returns how many records were evicted.
  size_t set_capacity(size_t capacity) {
    capacity = clamp(capacity);
    const size_t keep = std::min(count_, capacity);
    const size_t evicted = count_ - keep;
    std::vector<T> kept;
    kept.reserve(keep);
    for (size_t i = evicted; i < count_; ++i) {
      kept.push_back(std::move((*this)[i]));
    }
    chunks_.clear();
    capacity_ = capacity;
    start_ = 0;
    count_ = 0;
    for (T& v : kept) push(std::move(v));
    return evicted;
  }

 private:
  static size_t clamp(size_t capacity) { return capacity ? capacity : 1; }
  size_t wrap(size_t at) const {
    return at >= capacity_ ? at - capacity_ : at;
  }
  T& slot(size_t at) { return chunks_[at / kChunk][at % kChunk]; }
  const T& slot(size_t at) const { return chunks_[at / kChunk][at % kChunk]; }

  /// Allocates the next chunk; the last one is cut to the capacity.
  void grow() {
    const size_t first = chunks_.size() * kChunk;
    chunks_.push_back(
        std::make_unique<T[]>(std::min(kChunk, capacity_ - first)));
  }

  size_t capacity_;
  std::vector<std::unique_ptr<T[]>> chunks_;
  size_t start_ = 0;  // slot of the oldest record
  size_t count_ = 0;  // retained records (<= capacity_)
};

}  // namespace sm::obs
