#pragma once

// Byte-buffer primitives for the serialization framework.
//
// The paper's runtime serializes objects to byte arrays before sending them
// between cluster nodes (§3.4). `ByteWriter` and `ByteReader` are the
// low-level halves of that facility: a growable output buffer and a
// bounds-checked input cursor. Pointer-free arrays take the block-copy fast
// path through `write_raw`/`read_raw`.
//
// Zero-copy path: a writer opened in *segment mode* records large
// trivially-copyable array spans as borrowed iovec segments instead of
// memcpy'ing them into the staging buffer. `take_segments()` returns the
// scatter-gather list; the net:: substrate assembles it directly into the
// delivered payload, so bulk array bytes are copied once (source -> wire)
// instead of twice (source -> staging buffer -> wire). Borrowed spans must
// stay alive and unmodified until the segments are gathered — the same
// contract MPI_Isend places on its buffer until MPI_Wait.

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "serial/checksum.hpp"
#include "support/macros.hpp"

namespace triolet::serial {

/// Recycled staging-buffer cache. Serialization staging vectors and eager
/// message payload vectors churn at message rate; routing them through a
/// small thread-local stack (capacity is retained across uses) makes the
/// serialize -> send -> receive -> deserialize loop allocation-free once
/// warm. acquire returns an empty vector (possibly with capacity);
/// recycle clears and caches `v`, silently dropping it when the stack is
/// full. Both are safe from any thread (each thread has its own stack).
std::vector<std::byte> acquire_stream_buffer();
void recycle_stream_buffer(std::vector<std::byte> v);

/// Spans at least this large take the borrowed (zero-copy) path when the
/// writer is in segment mode; smaller spans are cheaper to memcpy into the
/// staging stream than to track as separate iovec entries.
inline constexpr std::size_t kBorrowThresholdBytes = 1024;

/// A scatter-gather view of one serialized payload: the copied staging
/// stream plus an ordered segment list. Owned segments reference ranges of
/// `owned`; borrowed segments reference caller memory that must outlive the
/// gather.
class SegmentedBytes {
 public:
  struct Segment {
    bool borrowed;
    std::size_t owned_offset;    // valid when !borrowed
    const std::byte* ext;        // valid when borrowed
    std::size_t len;
  };

  SegmentedBytes() = default;
  SegmentedBytes(std::vector<std::byte> owned, std::vector<Segment> segments,
                 std::size_t total, std::uint64_t stream_checksum)
      : owned_(std::move(owned)), segments_(std::move(segments)),
        total_(total), stream_checksum_(stream_checksum) {}

  /// Wraps an already-flat payload as a single owned segment — the shape
  /// send_bytes produces when the caller hands over a finished vector.
  static SegmentedBytes from_flat(std::vector<std::byte> flat,
                                  std::uint64_t stream_checksum) {
    const std::size_t n = flat.size();
    std::vector<Segment> segs;
    if (n != 0) segs.push_back({false, 0, nullptr, n});
    return SegmentedBytes(std::move(flat), std::move(segs), n,
                          stream_checksum);
  }

  std::size_t size() const { return total_; }

  /// True when every byte lives in the owned staging stream (no borrowed
  /// spans with external lifetimes).
  bool all_owned() const { return bytes_borrowed() == 0; }

  /// Bytes that took the borrowed (zero-copy) path.
  std::size_t bytes_borrowed() const {
    std::size_t n = 0;
    for (const auto& s : segments_) {
      if (s.borrowed) n += s.len;
    }
    return n;
  }

  /// Assembles the logical byte stream into `dst` (caller guarantees room
  /// for size() bytes). This is the single copy of the borrowed data.
  void gather_into(std::byte* dst) const {
    for (const auto& s : segments_) {
      const std::byte* src = s.borrowed ? s.ext : owned_.data() + s.owned_offset;
      if (s.len != 0) std::memcpy(dst, src, s.len);
      dst += s.len;
    }
  }

  /// Flattens into a fresh vector (the non-zero-copy fallback).
  std::vector<std::byte> gather() const {
    std::vector<std::byte> out(total_);
    gather_into(out.data());
    return out;
  }

  /// When nothing was borrowed the staging stream *is* the payload: steal
  /// it instead of gathering, so small fully-copied messages cost a move
  /// (the pre-segment behavior). Returns false if any segment is borrowed.
  bool take_flat(std::vector<std::byte>& out) {
    if (bytes_borrowed() != 0) return false;
    out = std::move(owned_);
    segments_.clear();
    total_ = 0;
    return true;
  }

  /// Steals the owned staging vector for recycling after the payload has
  /// been gathered elsewhere; leaves the object empty.
  std::vector<std::byte> take_owned_storage() {
    segments_.clear();
    total_ = 0;
    return std::move(owned_);
  }

  std::span<const Segment> segments() const { return segments_; }

  /// Checksum of the logical byte stream, accumulated at *write* time (see
  /// ByteWriter). Stamping messages with this value — instead of hashing the
  /// gathered payload — means a borrowed span that was sliced wrong or
  /// mutated between serialization and gather no longer checksums itself
  /// consistently: the receiver's validation catches it.
  std::uint64_t stream_checksum() const { return stream_checksum_; }

 private:
  std::vector<std::byte> owned_;
  std::vector<Segment> segments_;
  std::size_t total_ = 0;
  std::uint64_t stream_checksum_ = Checksum().value();  // of the empty stream
};

class ByteWriter {
 public:
  /// The staging buffer comes from the recycle cache, so a warm thread's
  /// writers reuse capacity instead of growing a fresh vector per message.
  ByteWriter() : buf_(acquire_stream_buffer()) {}
  ~ByteWriter() {
    if (buf_.capacity() != 0) recycle_stream_buffer(std::move(buf_));
  }
  ByteWriter(ByteWriter&&) = default;
  ByteWriter& operator=(ByteWriter&&) = default;

  /// A writer in segment mode records large spans passed to
  /// write_borrowable() as borrowed segments; harvest with take_segments().
  static ByteWriter segmented() {
    ByteWriter w;
    w.segment_mode_ = true;
    return w;
  }

  void reserve(std::size_t n) { buf_.reserve(n); }

  void write_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
    total_ += n;
    if (segment_mode_) crc_.update({p, n});
  }

  /// Like write_raw, but in segment mode spans of at least
  /// kBorrowThresholdBytes are recorded as borrowed segments — the caller
  /// promises `data` stays alive and unmodified until the segments are
  /// gathered. Outside segment mode this is exactly write_raw.
  void write_borrowable(const void* data, std::size_t n) {
    if (!segment_mode_ || n < kBorrowThresholdBytes) {
      write_raw(data, n);
      return;
    }
    flush_owned_segment();
    segments_.push_back(
        {true, 0, static_cast<const std::byte*>(data), n});
    total_ += n;
    crc_.update({static_cast<const std::byte*>(data), n});
  }

  template <typename T>
  void write_pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_raw(&v, sizeof(T));
  }

  /// Logical stream size (owned + borrowed).
  std::size_t size() const { return total_; }

  /// The flat stream; only valid outside segment mode (borrowed bytes are
  /// not in the staging buffer).
  std::span<const std::byte> bytes() const {
    TRIOLET_CHECK(segments_.empty(), "bytes() on a segmented writer");
    return buf_;
  }

  std::vector<std::byte> take() {
    TRIOLET_CHECK(segments_.empty(), "take() on a segmented writer");
    total_ = 0;
    return std::move(buf_);
  }

  /// Harvests the scatter-gather list (segment mode only). The result
  /// carries the stream checksum accumulated over every write — including
  /// bytes recorded as borrowed segments that were never copied here.
  SegmentedBytes take_segments() {
    flush_owned_segment();
    SegmentedBytes out(std::move(buf_), std::move(segments_), total_,
                       crc_.value());
    buf_.clear();
    segments_.clear();
    total_ = 0;
    owned_flushed_ = 0;
    crc_ = Checksum();
    return out;
  }

 private:
  /// Closes the current owned range [owned_flushed_, buf_.size()) into a
  /// segment. Offsets (not pointers) are recorded because buf_ reallocates
  /// as it grows.
  void flush_owned_segment() {
    if (buf_.size() > owned_flushed_) {
      segments_.push_back(
          {false, owned_flushed_, nullptr, buf_.size() - owned_flushed_});
      owned_flushed_ = buf_.size();
    }
  }

  std::vector<std::byte> buf_;
  std::vector<SegmentedBytes::Segment> segments_;
  std::size_t total_ = 0;
  std::size_t owned_flushed_ = 0;
  Checksum crc_;  // accumulated only in segment mode
  bool segment_mode_ = false;
};

/// Debug-mode lifetime sentinel for zero-copy reads. Spans handed out by
/// ByteReader::borrow() point into the underlying payload; whoever owns that
/// payload can retire the sentinel when the buffer is freed or recycled, and
/// any later borrow through the same reader aborts instead of silently
/// reading freed memory.
class BorrowSentinel {
 public:
  void retire() { retired_.store(true, std::memory_order_release); }
  bool retired() const { return retired_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> retired_{false};
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  void read_raw(void* out, std::size_t n) {
    TRIOLET_CHECK(n <= bytes_.size() - pos_,
                  "deserialization read past end of buffer");
    if (n == 0) return;  // `out` may be null (an empty vector's data())
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
  T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    read_raw(&v, sizeof(T));
    return v;
  }

  /// Borrow `n` bytes in place without copying. The bounds check runs
  /// before the cursor moves (and is written overflow-safe: `pos_ + n`
  /// could wrap for a hostile length header), so a failed borrow leaves the
  /// reader position untouched. The span is valid only while the underlying
  /// payload lives; debug builds additionally check the lifetime sentinel
  /// on every borrow.
  std::span<const std::byte> borrow(std::size_t n) {
    TRIOLET_CHECK(n <= bytes_.size() - pos_,
                  "deserialization borrow past end of buffer");
#ifndef NDEBUG
    TRIOLET_CHECK(!sentinel_ || !sentinel_->retired(),
                  "borrow from a retired payload (use-after-free)");
#endif
    auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  /// Historical name for borrow().
  std::span<const std::byte> view_raw(std::size_t n) { return borrow(n); }

  /// Attaches the payload owner's lifetime sentinel (debug builds assert it
  /// on every borrow; release builds keep it only as documentation).
  void set_sentinel(std::shared_ptr<const BorrowSentinel> s) {
    sentinel_ = std::move(s);
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
  std::shared_ptr<const BorrowSentinel> sentinel_;
};

}  // namespace triolet::serial
