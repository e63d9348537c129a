#pragma once

// Frames: the unit moved by links and NICs.
//
// Frames carry *real* payload bytes so that integrity is testable end to end
// (through fragmentation, kernel forwarding, corruption and retransmission),
// plus a modelled `wire_bytes` size that includes protocol headers the
// simulation does not materialize.
//
// The payload is a buf::Slice: a refcounted view into pooled storage, so
// copying a frame (per-hop forwarding, retransmit queues, DMA staging) bumps
// a refcount instead of duplicating bytes. Modeled copy costs are charged
// separately through buf::charge_copy; see src/buf/. The protocol header is
// shared the same way: a net::Header is written once by the sending
// protocol and every copy of the frame points at the same block.

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "buf/pool.hpp"
#include "sim/inline_fn.hpp"

namespace meshmp::net {

/// Global node index within a cluster.
using NodeId = std::int32_t;

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected) over a byte range.
std::uint32_t crc32(std::span<const std::byte> data);

/// Protocol-private frame header (e.g. via::ViaHeader), written once by the
/// protocol that builds the frame and read-only after that. Every copy of the
/// frame (per-hop forwarding, retransmit queues, event captures) shares one
/// refcounted block, as a kernel-forwarding node in M-VIA passes the sender's
/// header on unchanged. A block holds a per-type tag and up to
/// kCapacity bytes of one trivially copyable header type.
class Header {
 public:
  /// ViaHeader, the largest header type, is exactly 96 bytes.
  static constexpr std::size_t kCapacity = 96;

  Header() = default;
  template <typename H>
  explicit Header(const H& h) : blk_(new Block(tag<H>())) {
    static_assert(std::is_trivially_copyable_v<H>);
    static_assert(sizeof(H) <= kCapacity && alignof(H) <= alignof(Block));
    ::new (static_cast<void*>(blk_->bytes)) H(h);
  }
  Header(const Header& o) noexcept : blk_(o.blk_) {
    if (blk_ != nullptr) ++blk_->refs;
  }
  Header(Header&& o) noexcept : blk_(std::exchange(o.blk_, nullptr)) {}
  Header& operator=(const Header& o) noexcept {
    Header(o).swap(*this);
    return *this;
  }
  Header& operator=(Header&& o) noexcept {
    Header(std::move(o)).swap(*this);
    return *this;
  }
  ~Header() {
    if (blk_ != nullptr && --blk_->refs == 0) delete blk_;
  }

  /// The header if it holds an H, else null (empty, moved-from, or another
  /// protocol's header type).
  template <typename H>
  [[nodiscard]] const H* get() const noexcept {
    if (blk_ == nullptr || blk_->tag != tag<H>()) return nullptr;
    return std::launder(reinterpret_cast<const H*>(blk_->bytes));
  }

 private:
  // Plain-integer refcount: the engine is one sequential event loop, like
  // buf::Slice's control block.
  struct Block {
    explicit Block(const void* t) : tag(t) {}
    std::uint32_t refs = 1;
    const void* tag;
    alignas(8) std::byte bytes[kCapacity];
  };

  // One distinct address per header type, without RTTI.
  template <typename H>
  static const void* tag() noexcept {
    static constexpr char kTag = 0;
    return &kTag;
  }

  void swap(Header& o) noexcept { std::swap(blk_, o.blk_); }

  Block* blk_ = nullptr;
};

/// Forwarding budget: enough for any minimal route on the paper's meshes
/// plus detours around failed links, small enough to kill routing loops fast.
inline constexpr std::uint8_t kDefaultTtl = 32;

// Field order is packed densest-first so the header occupies bytes [0, 24)
// with a single byte of tail padding: every hot-path hop (TTL check, proto
// demux, wire-time computation) touches one cache line.
struct Frame {
  NodeId src = -1;  ///< originating node (not the last forwarder)
  NodeId dst = -1;  ///< final destination node
  /// Modelled frame size in bytes including protocol headers (the link adds
  /// Ethernet preamble/header/FCS/IFG on top of this).
  std::int64_t wire_bytes = 0;
  /// CRC of `payload` computed at transmit time (hardware checksum model).
  std::uint32_t checksum = 0;
  /// Protocol demultiplex key on the receiving node (VIA kernel agent, TCP
  /// stack, ...). Values are assigned by the cluster builder.
  std::uint16_t proto = 0;
  /// Remaining forwarding hops; decremented by each kernel-level switch and
  /// dropped at zero so a transient routing loop cannot orbit forever.
  std::uint8_t ttl = kDefaultTtl;
  /// Actual data carried (null slice for pure control frames). Immutable:
  /// wire corruption must go through corrupt_payload_byte().
  buf::Slice payload;
  /// Protocol-private header, shared by every copy of this frame; only the
  /// owning protocol reads it.
  Header meta;

  /// Recomputes `checksum` from the payload (done by the NIC on transmit —
  /// the Intel Pro/1000MT offloads this, so it costs no host CPU). The
  /// slice memoizes its CRC, so restamping on forward costs O(1).
  void stamp_checksum() { checksum = payload.crc(); }

  /// True when payload still matches the transmit-time checksum.
  [[nodiscard]] bool checksum_ok() const { return checksum == payload.crc(); }

  /// Models a wire bit error: replaces the payload with a detached mutated
  /// copy (the original storage — shared with retransmit queues — is never
  /// altered, and the copy carries no CRC memo, so checksum_ok() fails).
  void corrupt_payload_byte(std::size_t index, std::byte mask) {
    payload = payload.corrupted(index, mask);
  }
};

// Size pins: frames are moved through every pump and captured by value in
// per-hop events, so growth here is a hot-path regression. 24-byte packed
// header + 32-byte slice + 8-byte Header handle: one 64-byte cache line.
static_assert(sizeof(buf::Slice) == 32);
static_assert(sizeof(Frame) == 64);

// The largest event capture on the hot path is [this + Frame] in the
// link/NIC/crossbar pumps; it must fit the InlineFn budget so those events
// never allocate. If this fires, either the Frame grew or the budget shrank
// — both are deliberate decisions.
static_assert(sizeof(Frame) + sizeof(void*) <= sim::kInlineFnCapacity);

/// Convenience: byte-vector from any trivially copyable object sequence.
template <typename T>
std::vector<std::byte> to_bytes(std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  auto raw = std::as_bytes(values);
  return {raw.begin(), raw.end()};
}

}  // namespace meshmp::net
