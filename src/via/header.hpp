#pragma once

// The M-VIA frame header carried (in Frame::meta, a net::Header) by every
// frame the VIA stack emits. Its modelled on-wire size is
// ViaParams::header_bytes.

#include <cstdint>

#include "net/frame.hpp"

namespace meshmp::via {

enum class MsgKind : std::uint8_t {
  kData,      ///< fragment of a send/receive message
  kRmaWrite,  ///< fragment of a remote-memory write
  kAck,       ///< cumulative acknowledgement (reliable delivery)
  kConnReq,   ///< connection request (kernel agent dialogue)
  kConnAck,   ///< connection accept
  // Interrupt-level collective prototype (paper sec. 7 future work):
  kKernelReduce,  ///< partial sum travelling up the spanning tree
  kKernelBcast,   ///< combined result travelling back down
  // Node-failure lifecycle (cluster::ClusterLifecycle control plane):
  kHeartbeat,   ///< neighbour liveness probe (unreliable, fire-and-forget)
  kMembership,  ///< membership-delta flood record batch
  kReconcile,   ///< post-heal reconciliation wave (generation in immediate)
  // Gray-failure control plane (phi detector + link-quality flood):
  kHeartbeatAck,  ///< echo of a heartbeat probe: msg_id = probe seq,
                  ///< immediate = probe send time (for RTT measurement)
  kLinkState,     ///< link-quality record flood (degraded/black masks)
};

struct ViaHeader {
  MsgKind kind = MsgKind::kData;
  std::uint32_t src_vi = 0;  ///< sender's VI number on its node
  std::uint32_t dst_vi = 0;  ///< receiver's VI number on its node

  /// Per-connection frame sequence number (reliable delivery).
  std::uint64_t seq = 0;
  /// Cumulative ack: all frames with seq < ack_seq are acknowledged.
  std::uint64_t ack_seq = 0;

  // -- incarnation fencing --
  /// Sender's node incarnation. A restarted node bumps its epoch, so frames
  /// (including retransmits) from the previous incarnation are identifiable.
  std::uint32_t epoch = 0;
  /// Receiver incarnation the sender believes it is talking to (0 = any,
  /// used by connection dialogue and epoch-less control traffic). A receiver
  /// whose epoch moved past this drops the frame as stale.
  std::uint32_t dst_epoch = 0;

  // -- message framing (kData) --
  std::uint32_t msg_id = 0;
  std::uint32_t frag = 0;
  std::uint32_t nfrags = 1;
  std::uint64_t msg_bytes = 0;
  std::uint64_t immediate = 0;  ///< 64-bit immediate delivered on completion

  // -- RMA (kRmaWrite) --
  std::uint32_t rma_handle = 0;
  std::uint32_t rma_key = 0;
  std::uint64_t rma_offset = 0;  ///< destination offset of this fragment

  // -- connection dialogue --
  std::uint32_t service = 0;  ///< listen/accept rendezvous tag
};

}  // namespace meshmp::via
