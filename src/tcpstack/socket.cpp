#include "tcpstack/socket.hpp"

#include <algorithm>
#include <string>

#include "buf/copy.hpp"
#include "obs/trace.hpp"
#include "tcpstack/stack.hpp"

namespace meshmp::tcpstack {

TcpSocket::TcpSocket(TcpStack& stack, std::uint32_t id)
    : stack_(stack),
      id_(id),
      conn_done_(stack.node().cpu().engine()),
      window_open_(stack.node().cpu().engine()),
      send_lock_(stack.node().cpu().engine(), 1),
      rx_ready_(stack.node().cpu().engine()),
      metrics_reg_(obs::Registry::instance().attach("tcp.sock", &counters_)) {}

sim::Task<> TcpSocket::send(std::vector<std::byte> data) {
  auto& cpu = stack_.node().cpu();
  co_await cpu.busy(cpu.host().syscall, hw::Cpu::kUser);
  co_await stack_.stream_out(*this, std::move(data));
}

sim::Task<> TcpSocket::read_some(std::int64_t max_bytes,
                                 std::vector<std::byte>& out) {
  auto& cpu = stack_.node().cpu();
  MESHMP_TRACE_TRACK(trk_, stack_.node_id(), "sock" + std::to_string(id_));
  // Covers the blocked interval while the stream is empty plus the
  // kernel->user copy — the receive-side cost the paper's TCP baseline pays.
  MESHMP_TRACE_SCOPE(cpu.engine(), obs::Cat::kTcp, stack_.node_id(), trk_,
                     "tcp.recv_wait");
  co_await cpu.busy(cpu.host().syscall, hw::Cpu::kUser);
  while (rx_bytes_ == 0) {
    co_await rx_ready_.next();
  }
  const auto take =
      std::min(max_bytes, static_cast<std::int64_t>(rx_bytes_));
  // The second copy of the TCP path: kernel socket buffer -> user buffer.
  const bool hot = take <= cpu.host().cache_bytes;
  co_await buf::charge_copy(cpu, take, hot);
  const auto bytes = static_cast<std::size_t>(take);
  out.reserve(out.size() + bytes);
  rx_bytes_ -= bytes;
  for (std::size_t left = bytes; left > 0;) {
    const buf::Slice& front = rx_queue_.front();
    const std::size_t n = std::min(left, front.size() - rx_front_off_);
    const std::byte* from = front.data() + rx_front_off_;
    out.insert(out.end(), from, from + n);
    left -= n;
    rx_front_off_ += n;
    if (rx_front_off_ == front.size()) {
      rx_queue_.pop_front();
      rx_front_off_ = 0;
    }
  }
}

sim::Task<std::vector<std::byte>> TcpSocket::recv(std::int64_t max_bytes) {
  std::vector<std::byte> out;
  co_await read_some(max_bytes, out);
  co_return out;
}

sim::Task<std::vector<std::byte>> TcpSocket::recv_exact(std::int64_t n) {
  std::vector<std::byte> out;
  out.reserve(static_cast<std::size_t>(n));
  while (static_cast<std::int64_t>(out.size()) < n) {
    co_await read_some(n - static_cast<std::int64_t>(out.size()), out);
  }
  co_return out;
}

}  // namespace meshmp::tcpstack
