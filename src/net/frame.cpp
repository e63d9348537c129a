#include "net/frame.hpp"

#include "buf/pool.hpp"

namespace meshmp::net {

// The table implementation lives in buf so Slice can memoize CRCs; this
// wrapper keeps the historical net-level entry point for callers and tests.
std::uint32_t crc32(std::span<const std::byte> data) {
  return buf::crc32(data);
}

}  // namespace meshmp::net
