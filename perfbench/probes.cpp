#include "probes.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "buf/copy.hpp"
#include "buf/pool.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages_total = 0;
  long pages_rss = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_rss);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(pages_rss) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

ProcessCounts process_counts() {
  using namespace meshmp;
  ProcessCounts pc;
  const buf::CopyStats cs = buf::copy_stats();
  pc.charged_copies = cs.copies;
  pc.charged_bytes = cs.bytes;
  pc.pool_outstanding = buf::Pool::instance().outstanding();
  auto& reg = obs::Registry::instance();
  const obs::Histogram& ack = reg.histogram("via.ack_rtt_ns");
  pc.ack_rtt_samples = ack.count();
  pc.ack_rtt_p50_ns = ack.p50();
  pc.ack_rtt_min_ns = static_cast<double>(ack.min());
  pc.tcp_inorder_segments = reg.histogram("tcp.rx_seg_bytes").count();
  return pc;
}

void reset_process_counts() {
  meshmp::buf::reset_copy_stats();
  meshmp::obs::Registry::instance().reset();
}

Probe::Scope::Scope(Probe& p, const char* layer, const char* name,
                    Charge charge, double* total)
    : p_(p), charge_(charge), total_(total), start_(host_now_s()) {
  if (!p_.tracing_) return;
  id_ = static_cast<int>(p_.spans_.size());
  p_.spans_.push_back(Span{layer, name, start_, start_,
                           p_.open_.empty() ? -1 : p_.open_.back(),
                           p_.point_});
  p_.open_.push_back(id_);
}

Probe::Scope::~Scope() {
  const double end = host_now_s();
  if (charge_ == Charge::kSetup) p_.setup_s_ += end - start_;
  if (total_ != nullptr) *total_ += end - start_;
  if (id_ < 0) return;
  p_.spans_[static_cast<std::size_t>(id_)].end_s = end;
  p_.open_.pop_back();
}

std::map<std::string, double> self_time_by_layer(const std::vector<Span>& s) {
  std::vector<double> child(s.size(), 0.0);
  for (const Span& sp : s) {
    if (sp.parent >= 0) {
      child[static_cast<std::size_t>(sp.parent)] += sp.end_s - sp.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[s[i].layer] += (s[i].end_s - s[i].start_s) - child[i];
  }
  return out;
}

void Checks::expect(bool ok, const std::string& what) {
  const auto [it, fresh] = results_.emplace(what, ok);
  if (!fresh) it->second = it->second && ok;
}

std::vector<std::string> Checks::failures() const {
  std::vector<std::string> out;
  for (const auto& [what, ok] : results_) {
    if (!ok) out.push_back(what);
  }
  return out;
}

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

std::uint64_t hash_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  std::uint64_t tail = n;
  for (; i < n; ++i) tail = (tail << 8) | p[i];
  return hash_mix(h, tail);
}

}  // namespace perfbench
