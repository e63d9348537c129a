#pragma once

// Host-side measurement for the benchmark driver: a span recorder that the
// driver wraps around its own calls into each meshmp layer, named counts and
// checks gathered per workload iteration, and the one adapter through which
// the driver reads counts that only a process-wide singleton offers.
//
// Spans never reach inside the library: each one brackets a single call the
// driver makes (build a cluster, dial channels, run the engine, tear down).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic clock, seconds.
double host_now_s();

/// Peak resident set size of this process so far, MB.
double peak_rss_mb();
/// Current resident set size of this process, MB.
double current_rss_mb();

/// Counts that today only process-wide singletons offer. Everything else the
/// driver reads through per-instance accessors. When these move behind a
/// per-simulation context, only process_counts() changes.
struct ProcessCounts {
  std::uint64_t charged_copies = 0;   ///< buf::copy_stats().copies
  std::uint64_t charged_bytes = 0;    ///< buf::copy_stats().bytes
  std::uint64_t pool_outstanding = 0; ///< buffers not returned to buf::Pool
  std::uint64_t ack_rtt_samples = 0;  ///< via.ack_rtt_ns histogram count
  double ack_rtt_p50_ns = 0;
  double ack_rtt_min_ns = 0;
  std::uint64_t tcp_inorder_segments = 0;  ///< tcp.rx_seg_bytes count
};
ProcessCounts process_counts();
/// Zeroes the singleton tallies above (call with no cluster alive).
void reset_process_counts();

/// One recorded span: a driver call into one layer.
struct Span {
  std::string layer;  ///< meshmp module the call enters ("sim", "via", ...)
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at the top
  int point = -1;   ///< simulation point the span belongs to
};

/// Where a timed call's host seconds are charged besides its span.
enum class Charge { kNone, kSetup };

/// Records spans when enabled; always accumulates set-up time, which the
/// untraced end-to-end run needs too. Spans stay in memory until the run ends.
class Probe {
 public:
  explicit Probe(bool tracing) : tracing_(tracing) {}

  class Scope {
   public:
    Scope(Probe& p, const char* layer, const char* name, Charge charge,
          double* total);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe& p_;
    Charge charge_;
    double* total_;
    double start_;
    int id_ = -1;
  };

  /// Times one call into `layer`; the duration is also added to `*total`
  /// when given.
  Scope span(const char* layer, const char* name,
             Charge charge = Charge::kNone, double* total = nullptr) {
    return Scope(*this, layer, name, charge, total);
  }

  /// Opens a new simulation point: spans until the next call share its id.
  void begin_point() { ++point_; }

  [[nodiscard]] bool tracing() const noexcept { return tracing_; }
  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool tracing_;
  double setup_s_ = 0;
  int point_ = -1;
  std::vector<int> open_;
  std::vector<Span> spans_;
};

/// Host seconds per layer not covered by child spans.
std::map<std::string, double> self_time_by_layer(const std::vector<Span>& s);

/// Correctness checks of one run. A check is named by `what`; every pass
/// repeats the same names, and a name counts once however many passes ran,
/// failed if it failed in any of them. So `attempted` depends only on the
/// workload, never on how many passes the host had time for.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const noexcept {
    return results_.size();
  }
  [[nodiscard]] std::vector<std::string> failures() const;

 private:
  std::map<std::string, bool> results_;  ///< name -> passed in every pass
};

/// A simulated result row, compared against the stored reference at the
/// default seed and across iterations of one run.
struct Row {
  std::string point;  ///< e.g. "stream.via_3d.1024"
  std::vector<std::pair<std::string, double>> values;
  std::uint64_t events = 0;       ///< Engine::executed() for the point
  std::uint64_t result_hash = 0;  ///< hash over values and delivered bytes
};

/// Everything one pass over a workload's points produced.
struct Iteration {
  bool traced = false;
  double wall_s = 0;
  double setup_s = 0;
  std::vector<Row> rows;
  /// Deterministic counts (events, frames, copies, ...): summed over points.
  std::map<std::string, double> counts;
  /// Host seconds by name (sim.run_s, phase.*_s, ...): summed over points.
  std::map<std::string, double> host;
  std::vector<Span> spans;
};

/// 64-bit hash over bytes, 8 at a time (payload integrity, not security).
std::uint64_t hash_bytes(std::uint64_t h, const void* data, std::size_t n);
std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v);

}  // namespace perfbench
