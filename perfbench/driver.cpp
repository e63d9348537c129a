// meshmp benchmark driver: runs one workload in a closed loop with one
// client (simulation points back to back on this thread) for a fixed host
// time, checks every simulated result, and prints one JSON object with the
// rows, the checks and the metrics as its last line of output.
//
//   meshmp_perfbench --workload stream|collectives|faults --seed N
//                    --seconds S --trace 0|1 [--spans-out FILE]
//
// --trace 0 reports the end-to-end metrics over untraced passes.
// --trace 1 alternates untraced and traced passes: the traced ones record a
// span around every call the driver makes into a layer and yield the
// per-layer metrics; the untraced ones measure the tracing overhead.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Iteration run_iteration(WorkloadFn fn, std::uint64_t seed, bool traced,
                        Checks& checks) {
  Iteration it;
  it.traced = traced;
  Probe probe(traced);
  reset_process_counts();
  Ctx ctx{seed, probe, checks, it};
  const double t0 = host_now_s();
  fn(ctx);
  it.wall_s = host_now_s() - t0;
  it.setup_s = probe.setup_s();
  const ProcessCounts pc = process_counts();
  it.counts["buf.copy.charged_copies"] = static_cast<double>(pc.charged_copies);
  it.counts["buf.copy.charged_bytes"] = static_cast<double>(pc.charged_bytes);
  it.counts["via.ack_rtt_samples"] = static_cast<double>(pc.ack_rtt_samples);
  it.counts["via.ack_rtt_p50_ns"] = pc.ack_rtt_p50_ns;
  it.counts["via.ack_rtt_min_ns"] = pc.ack_rtt_min_ns;
  it.counts["tcpstack.inorder_segments"] =
      static_cast<double>(pc.tcp_inorder_segments);
  it.spans = probe.spans();
  return it;
}

/// Run-twice identity: every later pass over the same seed must reproduce
/// the first pass's rows, event counts and result hashes exactly, and
/// passes of the same kind (traced or not) the same deterministic counts.
void check_repeatable(const std::vector<Iteration>& its, Checks& checks) {
  const Iteration& first = its.front();
  const Iteration* first_traced = nullptr;
  for (const Iteration& it : its) {
    if (it.traced) {
      first_traced = &it;
      break;
    }
  }
  bool rows_same = true;
  bool counts_same = true;
  for (std::size_t i = 1; i < its.size(); ++i) {
    const Iteration& it = its[i];
    rows_same = rows_same && it.rows.size() == first.rows.size();
    for (std::size_t r = 0; rows_same && r < it.rows.size(); ++r) {
      const Row& a = first.rows[r];
      const Row& b = it.rows[r];
      rows_same = a.point == b.point && a.values == b.values &&
                  a.events == b.events && a.result_hash == b.result_hash;
    }
    const Iteration& ref = it.traced ? *first_traced : first;
    counts_same = counts_same && it.counts == ref.counts;
  }
  checks.expect(rows_same,
                "run twice: a pass's rows, event counts or result hashes "
                "differ from pass 0");
  checks.expect(counts_same,
                "run twice: a pass's deterministic counts differ from the "
                "first pass of its kind");
}

void put_num(std::string& out, double v) {
  char buf[40];
  if (!std::isfinite(v)) v = 0;
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void put_str(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
}

using Metrics = std::vector<std::pair<std::string, double>>;

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Value of `col` in the row named `point` of the first pass, 0 if absent.
double row_value(const Iteration& it, const std::string& point,
                 const std::string& col) {
  for (const Row& r : it.rows) {
    if (r.point != point) continue;
    for (const auto& [k, v] : r.values) {
      if (k == col) return v;
    }
  }
  return 0;
}

double column_sum(const Iteration& it, const std::string& prefix,
                  const std::string& col) {
  double s = 0;
  for (const Row& r : it.rows) {
    if (r.point.rfind(prefix, 0) != 0) continue;
    for (const auto& [k, v] : r.values) {
      if (k == col) s += v;
    }
  }
  return s;
}

double column_max(const Iteration& it, const std::string& prefix,
                  const std::string& col) {
  double m = 0;
  for (const Row& r : it.rows) {
    if (r.point.rfind(prefix, 0) != 0) continue;
    for (const auto& [k, v] : r.values) {
      if (k == col) m = std::max(m, v);
    }
  }
  return m;
}

// The paper's headline figures the model is compared against.
constexpr double kPaperVia2dMbs = 400;     // Fig. 3, 2-D plateau
constexpr double kPaperVia3dPeakMbs = 550; // Fig. 3, 3-D peak
constexpr double kPaperBcastSmallUs = 200; // Fig. 5, small broadcast
constexpr double kPaperScatterSpeedup = 4; // Fig. 6, SDF / OPT

/// Per-layer metrics from the traced passes (counts from the first traced
/// pass, host times as medians over all traced passes).
Metrics layer_metrics(const std::vector<Iteration>& its) {
  std::vector<const Iteration*> traced;
  std::vector<double> untraced_wall;
  for (const Iteration& it : its) {
    if (it.traced) {
      traced.push_back(&it);
    } else {
      untraced_wall.push_back(it.wall_s);
    }
  }
  const Iteration& t = *traced.front();
  const auto& k = t.counts;
  auto host_median = [&](const std::string& key) {
    std::vector<double> v;
    for (const Iteration* it : traced) v.push_back(get(it->host, key));
    return median(v);
  };
  std::vector<double> traced_wall;
  for (const Iteration* it : traced) traced_wall.push_back(it->wall_s);
  const double wall = median(traced_wall);

  // Self time per layer, and the driver's own time outside any span, as
  // shares of the traced pass's host wall time.
  std::map<std::string, std::vector<double>> shares;
  const char* const kLayers[] = {"sim",      "cluster", "via",       "tcpstack",
                                 "mp",       "coll",    "lifecycle", "flt",
                                 "driver"};
  for (const Iteration* it : traced) {
    std::map<std::string, double> self = self_time_by_layer(it->spans);
    double top = 0;
    for (const Span& s : it->spans) {
      if (s.parent < 0) top += s.end_s - s.start_s;
    }
    // The faults observer runs inside the engine's spans but is the
    // driver's bookkeeping.
    const double observer = get(it->host, "driver.observer_s");
    self["sim"] -= observer;
    self["driver"] += it->wall_s - top + observer;
    for (const char* l : kLayers) {
      shares[l].push_back(ratio(get(self, l), it->wall_s));
    }
  }

  const double run_s = host_median("sim.run_s");
  const double events = get(k, "sim.events");
  const double tx_frames = get(k, "hw.nic.tx_frames");
  const double inorder = get(k, "tcpstack.inorder_segments");
  const double transitions = get(k, "lifecycle.transitions");
  const double wire_rtt = get(k, "via.wire_rtt_ns");
  const double via2d = row_value(t, "stream.1048576", "via_2d_mbs");
  const double via3d_peak = column_max(t, "stream.", "via_3d_mbs");
  const double bcast_small = row_value(t, "coll.8", "broadcast_us");
  const double speedup = ratio(row_value(t, "scatter.1024", "sdf_us"),
                               row_value(t, "scatter.1024", "opt_us"));
  const double phase_total =
      host_median("phase.steady_s") + host_median("phase.detect_s") +
      host_median("phase.rejoin_s") + host_median("phase.partition_s") +
      host_median("phase.heal_s");
  auto phase_share = [&](const char* key) {
    return ratio(host_median(key), phase_total);
  };
  // Relative distance from the paper's figure; 0 where the workload does
  // not produce the quantity.
  auto err = [](double model, double paper) {
    return model != 0 ? std::fabs(model - paper) / paper : 0.0;
  };

  Metrics m = {
      {"sim.events", events},
      {"sim.run_s", run_s},
      {"sim.ns_per_event", ratio(run_s * 1e9, events)},
      {"sim.queue_depth_hwm", get(k, "sim.queue_depth_hwm")},
      {"cluster.build_s", host_median("cluster.build_s")},
      {"cluster.teardown_s", host_median("cluster.teardown_s")},
      {"cluster.nodes", get(k, "cluster.nodes")},
      {"via.connect_s", host_median("via.connect_s")},
      {"via.connections", get(k, "via.vis") / 2},
      {"hw.nic.tx_frames", tx_frames},
      {"hw.nic.frames_per_irq",
       ratio(get(k, "hw.nic.rx_frames"), get(k, "hw.nic.interrupts"))},
      {"host.ns_per_frame", ratio(run_s * 1e9, tx_frames)},
      {"buf.copy.charged_copies", get(k, "buf.copy.charged_copies")},
      {"buf.copy.charged_bytes", get(k, "buf.copy.charged_bytes")},
      {"buf.rss_after_point_mb", host_median("buf.rss_after_point_mb")},
      {"via.tx_messages", get(k, "via.tx_messages")},
      {"via.retransmits", get(k, "via.retransmits")},
      {"via.fwd_frames", get(k, "via.fwd_frames")},
      {"via.ack_rtt_p50_ns", get(k, "via.ack_rtt_p50_ns")},
      {"via.ack_rtt_min_ns", get(k, "via.ack_rtt_min_ns")},
      {"via.ack_rtt_samples", get(k, "via.ack_rtt_samples")},
      {"via.wire_rtt_ns", wire_rtt},
      {"via.ack_rtt_below_wire",
       get(k, "via.ack_rtt_samples") > 0 &&
               get(k, "via.ack_rtt_min_ns") < wire_rtt
           ? 1.0
           : 0.0},
      {"tcpstack.retransmits", get(k, "tcpstack.retransmits")},
      {"tcpstack.useful_seg_ratio",
       ratio(inorder, inorder + get(k, "tcpstack.rx_out_of_order"))},
      {"mp.messages", get(k, "mp.messages")},
      {"coll.host_ms_per_op",
       ratio(host_median("op_s") * 1e3, get(k, "ops"))},
      {"coll.bcast_sim_us", column_sum(t, "coll.", "broadcast_us")},
      {"coll.allreduce_sim_us", column_sum(t, "coll.", "globalsum_us")},
      {"coll.scatter_sdf_sim_us", column_sum(t, "scatter.", "sdf_us")},
      {"coll.scatter_opt_sim_us", column_sum(t, "scatter.", "opt_us")},
      {"lifecycle.transitions", transitions},
      {"lifecycle.detect_sim_us", get(k, "lifecycle.detect_sim_us")},
      {"lifecycle.heal_converge_sim_us",
       get(k, "lifecycle.heal_converge_sim_us")},
      {"phase.steady_share", phase_share("phase.steady_s")},
      {"phase.detect_share", phase_share("phase.detect_s")},
      {"phase.rejoin_share", phase_share("phase.rejoin_s")},
      {"phase.partition_share", phase_share("phase.partition_s")},
      {"phase.heal_share", phase_share("phase.heal_s")},
      {"topo.distinct_tables", get(k, "topo.distinct_tables")},
      {"topo.distinct_dead_sets", get(k, "topo.distinct_dead_sets")},
      {"topo.reuse_ratio",
       transitions > 0 ? 1 - get(k, "topo.distinct_tables") / transitions
                       : 0.0},
      {"flt.injected", get(k, "flt.injected")},
      {"model.via_2d_mbs", via2d},
      {"model.via_2d_err", err(via2d, kPaperVia2dMbs)},
      {"model.via_3d_peak_mbs", via3d_peak},
      {"model.via_3d_peak_err", err(via3d_peak, kPaperVia3dPeakMbs)},
      {"model.bcast_small_us", bcast_small},
      {"model.bcast_small_err", err(bcast_small, kPaperBcastSmallUs)},
      {"model.scatter_opt_speedup", speedup},
      {"model.scatter_opt_speedup_err", err(speedup, kPaperScatterSpeedup)},
      {"trace.overhead_s", wall - median(untraced_wall)},
      {"trace.spans", static_cast<double>(t.spans.size())},
  };
  for (const char* key :
       {"minority_transitions", "primary_restorations", "partition_rejoins",
        "reconcile_waves", "carrier_heal_events", "view_pushes"}) {
    const std::string name = std::string("cluster.partition.") + key;
    m.emplace_back(name, get(k, name));
  }
  for (const char* key : {"suspects", "dead_declared", "refutations"}) {
    const std::string name = std::string("cluster.phi.") + key;
    m.emplace_back(name, get(k, name));
  }
  for (const char* l : kLayers) {
    m.emplace_back(std::string("layer.") + l + ".self_share",
                   median(shares[l]));
  }
  return m;
}

void write_spans(const std::string& path, const std::vector<Iteration>& its) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::string out = "[";
  bool first = true;
  for (std::size_t i = 0; i < its.size(); ++i) {
    for (std::size_t s = 0; s < its[i].spans.size(); ++s) {
      const Span& sp = its[i].spans[s];
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"pass\": " + std::to_string(i) +
             ", \"id\": " + std::to_string(s) +
             ", \"parent\": " + std::to_string(sp.parent) +
             ", \"point\": " + std::to_string(sp.point) + ", \"layer\": ";
      put_str(out, sp.layer);
      out += ", \"name\": ";
      put_str(out, sp.name);
      out += ", \"start_s\": ";
      put_num(out, sp.start_s);
      out += ", \"end_s\": ";
      put_num(out, sp.end_s);
      out += "}";
    }
  }
  out += "\n]\n";
  std::fputs(out.c_str(), f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload stream|collectives|faults --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadFn fn = find_workload(args.workload);
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Medians need several passes; the traced run needs at least two of each
  // kind so the overhead compares like with like.
  const std::size_t min_passes = args.trace ? 4 : 3;
  Checks checks;
  std::vector<Iteration> its;
  const double start = host_now_s();
  while (its.size() < min_passes || host_now_s() - start < args.seconds) {
    const bool traced = args.trace && its.size() % 2 == 1;
    its.push_back(run_iteration(fn, args.seed, traced, checks));
  }
  check_repeatable(its, checks);

  std::vector<double> wall;
  std::vector<double> setup;
  for (const Iteration& it : its) {
    if (it.traced) continue;
    wall.push_back(it.wall_s);
    setup.push_back(it.setup_s);
  }
  Metrics e2e = {{"wall_s", median(wall)},
                 {"setup_s", median(setup)},
                 {"peak_rss_mb", peak_rss_mb()}};
  Metrics layers;
  if (args.trace) {
    layers = layer_metrics(its);
    if (!args.spans_out.empty()) write_spans(args.spans_out, its);
  }

  std::string out = "{\"workload\": ";
  put_str(out, args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"passes\": " + std::to_string(its.size());
  out += ", \"pass_wall_s\": [";
  for (std::size_t i = 0; i < its.size(); ++i) {
    if (i > 0) out += ", ";
    put_num(out, its[i].wall_s);
  }
  out += "]";
  out += ", \"checks\": " + std::to_string(checks.attempted());
  out += ", \"failures\": [";
  const std::vector<std::string> failures = checks.failures();
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ", ";
    put_str(out, failures[i]);
  }
  out += "], \"rows\": [";
  const Iteration& first = its.front();
  for (std::size_t r = 0; r < first.rows.size(); ++r) {
    const Row& row = first.rows[r];
    out += r > 0 ? ", {\"point\": " : "{\"point\": ";
    put_str(out, row.point);
    out += ", \"events\": " + std::to_string(row.events) + ", \"values\": {";
    for (std::size_t v = 0; v < row.values.size(); ++v) {
      if (v > 0) out += ", ";
      put_str(out, row.values[v].first);
      out += ": ";
      put_num(out, row.values[v].second);
    }
    out += "}}";
  }
  out += "]";
  for (const auto& [label, metrics] :
       {std::pair{"end_to_end", &e2e}, std::pair{"per_layer", &layers}}) {
    out += ", \"";
    out += label;
    out += "\": {";
    for (std::size_t i = 0; i < metrics->size(); ++i) {
      if (i > 0) out += ", ";
      put_str(out, (*metrics)[i].first);
      out += ": ";
      put_num(out, (*metrics)[i].second);
    }
    out += "}";
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
