#include "chk/determinism.hpp"

#include <cinttypes>
#include <cstdio>

namespace meshmp::chk {

std::string describe(const Fingerprint& fp) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "executed=%" PRIu64 " digest=%016" PRIx64 " end_time=%" PRId64
                "ns result=%016" PRIx64,
                fp.executed, fp.digest, fp.end_time, fp.result_hash);
  return buf;
}

ReplayResult run_twice_and_compare(
    const std::function<Fingerprint()>& scenario) {
  ReplayResult r;
  r.first = scenario();
  r.second = scenario();
  r.identical = r.first == r.second;
  if (!r.identical) {
    if (r.first.executed != r.second.executed) r.divergence += "executed ";
    if (r.first.digest != r.second.digest) r.divergence += "digest ";
    if (r.first.end_time != r.second.end_time) r.divergence += "end_time ";
    if (r.first.result_hash != r.second.result_hash) {
      r.divergence += "result_hash ";
    }
    r.divergence.append("(")
        .append(describe(r.first))
        .append(" vs ")
        .append(describe(r.second))
        .append(")");
  }
  return r;
}

}  // namespace meshmp::chk
