#include "core/trace_io.h"

#include <ostream>

#include "core/search.h"
#include "core/serialize.h"

namespace yoso {

void write_trace_csv(std::ostream& os, const SearchResult& result) {
  os << "iteration,reward,accuracy,latency_ms,energy_mj,candidate\n";
  for (const SearchTracePoint& p : result.trace) {
    os << p.iteration << "," << p.reward << "," << p.result.accuracy << ","
       << p.result.latency_ms << "," << p.result.energy_mj << ","
       << serialize_candidate(p.candidate) << "\n";
  }
}

void write_finalists_csv(std::ostream& os, const SearchResult& result) {
  os << "rank,fast_reward,accurate_reward,accuracy,latency_ms,energy_mj,"
        "feasible,candidate\n";
  for (std::size_t i = 0; i < result.finalists.size(); ++i) {
    const RankedCandidate& f = result.finalists[i];
    os << i << "," << f.fast_reward << "," << f.accurate_reward << ","
       << f.accurate_result.accuracy << "," << f.accurate_result.latency_ms
       << "," << f.accurate_result.energy_mj << ","
       << (f.feasible ? 1 : 0) << "," << serialize_candidate(f.candidate)
       << "\n";
  }
}

}  // namespace yoso
