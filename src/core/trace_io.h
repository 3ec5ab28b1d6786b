#pragma once
// CSV export for search artefacts: iteration traces for plotting (the Fig-6
// series), and finalist tables.  The CSV dialect is plain comma-separated
// with a header row; the last column is the candidate in the serialize.h
// grammar.  Export only: nothing in the library reads these files back.

#include <iosfwd>
#include <string>

#include "core/search.h"

namespace yoso {

/// Writes the iteration trace:
/// iteration,reward,accuracy,latency_ms,energy_mj,candidate
void write_trace_csv(std::ostream& os, const SearchResult& result);

/// Writes the reranked finalists:
/// rank,fast_reward,accurate_reward,accuracy,latency_ms,energy_mj,feasible,candidate
void write_finalists_csv(std::ostream& os, const SearchResult& result);

}  // namespace yoso
