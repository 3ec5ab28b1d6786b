#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/design_space.h"
#include "core/search.h"
#include "core/serialize.h"
#include "core/trace_io.h"
#include "util/rng.h"

namespace yoso {
namespace {

SearchResult make_result(std::size_t points) {
  DesignSpace space;
  Rng rng(7);
  SearchResult r;
  for (std::size_t i = 0; i < points; ++i) {
    SearchTracePoint p;
    p.iteration = i * 10;
    p.reward = 1.0 + 0.01 * static_cast<double>(i);
    p.result = {0.95, 0.8, 5.0 + static_cast<double>(i)};
    p.candidate = space.random_candidate(rng);
    r.trace.push_back(std::move(p));

    RankedCandidate f;
    f.candidate = space.random_candidate(rng);
    f.fast_reward = 2.0;
    f.accurate_reward = 1.9;
    f.accurate_result = {0.96, 0.7, 4.5};
    f.feasible = i % 2 == 0;
    r.finalists.push_back(std::move(f));
  }
  return r;
}

TEST(TraceIo, RoundTrip) {
  const SearchResult r = make_result(5);
  std::ostringstream os;
  write_trace_csv(os, r);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), r.trace.size() + 1);
  EXPECT_EQ(lines[0],
            "iteration,reward,accuracy,latency_ms,energy_mj,candidate");
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const std::string& row = lines[i + 1];
    const std::string tail =
        std::string(",").append(serialize_candidate(r.trace[i].candidate));
    EXPECT_EQ(row.rfind(std::to_string(r.trace[i].iteration) + ",", 0), 0u)
        << row;
    ASSERT_GE(row.size(), tail.size());
    EXPECT_EQ(row.substr(row.size() - tail.size()), tail);
  }
}

TEST(TraceIo, FinalistsCsvWellFormed) {
  const SearchResult r = make_result(3);
  std::ostringstream os;
  write_finalists_csv(os, r);
  const std::string text = os.str();
  // Header + 3 rows.
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4u);
  EXPECT_NE(text.find("rank,fast_reward"), std::string::npos);
  EXPECT_NE(text.find("normal="), std::string::npos);
}

}  // namespace
}  // namespace yoso
