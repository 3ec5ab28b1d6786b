// Seeded mutation fuzzing of a fast-evaluator artifact's two GP sections
// (kGpLatency, kGpEnergy), for a small exact and a small sparse predictor:
// 1,500 cases each, about 0.1-0.2 s per backend in a RelWithDebInfo build.
// Each mutated payload is re-assembled with ArtifactWriter, so the
// container checksums pass and the bytes reach decode_gp_state and
// GpRegressor::from_state.  Every input must load and score one candidate,
// or be rejected with ContractViolation / std::invalid_argument; any other
// exception fails the test, and a crash or sanitizer report fails the run.
// Kept short enough for the ASan+UBSan stage of scripts/check.sh.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "core/artifact.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "predictor/gp.h"
#include "util/rng.h"

namespace yoso {
namespace {

using Sections =
    std::vector<std::pair<ArtifactSection, std::vector<std::uint8_t>>>;

// The sections of a small trained evaluator's artifact, in file order.
Sections trained_sections(GpBackend backend) {
  const DesignSpace space;
  const SystolicSimulator simulator({}, SimFidelity::kAnalytical);
  const FastEvaluator fast(space, default_skeleton(), simulator,
                           {.predictor_samples = 40,
                            .seed = 5,
                            .predictor_backend = backend,
                            .inducing_points = 12});
  const std::string path = ::testing::TempDir() + "artifact_fuzz_" +
                           std::to_string(::getpid()) + ".bin";
  save_fast_evaluator(path, fast, "test_artifact_fuzz", "fuzz seed");
  Sections out;
  {
    const ArtifactReader reader = ArtifactReader::from_file(path);
    for (const std::uint32_t id : reader.section_ids()) {
      const auto id_enum = static_cast<ArtifactSection>(id);
      const std::span<const std::uint8_t> payload = reader.section(id_enum);
      out.emplace_back(id_enum, std::vector<std::uint8_t>(payload.begin(),
                                                         payload.end()));
    }
  }
  std::remove(path.c_str());
  return out;
}

// One of three mutations: 1-4 bit flips, a truncation, or one 8-byte word
// set to a hostile value.  A GP payload opens with a 4-byte backend tag and
// a 1-byte tune flag; every later field (counts, shapes, doubles) is 8
// bytes wide, so words start at offset 5 + 8k to land on whole fields.
std::string mutate(std::vector<std::uint8_t>& payload, Rng& rng) {
  const int size = static_cast<int>(payload.size());
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      const int flips = rng.uniform_int(1, 4);
      for (int i = 0; i < flips; ++i) {
        const int bit = rng.uniform_int(0, 8 * size - 1);
        payload[static_cast<std::size_t>(bit / 8)] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
      }
      return std::to_string(flips) + " bit flip(s)";
    }
    case 1: {
      const int keep = rng.uniform_int(0, size - 1);
      payload.resize(static_cast<std::size_t>(keep));
      return "truncated to " + std::to_string(keep) + " bytes";
    }
    default: {
      constexpr std::uint64_t kValues[] = {
          0,
          ~std::uint64_t{0},
          0x7ff8000000000000,  // quiet NaN
          0x7ff0000000000000,  // +inf
          std::uint64_t{1} << 40,
      };
      const std::uint64_t value = kValues[rng.uniform_int(0, 4)];
      const int word = rng.uniform_int(0, (size - 5) / 8 - 1);
      const std::size_t at = 5 + 8 * static_cast<std::size_t>(word);
      for (std::size_t b = 0; b < 8; ++b)
        payload[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
      return "word at " + std::to_string(at) + " set to " +
             std::to_string(value);
    }
  }
}

void fuzz_gp_sections(GpBackend backend, std::uint64_t seed, int cases) {
  const Sections base = trained_sections(backend);
  const DesignSpace space;
  Rng rng(seed);
  const CandidateDesign candidate = space.random_candidate(rng);
  int loaded = 0;
  int rejected = 0;
  for (int c = 0; c < cases; ++c) {
    Sections sections = base;
    const ArtifactSection target = rng.uniform_int(0, 1) == 0
                                       ? ArtifactSection::kGpLatency
                                       : ArtifactSection::kGpEnergy;
    std::string what;
    ArtifactWriter writer;
    for (auto& [id, payload] : sections) {
      if (id == target) what = mutate(payload, rng);
      writer.add_section(id, std::move(payload));
    }
    try {
      const ArtifactReader reader =
          ArtifactReader::from_bytes(writer.to_bytes());
      FastEvaluator fast = make_fast_evaluator(decode_fast_evaluator(reader));
      fast.evaluate(candidate);
      ++loaded;
    } catch (const std::invalid_argument&) {  // ContractViolation is one
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << c << " (" << what << "): unexpected "
                    << e.what();
    }
  }
  // Both outcomes must occur, or the mutations never reached the decoders
  // (or never got past them).
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ArtifactFuzz, ExactGpSectionsLoadOrThrow) {
  fuzz_gp_sections(GpBackend::kExact, 101, 1500);
}

TEST(ArtifactFuzz, SparseGpSectionsLoadOrThrow) {
  fuzz_gp_sections(GpBackend::kSparse, 202, 1500);
}

}  // namespace
}  // namespace yoso
