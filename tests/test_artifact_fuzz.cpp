// Seeded mutation fuzzing of a format-2 fast-evaluator artifact, built from
// a small exact and a small sparse predictor.  There are two kinds of case.
//
//  * Payload cases mutate the kGp, kMeta, kSkeleton or kAccuracyModel
//    payload and re-assemble the file with ArtifactWriter, so the container
//    checksums pass and the bytes reach the section decoders,
//    GpRegressor::from_state and one evaluate().
//  * Container cases mutate the assembled file's header and section table:
//    bit flips, truncation, and hostile section-count, offset and size
//    fields.  They then re-seal both CRCs and every in-bounds section's
//    FNV-1a, so the bytes reach the table checks and, past them, the
//    decoders.
//
// Every input must load and score one candidate, or be rejected with
// ContractViolation / std::invalid_argument.  Any other exception fails the
// test, and a crash or sanitizer report fails the run (sanitizer builds
// halt on the first UBSan report, see CMakeLists.txt).  Each test takes
// under 0.5 s in a RelWithDebInfo build, short enough for the ASan+UBSan
// stage of scripts/check.sh.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "base/fnv1a.h"
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

std::vector<std::uint8_t> assemble(Sections sections) {
  ArtifactWriter writer;
  for (auto& [id, payload] : sections)
    writer.add_section(id, std::move(payload));
  return writer.to_bytes();
}

std::uint64_t get_le(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void put_le(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// Where a payload's fields can start: every field of a kGp payload after
// its 4-byte backend tag and 1-byte tune flag is 4 or 8 bytes wide, and
// kAccuracyModel holds only 8-byte fields.  kMeta's strings and
// kSkeleton's one byte per cell leave no grid, so any offset is a start.
struct FieldGrid {
  std::size_t first;
  std::size_t step;
};

FieldGrid field_grid(ArtifactSection id) {
  switch (id) {
    case ArtifactSection::kGp:
      return {5, 4};
    case ArtifactSection::kAccuracyModel:
      return {0, 8};
    default:
      return {0, 1};
  }
}

// One of three mutations: 1-4 bit flips, a truncation, or one 4- or 8-byte
// field set to a hostile value.
std::string mutate(std::vector<std::uint8_t>& payload, FieldGrid grid,
                   Rng& rng) {
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
          0x7fffffff,  // INT_MAX
          0x80000000,  // INT_MIN as an i32
      };
      const std::uint64_t value = kValues[rng.uniform_int(0, 6)];
      const int width = rng.uniform_int(0, 1) == 0 ? 4 : 8;
      const int room = size - static_cast<int>(grid.first) - width;
      if (room < 0) return "no field to set";
      const int words = room / static_cast<int>(grid.step) + 1;
      const std::size_t at =
          grid.first + grid.step * static_cast<std::size_t>(
                                       rng.uniform_int(0, words - 1));
      put_le(payload.data() + at, value, width);
      return std::to_string(width) + "-byte field at " + std::to_string(at) +
             " set to " + std::to_string(value);
    }
  }
}

// Recomputes every in-bounds section's FNV-1a, the table CRC (when the
// stored count's table fits the file) and the header CRC.
void reseal(std::vector<std::uint8_t>& file) {
  if (file.size() < 32) return;
  const std::uint64_t count = get_le(file.data() + 8, 4);
  if (32 + 32 * count <= file.size()) {
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint8_t* e = file.data() + 32 + 32 * i;
      const std::uint64_t offset = get_le(e + 8, 8);
      const std::uint64_t size = get_le(e + 16, 8);
      if (offset <= file.size() && size <= file.size() - offset)
        put_le(e + 24, fnv1a64({file.data() + offset, size}), 8);
    }
    put_le(file.data() + 24, crc32({file.data() + 32, 32 * count}), 4);
  }
  put_le(file.data() + 28, crc32({file.data(), 28}), 4);
}

// Header and table mutations: 1-4 bit flips, a truncation inside them, or
// the section count or one entry's offset or size set to a hostile value.
std::string mutate_container(std::vector<std::uint8_t>& file,
                             std::size_t sections, Rng& rng) {
  const int table_end = static_cast<int>(32 + 32 * sections);
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      const int flips = rng.uniform_int(1, 4);
      for (int i = 0; i < flips; ++i) {
        const int bit = rng.uniform_int(0, 8 * table_end - 1);
        file[static_cast<std::size_t>(bit / 8)] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
      }
      return std::to_string(flips) + " header/table bit flip(s)";
    }
    case 1: {
      const int keep = rng.uniform_int(0, table_end);
      file.resize(static_cast<std::size_t>(keep));
      return "truncated to " + std::to_string(keep) + " bytes";
    }
    default: {
      const std::uint64_t size = file.size();
      const std::uint64_t values[] = {
          0, 1, ~std::uint64_t{0}, std::uint64_t{1} << 31,
          std::uint64_t{1} << 32, size, size - 1,
          static_cast<std::uint64_t>(rng.uniform_int(0, table_end))};
      const std::uint64_t value = values[rng.uniform_int(0, 7)];
      const int field = rng.uniform_int(0, 2 * static_cast<int>(sections));
      if (field == 0) {
        put_le(file.data() + 8, value, 4);
        return "section count set to " + std::to_string(value & 0xffffffff);
      }
      const std::size_t entry = 32 + 32 * static_cast<std::size_t>(
                                             (field - 1) / 2);
      const bool offset = field % 2 == 1;
      put_le(file.data() + entry + (offset ? 8 : 16), value, 8);
      return std::string(offset ? "offset" : "size") + " of entry at " +
             std::to_string(entry) + " set to " + std::to_string(value);
    }
  }
}

struct Outcomes {
  int loaded = 0;
  int rejected = 0;
};

// Loads `file` and scores one candidate; counts the outcome, and fails the
// test on any exception other than a rejection.
void load_and_score(std::vector<std::uint8_t> file,
                    const CandidateDesign& candidate, Outcomes& out,
                    const std::string& what) {
  try {
    const ArtifactReader reader = ArtifactReader::from_bytes(std::move(file));
    FastEvaluator fast = make_fast_evaluator(decode_fast_evaluator(reader));
    fast.evaluate(candidate);
    ++out.loaded;
  } catch (const std::invalid_argument&) {  // ContractViolation is one
    ++out.rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": unexpected " << e.what();
  }
}

// `cases` payload mutations of the sections in `targets`, each case
// mutating one of them; returns the outcomes per section.
std::map<ArtifactSection, Outcomes> fuzz_payloads(
    GpBackend backend, std::span<const ArtifactSection> targets,
    std::uint64_t seed, int cases) {
  const Sections base = trained_sections(backend);
  const DesignSpace space;
  Rng rng(seed);
  const CandidateDesign candidate = space.random_candidate(rng);
  std::map<ArtifactSection, Outcomes> outcomes;
  for (int c = 0; c < cases; ++c) {
    Sections sections = base;
    const ArtifactSection target = targets[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(targets.size()) - 1))];
    std::string what;
    for (auto& [id, payload] : sections)
      if (id == target) what = mutate(payload, field_grid(id), rng);
    load_and_score(assemble(std::move(sections)), candidate,
                   outcomes[target],
                   "case " + std::to_string(c) + " (section 0x" +
                       std::to_string(static_cast<std::uint32_t>(target)) +
                       ", " + what + ")");
  }
  return outcomes;
}

// Both outcomes must occur for every fuzzed section, or the mutations never
// reached its decoder (or never got past it).
void expect_both_outcomes(
    const std::map<ArtifactSection, Outcomes>& outcomes,
    std::span<const ArtifactSection> targets) {
  for (const ArtifactSection id : targets) {
    SCOPED_TRACE("section " +
                 std::to_string(static_cast<std::uint32_t>(id)));
    ASSERT_EQ(outcomes.count(id), 1u);
    EXPECT_GT(outcomes.at(id).loaded, 0);
    EXPECT_GT(outcomes.at(id).rejected, 0);
  }
}

constexpr ArtifactSection kGpOnly[] = {ArtifactSection::kGp};

TEST(ArtifactFuzz, ExactGpSectionsLoadOrThrow) {
  expect_both_outcomes(fuzz_payloads(GpBackend::kExact, kGpOnly, 101, 1500),
                       kGpOnly);
}

TEST(ArtifactFuzz, SparseGpSectionsLoadOrThrow) {
  expect_both_outcomes(fuzz_payloads(GpBackend::kSparse, kGpOnly, 202, 1500),
                       kGpOnly);
}

TEST(ArtifactFuzz, MetaSkeletonAccuracySectionsLoadOrThrow) {
  constexpr ArtifactSection kTargets[] = {ArtifactSection::kMeta,
                                          ArtifactSection::kSkeleton,
                                          ArtifactSection::kAccuracyModel};
  expect_both_outcomes(fuzz_payloads(GpBackend::kSparse, kTargets, 303, 1500),
                       kTargets);
}

TEST(ArtifactFuzz, ContainerLoadsOrThrows) {
  const Sections base = trained_sections(GpBackend::kSparse);
  const std::vector<std::uint8_t> file = assemble(base);
  const DesignSpace space;
  Rng rng(404);
  const CandidateDesign candidate = space.random_candidate(rng);
  Outcomes outcomes;
  for (int c = 0; c < 1500; ++c) {
    std::vector<std::uint8_t> bad = file;
    const std::string what = mutate_container(bad, base.size(), rng);
    reseal(bad);
    load_and_score(std::move(bad), candidate, outcomes,
                   "case " + std::to_string(c) + " (" + what + ")");
  }
  EXPECT_GT(outcomes.loaded, 0);
  EXPECT_GT(outcomes.rejected, 0);
}

// Checksum-valid skeletons with one field at INT_MAX once loaded and
// evaluated, overflowing the int arithmetic of arch/network.cpp on the way.
// The skeleton decoder now bounds every field to what that arithmetic holds.
TEST(ArtifactFuzz, IntMaxSkeletonFieldsRejected) {
  const Sections base = trained_sections(GpBackend::kExact);
  const DesignSpace space;
  Rng rng(505);
  const CandidateDesign candidate = space.random_candidate(rng);
  // The payload closes with five i32 fields: stem_channels, input_height,
  // input_width, input_channels, num_classes.
  for (std::size_t field = 0; field < 5; ++field) {
    Sections sections = base;
    for (auto& [id, payload] : sections)
      if (id == ArtifactSection::kSkeleton)
        put_le(payload.data() + payload.size() - 20 + 4 * field,
               std::numeric_limits<std::int32_t>::max(), 4);
    const ArtifactReader reader =
        ArtifactReader::from_bytes(assemble(std::move(sections)));
    EXPECT_THROW(make_fast_evaluator(decode_fast_evaluator(reader))
                     .evaluate(candidate),
                 ContractViolation)
        << "field " << field;
  }
}

}  // namespace
}  // namespace yoso
