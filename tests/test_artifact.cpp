// Round-trip and rejection tests for the binary artifact format
// (core/artifact.h, spec: docs/ARTIFACTS.md).  The load-bearing property is
// bit-identity: a FastEvaluator restored from an artifact must evaluate
// EXACTLY like the one that was saved — yoso_serve's byte-stable serving
// guarantee rests on it — so the comparisons below are EXPECT_EQ on
// doubles, not near-comparisons.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/artifact.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "predictor/gp.h"
#include "serve/service.h"
#include "util/rng.h"

namespace yoso {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_file_raw(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

// Saves a trained evaluator, refined `refinements` times first (sparse
// only), loads it back, and pins its update count and bit-identical
// evaluations over a pile of random candidates.
void expect_round_trip_bit_identical(GpBackend backend,
                                     std::size_t refinements = 0) {
  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator simulator({}, SimFidelity::kAnalytical);
  FastEvaluator trained(space, skeleton, simulator,
                        {.predictor_samples = 150,
                         .seed = 21,
                         .predictor_backend = backend,
                         .inducing_points = 64});
  AccurateEvaluator accurate(skeleton, simulator);
  Rng rng(77);
  for (std::size_t i = 0; i < refinements; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    ASSERT_TRUE(trained.refine(c, accurate.evaluate(c)));
  }

  const std::string path =
      temp_path(std::string(backend == GpBackend::kExact ? "artifact_exact"
                                                         : "artifact_sparse") +
                "_refined" + std::to_string(refinements) + ".bin");
  save_fast_evaluator(path, trained, "test_artifact", "round-trip");

  const FastEvaluatorArtifact bundle = load_fast_evaluator_artifact(path);
  EXPECT_EQ(bundle.producer, "test_artifact");
  EXPECT_EQ(bundle.note, "round-trip");
  EXPECT_EQ(bundle.gp.backend, backend);
  FastEvaluator restored = make_fast_evaluator(bundle);
  EXPECT_EQ(restored.predictor().model().updates_applied(), refinements);

  for (int i = 0; i < 25; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    const EvalResult a = trained.evaluate(c);
    const EvalResult b = restored.evaluate(c);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.latency_ms, b.latency_ms);
    EXPECT_EQ(a.energy_mj, b.energy_mj);
  }
  std::remove(path.c_str());
}

TEST(ArtifactRoundTrip, ExactBackendBitIdentical) {
  expect_round_trip_bit_identical(GpBackend::kExact);
}

TEST(ArtifactRoundTrip, SparseBackendBitIdentical) {
  expect_round_trip_bit_identical(GpBackend::kSparse);
}

// The refinement count is the GP's update count, which the file stores.
TEST(ArtifactRoundTrip, RefinedSparseKeepsItsUpdateCount) {
  expect_round_trip_bit_identical(GpBackend::kSparse, 3);
}

TEST(ArtifactFormat, WriterProducesVerifiableContainer) {
  ArtifactWriter writer;
  writer.add_section(ArtifactSection::kMeta, {1, 2, 3});
  writer.add_section(ArtifactSection::kSkeleton, {4, 5});
  EXPECT_TRUE(writer.has_section(ArtifactSection::kMeta));
  EXPECT_FALSE(writer.has_section(ArtifactSection::kGp));
  EXPECT_THROW(writer.add_section(ArtifactSection::kMeta, {9}),
               ContractViolation);

  const ArtifactReader reader = ArtifactReader::from_bytes(writer.to_bytes());
  EXPECT_EQ(reader.version_major(), kArtifactVersionMajor);
  EXPECT_EQ(reader.version_minor(), kArtifactVersionMinor);
  ASSERT_EQ(reader.section_count(), 2u);
  const auto meta = reader.section(ArtifactSection::kMeta);
  ASSERT_EQ(meta.size(), 3u);
  EXPECT_EQ(meta[0], 1u);
  EXPECT_EQ(meta[2], 3u);
  EXPECT_THROW(reader.section(ArtifactSection::kGp), ContractViolation);
  // File-order ids, the snapshot writer's copy-forward contract.
  const std::vector<std::uint32_t> ids = reader.section_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], static_cast<std::uint32_t>(ArtifactSection::kMeta));
  EXPECT_EQ(ids[1], static_cast<std::uint32_t>(ArtifactSection::kSkeleton));

  // write_file writes the payloads one at a time, each with its padding:
  // the file holds to_bytes() exactly.
  const std::string path =
      temp_path("artifact_writer_" + std::to_string(::getpid()) + ".bin");
  writer.write_file(path);
  std::ifstream f(path, std::ios::binary);
  const std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(f)),
                                       std::istreambuf_iterator<char>());
  EXPECT_EQ(file, writer.to_bytes());
  std::remove(path.c_str());
}

TEST(ArtifactFormat, ChecksumCorruptionRejected) {
  ArtifactWriter writer;
  writer.add_section(ArtifactSection::kMeta,
                     std::vector<std::uint8_t>(64, 0xAB));
  const std::vector<std::uint8_t> good = writer.to_bytes();
  EXPECT_NO_THROW(ArtifactReader::from_bytes(good));

  // Magic (byte 0), header field (byte 9: section count — header CRC),
  // table entry (byte 40), payload (last non-padding byte).
  for (const std::size_t victim :
       {std::size_t{0}, std::size_t{9}, std::size_t{40}, good.size() - 8}) {
    std::vector<std::uint8_t> bad = good;
    bad[victim] ^= 0xFF;
    EXPECT_THROW(ArtifactReader::from_bytes(std::move(bad)),
                 ContractViolation)
        << "corrupted byte " << victim << " was not detected";
  }

  // Truncation is detected too, at any cut point.
  std::vector<std::uint8_t> cut(good.begin(), good.end() - 9);
  EXPECT_THROW(ArtifactReader::from_bytes(std::move(cut)), ContractViolation);

  // And the same through the mmap path.
  const std::string path = temp_path("artifact_corrupt.bin");
  std::vector<std::uint8_t> bad = good;
  bad[good.size() - 8] ^= 0x01;
  write_file_raw(path, bad);
  EXPECT_THROW(ArtifactReader::from_file(path), ContractViolation);
  std::remove(path.c_str());
}

// Format 1 (one GP section per target) and a future major are both
// rejected by the major-version rule alone.
TEST(ArtifactFormat, VersionMajorMismatchRejected) {
  ArtifactWriter writer;
  writer.add_section(ArtifactSection::kMeta, {7});
  const std::vector<std::uint8_t> good = writer.to_bytes();

  for (const std::uint16_t major :
       {std::uint16_t{1},
        static_cast<std::uint16_t>(kArtifactVersionMajor + 1)}) {
    // Set the major version (u16 LE at offset 4) and re-seal the header CRC
    // (u32 LE at offset 28, covering bytes [0, 28)) so ONLY the version
    // check can reject the file.
    std::vector<std::uint8_t> bytes = good;
    bytes[4] = static_cast<std::uint8_t>(major & 0xFF);
    bytes[5] = static_cast<std::uint8_t>(major >> 8);
    const std::uint32_t fixed_crc =
        crc32(std::span<const std::uint8_t>(bytes.data(), 28));
    for (int i = 0; i < 4; ++i)
      bytes[28 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(fixed_crc >> (8 * i));

    try {
      ArtifactReader::from_bytes(std::move(bytes));
      ADD_FAILURE() << "major version " << major << " was accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "incompatible format version " + std::to_string(major) +
                    ".0 (this build reads " +
                    std::to_string(kArtifactVersionMajor) + ".x)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ArtifactFormat, MissingSectionRejectedOnDecode) {
  ArtifactWriter writer;
  ByteWriter meta;
  meta.str("test");
  meta.str("");
  writer.add_section(ArtifactSection::kMeta, meta.take());
  const ArtifactReader reader = ArtifactReader::from_bytes(writer.to_bytes());
  EXPECT_THROW(decode_fast_evaluator(reader), ContractViolation);
}

TEST(ArtifactFormat, ByteReaderRejectsTruncatedPayload) {
  ByteWriter w;
  w.u32(12345);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.u64(), ContractViolation);
  ByteReader r2(w.bytes());
  EXPECT_EQ(r2.u32(), 12345u);
  EXPECT_TRUE(r2.done());
  EXPECT_THROW(r2.u8(), ContractViolation);

  // A stored length whose byte count wraps: (2^61 + 1) * 8 == 8 mod 2^64.
  ByteWriter wrap;
  wrap.u64((std::uint64_t{1} << 61) + 1);
  wrap.f64(0.0);
  ByteReader r3(wrap.bytes());
  EXPECT_THROW(r3.f64_vec(), ContractViolation);

  // A well-formed GP state except for a 2^32 x 2^32 training panel over
  // zero elements: rows * cols wraps to the stored element count.  The
  // scaler is valid, so the decoder gets as far as the panel.
  const double zero = 0.0, one = 1.0;
  ByteWriter gp;
  gp.u32(static_cast<std::uint32_t>(GpBackend::kExact));
  gp.u8(1);                                  // tune
  gp.u64(512);                               // inducing target
  gp.u64(0);                                 // updates applied
  gp.f64_vec({&zero, 1});                    // scaler mean
  gp.f64_vec({&one, 1});                     // scaler std
  gp.u64(std::uint64_t{1} << 32);            // train_x rows
  gp.u64(std::uint64_t{1} << 32);            // train_x cols
  gp.f64_vec({});                            // train_x data
  gp.u64_vec({});                            // inducing indices
  gp.u32(0);                                 // targets
  ByteReader rg(gp.bytes());
  EXPECT_THROW(decode_gp_state(rg), ContractViolation);
}

// decode_gp_state builds the input scaler and each Cholesky factor as it
// reads them, so their own checks run there: a non-positive scaler stddev
// or factor diagonal is rejected at decode, and the valid one-row model
// decodes and restores.
TEST(ArtifactCodec, GpScalerAndFactorsCheckedOnDecode) {
  const auto one_row_model = [](double stddev, double diag) {
    const double zero = 0.0, half = 0.5;
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(GpBackend::kExact));
    w.u8(1);                    // tune
    w.u64(512);                 // inducing target
    w.u64(0);                   // updates applied
    w.f64_vec({&zero, 1});      // scaler mean
    w.f64_vec({&stddev, 1});    // scaler std
    w.u64(1);                   // train_x rows
    w.u64(1);                   // train_x cols
    w.f64_vec({&zero, 1});      // train_x data
    w.u64_vec({});              // inducing indices
    w.u32(1);                   // targets
    w.f64(1.0);                 // lengthscale
    w.f64(1.0);                 // signal variance
    w.f64(1e-3);                // noise variance
    w.f64_vec({&half, 1});      // alpha
    w.u64(1);                   // factor rows
    w.u64(1);                   // factor cols
    w.f64_vec({&diag, 1});      // factor data
    w.u64(0);                   // K_mm factor rows
    w.u64(0);                   // K_mm factor cols
    w.f64_vec({});              // K_mm factor data
    w.f64_vec({});              // b
    w.f64(0.0);                 // target mean
    w.f64(0.0);                 // log likelihood
    return w.take();
  };
  const std::vector<std::uint8_t> good = one_row_model(1.0, 1.0);
  ByteReader r(good);
  GpRegressorState state = decode_gp_state(r);
  EXPECT_TRUE(r.done());
  const GpRegressor gp = GpRegressor::from_state(std::move(state));
  EXPECT_EQ(gp.predict(std::vector<double>{0.0}), 0.5);  // s^2 e^0 alpha
  const std::pair<double, double> bad_cases[] = {
      {0.0, 1.0}, {-1.0, 1.0}, {1.0, 0.0}, {1.0, -2.0}};
  for (const auto& [stddev, diag] : bad_cases) {
    const std::vector<std::uint8_t> bad = one_row_model(stddev, diag);
    ByteReader rb(bad);
    EXPECT_THROW(decode_gp_state(rb), ContractViolation)
        << "stddev " << stddev << ", diagonal " << diag;
  }
}

// Every skeleton the program builds passes the decoder's bounds, up to the
// widest a DesignSpace choice list admits (255 normal cells per stage and
// 255 stem filters on the default skeleton).
TEST(ArtifactCodec, SkeletonRoundTrip) {
  CandidateDesign widest;
  widest.normal_cells = 255;
  widest.stem_channels = 255;
  for (const NetworkSkeleton& original :
       {tiny_skeleton(12, 6), tiny_skeleton(8, 4), default_skeleton(),
        resolve_skeleton(default_skeleton(), widest)}) {
    ByteWriter w;
    encode_skeleton(w, original);
    ByteReader r(w.bytes());
    const NetworkSkeleton restored = decode_skeleton(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(restored.input_height, original.input_height);
    EXPECT_EQ(restored.input_width, original.input_width);
    EXPECT_EQ(restored.input_channels, original.input_channels);
    EXPECT_EQ(restored.num_classes, original.num_classes);
    EXPECT_EQ(restored.stem_channels, original.stem_channels);
    ASSERT_EQ(restored.cells.size(), original.cells.size());
    for (std::size_t i = 0; i < original.cells.size(); ++i)
      EXPECT_EQ(restored.cells[i], original.cells[i]);
  }

  // A cell count far beyond the bytes present is rejected before anything
  // is reserved for it.
  ByteWriter huge;
  huge.u32(0xFFFFFFFFu);
  ByteReader rh(huge.bytes());
  EXPECT_THROW(decode_skeleton(rh), ContractViolation);
}

// Readers skip section ids they do not know (docs/ARTIFACTS.md): a file that
// also carries the retired ids 0x04-0x06 and an id no build has named still
// loads into a bit-identical evaluator, and a yoso_serve snapshot of it
// copies every source section forward byte for byte.
TEST(ArtifactCompat, UnknownSectionsLoadAndCopyForward) {
  std::string dir = ::testing::TempDir() + "yoso_artifact_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr) << "mkdtemp " << dir;
  const std::string plain = dir + "/plain.bin";
  const std::string extended = dir + "/extended.bin";
  const std::string snapshot = dir + "/snapshot.bin";

  DesignSpace space;
  SystolicSimulator simulator({}, SimFidelity::kAnalytical);
  FastEvaluator trained(space, default_skeleton(), simulator,
                        {.predictor_samples = 150, .seed = 21});
  save_fast_evaluator(plain, trained, "test_artifact");

  ArtifactWriter writer;
  {
    const ArtifactReader source = ArtifactReader::from_file(plain);
    for (const std::uint32_t id : source.section_ids()) {
      const auto payload = source.section(static_cast<ArtifactSection>(id));
      writer.add_section(static_cast<ArtifactSection>(id),
                         {payload.begin(), payload.end()});
    }
  }
  for (const std::uint32_t retired : {0x04u, 0x05u, 0x06u})
    writer.add_section(static_cast<ArtifactSection>(retired),
                       {0x06, 0xA5, 0x00, 0xFF, 0x13});
  writer.add_section(static_cast<ArtifactSection>(0x40),
                     std::vector<std::uint8_t>(37, 0x40));
  writer.write_file(extended);

  FastEvaluator restored =
      make_fast_evaluator(load_fast_evaluator_artifact(extended));
  Rng rng(78);
  for (int i = 0; i < 25; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    const EvalResult a = trained.evaluate(c);
    const EvalResult b = restored.evaluate(c);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.latency_ms, b.latency_ms);
    EXPECT_EQ(a.energy_mj, b.energy_mj);
  }

  {
    serve::SearchService service(extended, {.start_paused = true});
    service.snapshot_to(snapshot);
    service.stop();
  }
  const ArtifactReader source = ArtifactReader::from_file(extended);
  const ArtifactReader copied = ArtifactReader::from_file(snapshot);
  std::vector<std::uint32_t> expected_ids = source.section_ids();
  expected_ids.push_back(
      static_cast<std::uint32_t>(ArtifactSection::kJobState));
  EXPECT_EQ(copied.section_ids(), expected_ids);
  for (const std::uint32_t id : source.section_ids()) {
    const auto want = source.section(static_cast<ArtifactSection>(id));
    const auto got = copied.section(static_cast<ArtifactSection>(id));
    EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()),
              std::vector<std::uint8_t>(want.begin(), want.end()))
        << "section " << id;
  }

  for (const std::string& p : {plain, extended, snapshot})
    std::remove(p.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace yoso
