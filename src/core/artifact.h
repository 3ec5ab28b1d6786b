#pragma once
// Binary artifact format: trained Step-1/Step-2 products as checksummed,
// memory-mapped files (docs/ARTIFACTS.md is the normative byte-level spec;
// DESIGN.md §17 has the design rationale).
//
// A YOSO artifact is a little-endian container: a fixed 32-byte header
// (magic "YART", format version, section count, CRC-32s), a section table
// (one 32-byte entry per section: id, offset, size, FNV-1a 64 payload
// checksum), then the 8-byte-aligned payloads.  Sections carry the fitted
// two-target GP of the performance predictor (exact or sparse backend, in
// one section that stores the shared input side once), the accuracy-model
// parameters, the network skeleton and — for yoso_serve — a snapshot of the
// job table.
//
// The contract is load-once / verify-by-checksum / fail-loud:
//
//   * ArtifactReader::from_file memory-maps the file read-only and verifies
//     the magic, version, both header CRCs and every section's FNV-1a
//     checksum before handing out a single byte; corruption or a version
//     mismatch throws ContractViolation, never a partially-decoded model.
//   * Decoding checks each GP factor and the input scaler as it builds
//     them, every cross-field shape contract is checked on restore (via
//     GpRegressor::from_state etc.), and the skeleton is bounded to what
//     the network arithmetic holds, so a structurally valid file with an
//     inconsistent payload is rejected too.
//   * Round-trips are bit-exact: doubles are stored as raw IEEE-754
//     little-endian bytes and the packed kernel panel is recomputed by the
//     same deterministic code fit() runs, so a restored FastEvaluator
//     evaluates bit-identically to the one that was saved — the property
//     yoso_serve's byte-stable serving guarantee rests on.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/network.h"
#include "core/evaluator.h"
#include "predictor/gp.h"
#include "surrogate/accuracy_model.h"
#include "util/exec_context.h"

namespace yoso {

/// File magic: the bytes 'Y' 'A' 'R' 'T' (read as a little-endian u32).
inline constexpr std::uint32_t kArtifactMagic = 0x54524159u;
/// Format version.  A major bump breaks compatibility (readers reject);
/// minor bumps are additive (readers accept any minor).  Format 2 stores
/// the GP once (kGp); format 1 stored one GP section per target.
inline constexpr std::uint16_t kArtifactVersionMajor = 2;
inline constexpr std::uint16_t kArtifactVersionMinor = 0;

/// Section identifiers.  Values are part of the on-disk format and never
/// reused; docs/ARTIFACTS.md lists them normatively and the docs gate
/// (tools/yoso_docs_check.py) fails when the two drift apart.
enum class ArtifactSection : std::uint32_t {
  kMeta = 0x01,           ///< producer string + free-form note
  kSkeleton = 0x02,       ///< NetworkSkeleton the models were fitted for
  kAccuracyModel = 0x03,  ///< AccuracyModelParams + residual seed
  // 0x04 and 0x05 are retired (format 1's per-target kGpLatency and
  // kGpEnergy), as is 0x06 (formerly kHyperNet): never reuse them.
  kJobState = 0x07,       ///< yoso_serve job-table snapshot
  kGp = 0x08,             ///< the fitted two-target GpRegressorState
};

// The per-section payload checksum is fnv1a64 (base/fnv1a.h).

/// CRC-32 (IEEE 802.3, reflected) over `bytes` (header + table checksums).
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Append-only little-endian byte buffer the section codecs write into.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  /// u32 length prefix + raw bytes.
  void str(const std::string& s);
  /// u64 count prefix + raw IEEE-754 doubles.
  void f64_vec(std::span<const double> v);
  /// u64 count prefix + u64 values.
  void u64_vec(std::span<const std::size_t> v);

  std::span<const std::uint8_t> bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over a section payload.  Every read
/// past the end throws ContractViolation ("truncated section") instead of
/// returning garbage.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  std::string str();
  std::vector<double> f64_vec();
  std::vector<std::size_t> u64_vec();

  /// Checks, without overflow, that `count` items of at least `item_bytes`
  /// bytes each fit in the unread bytes (ContractViolation otherwise).
  /// Decoders call it on a stored count before sizing a container by it.
  void need_items(std::uint64_t count, std::size_t item_bytes) const;

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Collects an artifact's section payloads, then writes the header, the
/// table and the payloads in order.  Sections keep insertion order in the
/// file; ids must be unique.
class ArtifactWriter {
 public:
  /// Adds one section (ContractViolation on a duplicate id).
  void add_section(ArtifactSection id, std::vector<std::uint8_t> payload);
  bool has_section(ArtifactSection id) const;
  std::size_t section_count() const { return sections_.size(); }

  /// Serializes header + table + payloads (8-byte-aligned, zero-padded).
  std::vector<std::uint8_t> to_bytes() const;
  /// Writes to_bytes()'s bytes to `path` atomically (write temp + rename),
  /// one payload at a time, so a save holds no second copy of them;
  /// throws ContractViolation when the file cannot be written.
  void write_file(const std::string& path) const;

 private:
  /// Header and section table, zero-padded to the first payload's offset.
  std::vector<std::uint8_t> head() const;

  std::vector<std::pair<ArtifactSection, std::vector<std::uint8_t>>>
      sections_;
};

/// Verifying reader.  from_file memory-maps the artifact read-only (one
/// load shared by every consumer; falls back to a buffered read where mmap
/// is unavailable) and checks magic, version, CRCs and every section
/// checksum up front.
class ArtifactReader {
 public:
  static ArtifactReader from_file(const std::string& path);
  static ArtifactReader from_bytes(std::vector<std::uint8_t> bytes);

  std::uint16_t version_major() const { return version_major_; }
  std::uint16_t version_minor() const { return version_minor_; }
  std::size_t section_count() const { return sections_.size(); }

  bool has_section(ArtifactSection id) const;
  /// Payload view (valid for the reader's lifetime); ContractViolation when
  /// the section is absent.
  std::span<const std::uint8_t> section(ArtifactSection id) const;
  /// Section ids in file order (lets yoso_serve's snapshot writer copy
  /// every section of its source artifact forward verbatim, including ids
  /// this build does not know).
  std::vector<std::uint32_t> section_ids() const;

  ArtifactReader(ArtifactReader&&) noexcept;
  ArtifactReader& operator=(ArtifactReader&&) noexcept;
  ArtifactReader(const ArtifactReader&) = delete;
  ArtifactReader& operator=(const ArtifactReader&) = delete;
  ~ArtifactReader();

 private:
  ArtifactReader() = default;
  void parse(std::span<const std::uint8_t> bytes);

  std::vector<std::uint8_t> owned_;  // from_bytes / mmap fallback
  void* map_addr_ = nullptr;         // mmap base (null when owned_ backs it)
  std::size_t map_len_ = 0;
  std::uint16_t version_major_ = 0;
  std::uint16_t version_minor_ = 0;
  // (id, payload view) in file order; lookups scan — section counts are
  // single digits.
  std::vector<std::pair<std::uint32_t, std::span<const std::uint8_t>>>
      sections_;
};

// --- Section codecs ---------------------------------------------------------

void encode_skeleton(ByteWriter& w, const NetworkSkeleton& skeleton);
NetworkSkeleton decode_skeleton(ByteReader& r);

void encode_gp_state(ByteWriter& w, const GpRegressorState& state);
GpRegressorState decode_gp_state(ByteReader& r);

void encode_accuracy_model(ByteWriter& w, const AccuracyModel& model);
/// Rebuilds the model for `skeleton` (the skeleton lives in its own
/// section; the payload holds params + seed).
AccuracyModel decode_accuracy_model(ByteReader& r,
                                    const NetworkSkeleton& skeleton);

// --- High-level bundles ------------------------------------------------------

/// The decoded contents of a fast-evaluator artifact: everything needed to
/// rebuild a FastEvaluator without re-running Step 1.
struct FastEvaluatorArtifact {
  std::string producer;  ///< kMeta: who wrote the file ("yoso_cli", ...)
  std::string note;      ///< kMeta: free-form provenance line
  NetworkSkeleton skeleton;
  AccuracyModelParams accuracy_params;
  std::uint64_t accuracy_seed = 0;
  GpRegressorState gp;  ///< kGp: the predictor's energy and latency targets
};

/// Serializes a fitted fast evaluator (kMeta + kSkeleton + kAccuracyModel +
/// kGp) to `path`.
void save_fast_evaluator(const std::string& path, const FastEvaluator& fast,
                         const std::string& producer,
                         const std::string& note = "");

/// Loads and fully validates a fast-evaluator artifact (ContractViolation
/// on a missing section, checksum failure, version or shape mismatch).
FastEvaluatorArtifact load_fast_evaluator_artifact(const std::string& path);

/// Same decode from an already-open reader (yoso_serve keeps the reader
/// mapped for snapshot support and decodes through this).
FastEvaluatorArtifact decode_fast_evaluator(const ArtifactReader& reader);

/// Rebuilds the evaluator from a decoded bundle, whose GP state it moves
/// in: pass an rvalue to hold one copy of the factors.  Evaluations are
/// bit-identical to the evaluator that was saved.
FastEvaluator make_fast_evaluator(FastEvaluatorArtifact bundle,
                                  ExecContextPtr exec = nullptr);

}  // namespace yoso
