#include "core/artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "arch/network.h"
#include "base/contract.h"
#include "base/fnv1a.h"
#include "core/evaluator.h"
#include "linalg/matrix.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "predictor/regressor.h"
#include "surrogate/accuracy_model.h"
#include "util/exec_context.h"

namespace yoso {
namespace {

// Fixed layout constants (docs/ARTIFACTS.md is the normative spec).
constexpr std::size_t kHeaderSize = 32;
constexpr std::size_t kTableEntrySize = 32;
constexpr std::size_t kPayloadAlign = 8;

// `n` rounded up to the next payload boundary.
constexpr std::size_t padded(std::size_t n) {
  return (n + kPayloadAlign - 1) & ~(kPayloadAlign - 1);
}

// Skeleton bounds: within them every layer shape extract_layers builds fits
// an int and network_stats' MAC sum fits an int64 (arch/network.cpp), with
// room to spare: up to 12,291 layers of at most 2^47 MACs each.  Every
// skeleton the program builds is far inside (the default has 6 cells, a
// 32x32x3 input and 96 filters in its widest cell).
constexpr std::uint32_t kMaxSkeletonCells = 1024;
constexpr std::int64_t kMaxSkeletonExtent = 512;  // input h, w and channels
constexpr std::int64_t kMaxSkeletonFilters = 4096;  // in the widest cell
constexpr std::int64_t kMaxSkeletonClasses = 65536;

// A kGp target holds at least its three hyper-parameters, alpha's count,
// two matrix headers (rows, cols, count), b's count, mean and likelihood.
constexpr std::size_t kGpTargetMinBytes = 3 * 8 + 8 + 2 * 24 + 8 + 2 * 8;

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// CRC-32 (IEEE, reflected, poly 0xEDB88320) lookup table, built once.
const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const auto& table = crc32_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// --- ByteWriter --------------------------------------------------------------

void ByteWriter::u32(std::uint32_t v) {
  bytes_.resize(bytes_.size() + 4);
  put_u32(bytes_.data() + bytes_.size() - 4, v);
}

void ByteWriter::u64(std::uint64_t v) {
  bytes_.resize(bytes_.size() + 8);
  put_u64(bytes_.data() + bytes_.size() - 8, v);
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void ByteWriter::f64_vec(std::span<const double> v) {
  u64(v.size());
  for (double d : v) f64(d);
}

void ByteWriter::u64_vec(std::span<const std::size_t> v) {
  u64(v.size());
  for (std::size_t s : v) u64(s);
}

// --- ByteReader --------------------------------------------------------------

void ByteReader::need(std::size_t n) const {
  YOSO_REQUIRE(n <= remaining(), "artifact: truncated section (need ", n,
               " bytes at offset ", pos_, ", have ", remaining(), ")");
}

void ByteReader::need_items(std::uint64_t count,
                            std::size_t item_bytes) const {
  YOSO_REQUIRE(count <= remaining() / item_bytes, "artifact: stored count ",
               count, " of ", item_bytes, "-byte items exceeds the ",
               remaining(), " bytes left at offset ", pos_);
}

std::uint8_t ByteReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t ByteReader::u32() {
  need(4);
  const std::uint32_t v = get_u32(bytes_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  const std::uint64_t v = get_u64(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

// Every GP panel of an artifact decodes through this per-element loop, and
// its speed depends on where the loop falls relative to 64-byte boundaries
// (~2 ms of a ~12 ms artifact load on a 4-vCPU Xeon VM moved with an edit
// elsewhere in the binary), so its start is pinned.
__attribute__((aligned(64))) std::vector<double> ByteReader::f64_vec() {
  const std::uint64_t n = u64();
  need_items(n, 8);
  std::vector<double> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = f64();
  return v;
}

std::vector<std::size_t> ByteReader::u64_vec() {
  const std::uint64_t n = u64();
  need_items(n, 8);
  std::vector<std::size_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = u64();
  return v;
}

// --- ArtifactWriter ----------------------------------------------------------

void ArtifactWriter::add_section(ArtifactSection id,
                                 std::vector<std::uint8_t> payload) {
  YOSO_REQUIRE(!has_section(id), "artifact: duplicate section 0x",
               static_cast<std::uint32_t>(id));
  sections_.emplace_back(id, std::move(payload));
}

bool ArtifactWriter::has_section(ArtifactSection id) const {
  for (const auto& [sid, payload] : sections_)
    if (sid == id) return true;
  return false;
}

std::vector<std::uint8_t> ArtifactWriter::head() const {
  const std::size_t table_size = sections_.size() * kTableEntrySize;
  std::vector<std::uint8_t> out(padded(kHeaderSize + table_size), 0);

  // Section table + total size first (offsets depend on payload sizes).
  std::uint8_t* table = out.data() + kHeaderSize;
  std::size_t cursor = out.size();
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const auto& [id, payload] = sections_[i];
    std::uint8_t* e = table + i * kTableEntrySize;
    put_u32(e + 0, static_cast<std::uint32_t>(id));
    put_u32(e + 4, 0);  // reserved
    put_u64(e + 8, cursor);
    put_u64(e + 16, payload.size());
    put_u64(e + 24, fnv1a64(payload));
    cursor = padded(cursor + payload.size());
  }

  std::uint8_t* h = out.data();
  put_u32(h + 0, kArtifactMagic);
  put_u16(h + 4, kArtifactVersionMajor);
  put_u16(h + 6, kArtifactVersionMinor);
  put_u32(h + 8, static_cast<std::uint32_t>(sections_.size()));
  put_u32(h + 12, 0);  // reserved
  put_u64(h + 16, cursor);  // file size
  put_u32(h + 24, crc32(std::span<const std::uint8_t>(table, table_size)));
  // header_crc32 covers bytes [0, 28) — everything before itself.
  put_u32(h + 28, crc32(std::span<const std::uint8_t>(out.data(), 28)));
  return out;
}

std::vector<std::uint8_t> ArtifactWriter::to_bytes() const {
  std::vector<std::uint8_t> out = head();
  for (const auto& [id, payload] : sections_) {
    out.insert(out.end(), payload.begin(), payload.end());
    out.resize(padded(out.size()), 0);
  }
  return out;
}

void ArtifactWriter::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> h = head();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    YOSO_REQUIRE(f.good(), "artifact: cannot open '", tmp, "' for writing");
    const auto put = [&f](const std::uint8_t* bytes, std::size_t n) {
      f.write(reinterpret_cast<const char*>(bytes),
              static_cast<std::streamsize>(n));
    };
    const std::uint8_t zeros[kPayloadAlign] = {};
    put(h.data(), h.size());
    for (const auto& [id, payload] : sections_) {
      put(payload.data(), payload.size());
      put(zeros, padded(payload.size()) - payload.size());
    }
    YOSO_REQUIRE(f.good(), "artifact: short write to '", tmp, "'");
  }
  YOSO_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
               "artifact: cannot rename '", tmp, "' to '", path, "'");
}

// --- ArtifactReader ----------------------------------------------------------

ArtifactReader::ArtifactReader(ArtifactReader&& other) noexcept
    : owned_(std::move(other.owned_)),
      map_addr_(other.map_addr_),
      map_len_(other.map_len_),
      version_major_(other.version_major_),
      version_minor_(other.version_minor_),
      sections_(std::move(other.sections_)) {
  other.map_addr_ = nullptr;
  other.map_len_ = 0;
}

ArtifactReader& ArtifactReader::operator=(ArtifactReader&& other) noexcept {
  if (this != &other) {
    if (map_addr_ != nullptr) ::munmap(map_addr_, map_len_);
    owned_ = std::move(other.owned_);
    map_addr_ = other.map_addr_;
    map_len_ = other.map_len_;
    version_major_ = other.version_major_;
    version_minor_ = other.version_minor_;
    sections_ = std::move(other.sections_);
    other.map_addr_ = nullptr;
    other.map_len_ = 0;
  }
  return *this;
}

ArtifactReader::~ArtifactReader() {
  if (map_addr_ != nullptr) ::munmap(map_addr_, map_len_);
}

ArtifactReader ArtifactReader::from_file(const std::string& path) {
  ArtifactReader reader;
  const int fd = ::open(path.c_str(), O_RDONLY);
  YOSO_REQUIRE(fd >= 0, "artifact: cannot open '", path, "'");
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    YOSO_REQUIRE(false, "artifact: cannot stat '", path, "' or file empty");
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the pages alive
  if (addr != MAP_FAILED) {
    reader.map_addr_ = addr;
    reader.map_len_ = len;
    try {
      reader.parse(std::span<const std::uint8_t>(
          static_cast<const std::uint8_t*>(addr), len));
    } catch (...) {
      // ~ArtifactReader on the moved-from local won't run; clean up here.
      ::munmap(addr, len);
      reader.map_addr_ = nullptr;
      throw;
    }
    return reader;
  }
  // mmap unavailable (exotic filesystem): buffered fallback.
  std::ifstream f(path, std::ios::binary);
  YOSO_REQUIRE(f.good(), "artifact: cannot open '", path, "'");
  reader.owned_.resize(len);
  f.read(reinterpret_cast<char*>(reader.owned_.data()),
         static_cast<std::streamsize>(len));
  YOSO_REQUIRE(f.gcount() == st.st_size, "artifact: short read from '", path,
               "'");
  reader.parse(reader.owned_);
  return reader;
}

ArtifactReader ArtifactReader::from_bytes(std::vector<std::uint8_t> bytes) {
  ArtifactReader reader;
  reader.owned_ = std::move(bytes);
  reader.parse(reader.owned_);
  return reader;
}

void ArtifactReader::parse(std::span<const std::uint8_t> bytes) {
  YOSO_REQUIRE(bytes.size() >= kHeaderSize,
               "artifact: file smaller than the 32-byte header (",
               bytes.size(), " bytes)");
  const std::uint8_t* h = bytes.data();
  YOSO_REQUIRE(get_u32(h + 0) == kArtifactMagic,
               "artifact: bad magic (not a YART file)");
  version_major_ = get_u16(h + 4);
  version_minor_ = get_u16(h + 6);
  YOSO_REQUIRE(version_major_ == kArtifactVersionMajor,
               "artifact: incompatible format version ", version_major_, ".",
               version_minor_, " (this build reads ", kArtifactVersionMajor,
               ".x)");
  const std::uint32_t count = get_u32(h + 8);
  const std::uint64_t file_size = get_u64(h + 16);
  const std::uint32_t table_crc = get_u32(h + 24);
  const std::uint32_t header_crc = get_u32(h + 28);
  YOSO_REQUIRE(crc32(bytes.first(28)) == header_crc,
               "artifact: header checksum mismatch (corrupt file)");
  YOSO_REQUIRE(file_size == bytes.size(), "artifact: header claims ",
               file_size, " bytes, file has ", bytes.size());
  const std::size_t table_size = count * kTableEntrySize;
  YOSO_REQUIRE(kHeaderSize + table_size <= bytes.size(),
               "artifact: section table exceeds file size");
  const auto table = bytes.subspan(kHeaderSize, table_size);
  YOSO_REQUIRE(crc32(table) == table_crc,
               "artifact: section-table checksum mismatch (corrupt file)");

  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* e = table.data() + i * kTableEntrySize;
    const std::uint32_t id = get_u32(e + 0);
    const std::uint64_t offset = get_u64(e + 8);
    const std::uint64_t size = get_u64(e + 16);
    const std::uint64_t checksum = get_u64(e + 24);
    YOSO_REQUIRE(offset <= bytes.size() && size <= bytes.size() - offset,
                 "artifact: section 0x", id, " extends past end of file");
    const auto payload = bytes.subspan(offset, size);
    YOSO_REQUIRE(fnv1a64(payload) == checksum, "artifact: section 0x", id,
                 " checksum mismatch (corrupt file)");
    for (const auto& [sid, span] : sections_)
      YOSO_REQUIRE(sid != id, "artifact: duplicate section 0x", id);
    sections_.emplace_back(id, payload);
  }
}

bool ArtifactReader::has_section(ArtifactSection id) const {
  for (const auto& [sid, span] : sections_)
    if (sid == static_cast<std::uint32_t>(id)) return true;
  return false;
}

std::vector<std::uint32_t> ArtifactReader::section_ids() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(sections_.size());
  for (const auto& [sid, span] : sections_) ids.push_back(sid);
  return ids;
}

std::span<const std::uint8_t> ArtifactReader::section(
    ArtifactSection id) const {
  for (const auto& [sid, span] : sections_)
    if (sid == static_cast<std::uint32_t>(id)) return span;
  YOSO_REQUIRE(false, "artifact: missing section 0x",
               static_cast<std::uint32_t>(id));
  return {};
}

// --- Section codecs ----------------------------------------------------------

void encode_skeleton(ByteWriter& w, const NetworkSkeleton& skeleton) {
  w.u32(static_cast<std::uint32_t>(skeleton.cells.size()));
  for (CellKind k : skeleton.cells) w.u8(static_cast<std::uint8_t>(k));
  w.i32(skeleton.stem_channels);
  w.i32(skeleton.input_height);
  w.i32(skeleton.input_width);
  w.i32(skeleton.input_channels);
  w.i32(skeleton.num_classes);
}

NetworkSkeleton decode_skeleton(ByteReader& r) {
  NetworkSkeleton s;
  const std::uint32_t cells = r.u32();
  YOSO_REQUIRE(cells > 0 && cells <= kMaxSkeletonCells, "artifact: ", cells,
               " skeleton cells, not 1..", kMaxSkeletonCells);
  r.need_items(cells, 1);
  s.cells.reserve(cells);
  for (std::uint32_t i = 0; i < cells; ++i) {
    const std::uint8_t k = r.u8();
    YOSO_REQUIRE(k <= static_cast<std::uint8_t>(CellKind::kReduction),
                 "artifact: invalid cell kind ", k);
    s.cells.push_back(static_cast<CellKind>(k));
  }
  s.stem_channels = r.i32();
  s.input_height = r.i32();
  s.input_width = r.i32();
  s.input_channels = r.i32();
  s.num_classes = r.i32();
  // The widest cell has stem_channels doubled once per reduction cell;
  // doubling stops past the bound, so the product cannot overflow.
  std::int64_t filters = s.stem_channels;
  for (const CellKind k : s.cells)
    if (k == CellKind::kReduction && filters <= kMaxSkeletonFilters)
      filters *= 2;
  const auto within = [](std::int64_t v, std::int64_t hi) {
    return v > 0 && v <= hi;
  };
  YOSO_REQUIRE(within(s.stem_channels, kMaxSkeletonFilters) &&
                   within(filters, kMaxSkeletonFilters) &&
                   within(s.input_height, kMaxSkeletonExtent) &&
                   within(s.input_width, kMaxSkeletonExtent) &&
                   within(s.input_channels, kMaxSkeletonExtent) &&
                   within(s.num_classes, kMaxSkeletonClasses),
               "artifact: skeleton fields out of range (stem ",
               s.stem_channels, ", widest cell ", filters, " filters, input ",
               s.input_height, "x", s.input_width, "x", s.input_channels,
               ", ", s.num_classes, " classes)");
  return s;
}

namespace {

void encode_matrix(ByteWriter& w, const Matrix& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  w.f64_vec(m.data());
}

Matrix decode_matrix(ByteReader& r) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  std::vector<double> data = r.f64_vec();
  if (rows == 0 && cols == 0 && data.empty()) return Matrix();
  YOSO_REQUIRE(rows > 0 && cols > 0 && rows <= data.size() / cols &&
                   data.size() == rows * cols,
               "artifact: matrix shape ", rows, "x", cols, " does not match ",
               data.size(), " elements");
  return Matrix(rows, cols, std::move(data));
}

// An empty matrix is the empty factor (the exact backend's K_mm slot);
// any other must be a lower factor with a positive diagonal.
Cholesky decode_factor(ByteReader& r) {
  Matrix lower = decode_matrix(r);
  if (lower.empty()) return Cholesky();
  return Cholesky::from_lower(std::move(lower));
}

}  // namespace

void encode_gp_state(ByteWriter& w, const GpRegressorState& state) {
  w.u32(static_cast<std::uint32_t>(state.backend));
  w.u8(state.tune ? 1 : 0);
  w.u64(state.inducing_target);
  w.u64(state.updates_applied);
  w.f64_vec(state.scaler.mean());
  w.f64_vec(state.scaler.stddev());
  encode_matrix(w, state.train_x);
  w.u64_vec(state.inducing_idx);
  w.u32(static_cast<std::uint32_t>(state.targets.size()));
  for (const GpRegressorState::Target& t : state.targets) {
    w.f64(t.hp.lengthscale);
    w.f64(t.hp.signal_variance);
    w.f64(t.hp.noise_variance);
    w.f64_vec(t.alpha);
    encode_matrix(w, t.chol.lower());
    encode_matrix(w, t.chol_kmm.lower());
    w.f64_vec(t.b);
    w.f64(t.y_mean);
    w.f64(t.lml);
  }
}

GpRegressorState decode_gp_state(ByteReader& r) {
  GpRegressorState s;
  const std::uint32_t backend = r.u32();
  YOSO_REQUIRE(backend == static_cast<std::uint32_t>(GpBackend::kExact) ||
                   backend == static_cast<std::uint32_t>(GpBackend::kSparse),
               "artifact: invalid GP backend tag ", backend);
  s.backend = static_cast<GpBackend>(backend);
  s.tune = r.u8() != 0;
  s.inducing_target = r.u64();
  s.updates_applied = r.u64();
  std::vector<double> scaler_mean = r.f64_vec();
  s.scaler = Standardizer::from_moments(std::move(scaler_mean), r.f64_vec());
  s.train_x = decode_matrix(r);
  s.inducing_idx = r.u64_vec();
  const std::uint32_t targets = r.u32();
  r.need_items(targets, kGpTargetMinBytes);
  s.targets.resize(targets);
  for (GpRegressorState::Target& t : s.targets) {
    t.hp.lengthscale = r.f64();
    t.hp.signal_variance = r.f64();
    t.hp.noise_variance = r.f64();
    t.alpha = r.f64_vec();
    t.chol = decode_factor(r);
    t.chol_kmm = decode_factor(r);
    t.b = r.f64_vec();
    t.y_mean = r.f64();
    t.lml = r.f64();
  }
  return s;
}

void encode_accuracy_model(ByteWriter& w, const AccuracyModel& model) {
  const AccuracyModelParams& p = model.params();
  w.f64(p.base_error);
  w.f64(p.capacity_weight);
  w.f64(p.undersize_weight);
  w.f64(p.undersize_knee);
  w.f64(p.conv_weight);
  w.f64(p.dw_weight);
  w.f64(p.k5_weight);
  w.f64(p.pool_penalty);
  w.f64(p.pool_useful_frac);
  w.f64(p.depth_weight);
  w.f64(p.depth_sat);
  w.f64(p.width_weight);
  w.f64(p.error_floor);
  w.f64(p.error_ceil);
  w.f64(p.noise_sigma);
  w.f64(p.hypernet_noise_sigma);
  w.f64(p.hypernet_offset);
  w.f64(p.hypernet_scale);
  w.u64(model.seed());
}

AccuracyModel decode_accuracy_model(ByteReader& r,
                                    const NetworkSkeleton& skeleton) {
  AccuracyModelParams p;
  p.base_error = r.f64();
  p.capacity_weight = r.f64();
  p.undersize_weight = r.f64();
  p.undersize_knee = r.f64();
  p.conv_weight = r.f64();
  p.dw_weight = r.f64();
  p.k5_weight = r.f64();
  p.pool_penalty = r.f64();
  p.pool_useful_frac = r.f64();
  p.depth_weight = r.f64();
  p.depth_sat = r.f64();
  p.width_weight = r.f64();
  p.error_floor = r.f64();
  p.error_ceil = r.f64();
  p.noise_sigma = r.f64();
  p.hypernet_noise_sigma = r.f64();
  p.hypernet_offset = r.f64();
  p.hypernet_scale = r.f64();
  const std::uint64_t seed = r.u64();
  return AccuracyModel(skeleton, p, seed);
}

// --- High-level bundles ------------------------------------------------------

void save_fast_evaluator(const std::string& path, const FastEvaluator& fast,
                         const std::string& producer,
                         const std::string& note) {
  const PerformancePredictor& predictor = fast.predictor();
  ArtifactWriter writer;
  {
    ByteWriter w;
    w.str(producer);
    w.str(note);
    writer.add_section(ArtifactSection::kMeta, w.take());
  }
  {
    ByteWriter w;
    encode_skeleton(w, predictor.skeleton());
    writer.add_section(ArtifactSection::kSkeleton, w.take());
  }
  {
    ByteWriter w;
    encode_accuracy_model(w, fast.accuracy_model());
    writer.add_section(ArtifactSection::kAccuracyModel, w.take());
  }
  {
    ByteWriter w;
    encode_gp_state(w, predictor.model().state());
    writer.add_section(ArtifactSection::kGp, w.take());
  }
  writer.write_file(path);
}

FastEvaluatorArtifact load_fast_evaluator_artifact(const std::string& path) {
  return decode_fast_evaluator(ArtifactReader::from_file(path));
}

FastEvaluatorArtifact decode_fast_evaluator(const ArtifactReader& reader) {
  FastEvaluatorArtifact bundle;
  {
    ByteReader r(reader.section(ArtifactSection::kMeta));
    bundle.producer = r.str();
    bundle.note = r.str();
    YOSO_REQUIRE(r.done(), "artifact: trailing bytes in meta section");
  }
  {
    ByteReader r(reader.section(ArtifactSection::kSkeleton));
    bundle.skeleton = decode_skeleton(r);
    YOSO_REQUIRE(r.done(), "artifact: trailing bytes in skeleton section");
  }
  {
    ByteReader r(reader.section(ArtifactSection::kAccuracyModel));
    const AccuracyModel model = decode_accuracy_model(r, bundle.skeleton);
    bundle.accuracy_params = model.params();
    bundle.accuracy_seed = model.seed();
    YOSO_REQUIRE(r.done(),
                 "artifact: trailing bytes in accuracy-model section");
  }
  {
    ByteReader r(reader.section(ArtifactSection::kGp));
    bundle.gp = decode_gp_state(r);
    YOSO_REQUIRE(r.done(), "artifact: trailing bytes in GP section");
  }
  return bundle;
}

FastEvaluator make_fast_evaluator(FastEvaluatorArtifact bundle,
                                  ExecContextPtr exec) {
  // from_state checks every cross-field shape, so a hand-edited payload
  // that survived the checksums is still rejected here.
  return FastEvaluator(
      AccuracyModel(bundle.skeleton, bundle.accuracy_params,
                    bundle.accuracy_seed),
      PerformancePredictor::from_state(bundle.skeleton, std::move(bundle.gp)),
      std::move(exec));
}

}  // namespace yoso
