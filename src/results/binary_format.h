// The wlansim binary columnar result format ("WLSR"), the at-scale
// alternative to long-format CSV. A file is a self-describing schema header
// plus one *group* per grid point it ran, in ascending grid order; a
// campaign is the zero-axis grid, so its file holds the single point 0.
// Inside a group, replication records are split into fixed-size *extents*
// of column chunks: per metric, a typed run of fixed-width values with a
// per-chunk encoding picked by the writer (constant / zigzag-delta varint
// for integral runs / raw little-endian 64-bit), and per histogram the full
// DistributionSnapshot — bins and all — instead of the flattened summary
// columns CSV keeps. Every group is CRC-32 framed and length-prefixed, so
// readers can skip or byte-copy groups without decoding them; that is what
// makes shard merging a pure ordered byte concatenation, byte-identical to
// the unsharded file.
//
// The full specification (layout, versioning rules, merge contract) lives
// in docs/results.md; this header is the single in-tree implementation of
// it. Encoding is platform-independent (explicit little-endian, no struct
// dumps) and deterministic: the bytes are a pure function of the record
// stream, never of thread count, shard split, or write chunking.

#ifndef WLANSIM_RESULTS_BINARY_FORMAT_H_
#define WLANSIM_RESULTS_BINARY_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wlansim {

// ---- format constants ------------------------------------------------------

// "WLSR" / "GRP0" little-endian.
inline constexpr uint32_t kBinaryFileMagic = 0x52534C57u;
inline constexpr uint32_t kBinaryGroupMagic = 0x30505247u;
inline constexpr uint16_t kBinaryFormatVersion = 1;

// Rows buffered per extent. Chosen so an extent's working set (columns x
// 4096 doubles) stays cache- and memory-friendly while the per-extent
// framing overhead amortizes to well under a byte per row.
inline constexpr uint64_t kExtentRows = 4096;

// Largest bin count a distribution column may declare. Decoding sizes
// every snapshot by it, so the writer refuses and the reader rejects
// anything larger rather than trusting an 8-byte field with an allocation.
inline constexpr uint64_t kMaxDistBins = uint64_t{1} << 20;

// Per-chunk scalar encodings. The writer always picks the smallest
// applicable encoding in this order, so the choice — and therefore the
// bytes — is deterministic.
enum class ChunkEncoding : uint8_t {
  kConstant = 0,     // payload: one 64-bit value; every row is bit-identical
  kIntDelta = 1,     // payload: zigzag(delta) varints; rows are integral
  kRaw64 = 2,        // payload: row_count x 64-bit little-endian
};

// ---- schema structs --------------------------------------------------------

struct BinaryFileHeader {
  uint64_t n_groups = 0;
  uint64_t base_seed = 1;
  uint64_t replications = 0;  // per group
  std::string scenario;
  std::vector<std::string> param_keys;  // sweep axis keys; empty for campaigns
};

// Fixed-bin geometry of one distribution column; identical across the rows
// of a group (the writer enforces this the way the CSV writer enforces a
// fixed column set).
struct DistGeometry {
  double lo = 0.0;
  double bin_width = 1.0;
  uint64_t n_bins = 0;
};

struct BinaryGroupHeader {
  uint64_t point_index = 0;  // global grid index; 0 for campaigns
  uint64_t point_seed = 0;   // the group's campaign seed
  std::vector<std::string> param_values;  // aligned with the file's param_keys
  uint64_t n_rows = 0;
  std::vector<std::string> scalar_names;  // sorted (map order), fixed by row 0
  std::vector<std::string> dist_names;    // sorted (map order), fixed by row 0
  std::vector<DistGeometry> dist_geometries;  // aligned with dist_names
};

// ---- primitive codecs ------------------------------------------------------

// LEB128 varint (7 bits per byte, little groups first).
void PutVarint(std::string& out, uint64_t v);
// Zigzag maps signed deltas onto the varint-friendly unsigneds.
uint64_t ZigzagEncode(int64_t v);
int64_t ZigzagDecode(uint64_t v);

void PutU16(std::string& out, uint16_t v);
void PutU32(std::string& out, uint32_t v);
void PutU64(std::string& out, uint64_t v);
void PutF64(std::string& out, double v);
void PutString(std::string& out, const std::string& s);  // varint length + bytes

// Bounds-checked sequential reader over a byte range. Every getter throws
// std::runtime_error mentioning "truncated" when the range runs out — the
// uniform corruption diagnostic for damaged or cut-off files.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& bytes) : ByteReader(bytes.data(), bytes.size()) {}

  uint64_t GetVarint();
  uint8_t GetU8();
  uint16_t GetU16();
  uint32_t GetU32();
  uint64_t GetU64();
  double GetF64();
  std::string GetString();
  // Raw sub-range of `n` bytes (for nested chunk payloads).
  ByteReader GetRange(size_t n);
  // Reads a varint element count whose elements each cost at least
  // `min_element_bytes`; see RequireFits.
  uint64_t GetCount(size_t min_element_bytes);
  // Throws "truncated" unless `count` elements of at least
  // `min_element_bytes` each fit in the bytes left, so a damaged count is
  // rejected before anything is sized by it.
  void RequireFits(uint64_t count, size_t min_element_bytes) const;

  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }

 private:
  const char* Need(size_t n);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---- chunk codecs ----------------------------------------------------------

// Scalar chunk: `n` doubles (or u64 counts reinterpreted) under the
// deterministic encoding choice documented on ChunkEncoding. The payload is
// length-prefixed so a reader can skip columns it does not need.
void EncodeScalarChunk(std::string& out, const double* values, size_t n);
void EncodeU64Chunk(std::string& out, const uint64_t* values, size_t n);
void DecodeScalarChunk(ByteReader& in, size_t n, std::vector<double>* out);
void DecodeU64Chunk(ByteReader& in, size_t n, std::vector<uint64_t>* out);

// Histogram bin block: `n` bin counts with zero-run-length compression —
// a nonzero count is a plain varint, a zero opens a run encoded as
// 0x00 + varint(run length). Latency-style histograms are mostly empty
// bins, so this collapses them to a handful of bytes per row.
void EncodeBins(std::string& out, const uint64_t* bins, size_t n);
void DecodeBins(ByteReader& in, size_t n, std::vector<uint64_t>* out);

// ---- header codecs ---------------------------------------------------------

// File header layout (fixed-width fields first so n_groups sits at a known
// offset, though writers are expected to know the group count upfront):
//   magic u32 | version u16 | kind u8 | reserved u8 | n_groups u64 |
//   base_seed u64 | replications u64 | scenario str | n_param_keys varint |
//   param_key str ...
// The kind byte is derived, never chosen: 0 for a file without sweep axes
// (a campaign), 1 for a file with axes. These two codecs are the only code
// that touches it; readers go by the axis count. The reserved byte is
// written as 0 and ignored on read (older writers set it to 1 for runs
// that aggregated with approximate quantiles; the stored records were
// exact either way).
void EncodeFileHeader(std::string& out, const BinaryFileHeader& header);
// Throws std::runtime_error on a bad magic ("not a wlansim binary results
// file"), an unsupported version, or a kind byte that disagrees with the
// axis count.
BinaryFileHeader DecodeFileHeader(ByteReader& in);

// Group body layout (the bytes the CRC covers):
//   point_index u64 | point_seed u64 | n_params varint | value str ... |
//   n_rows u64 | n_scalars varint | name str ... | n_dists varint |
//   name str ... | (lo f64 | bin_width f64 | n_bins u64) per dist |
//   extents ...
// On the wire the body is framed as:
//   group magic u32 | body_len u64 | body | crc32(body) u32
// Returns the offset in `out` of the fixed-width n_rows field, so a
// streaming writer can encode the header before its row count is known and
// patch the count in place once the last row is in.
size_t EncodeGroupHeader(std::string& out, const BinaryGroupHeader& header);
// Throws std::runtime_error on a count the remaining bytes cannot hold or
// a distribution with more than kMaxDistBins bins.
BinaryGroupHeader DecodeGroupHeader(ByteReader& in);

// Bitwise geometry equality: the geometry is schema, and schema equality
// must be exact (0.0 vs -0.0 bounds would decode into another histogram).
bool SameGeometry(const DistGeometry& a, const DistGeometry& b);

}  // namespace wlansim

#endif  // WLANSIM_RESULTS_BINARY_FORMAT_H_
