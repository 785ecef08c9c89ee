#pragma once
// Binary write-ahead-log records for the OMS store.
//
// One Record per committed transaction, encoded as a self-delimiting,
// CRC-framed byte string and APPENDED to a vfs file at commit time
// (docs/persistence.md has the byte-level framing table). The log is a
// LOGICAL redo log: it records the operations the transaction
// performed (create/destroy/set/link/unlink), not physical structure
// diffs, so recovery re-executes them through the store's own mutator
// paths and the secondary indexes, link order and epoch stamps
// reproduce bit-identically by construction.
//
// Framing (fixed-width fields little-endian):
//
//   file   := "JWAL2\n" frame*
//   frame  := u32 payload_len | u32 crc32c(payload) | payload
//   payload:= u64 seq | u64 epoch_before | u64 epoch_after
//             | u32 nops | op*
//
// The payload header is fixed-width (finish_frame backpatches it in
// place); everything inside an op is varint-packed -- unsigned LEB128
// for ids, clock stamps, hashes and string lengths, zigzag-LEB128 for
// integer attribute values, with only doubles kept at a fixed eight
// bytes. Journal bytes are what a durable commit pays for, so the op
// encoding optimizes for the common case: small ids, short names, and
// not-yet-memoized text hashes each cost one or two bytes. The JWAL2
// tag names this packed format; a JWAL1 (fixed-width) file refuses to
// load rather than misdecode.
//
// A scan() stops at the first frame that is short, fails its CRC or
// does not decode -- everything from there on is a torn/corrupt suffix
// and is discarded, which is exactly the committed-prefix crash
// semantics the recovery property test asserts.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace jfm::oms::wal {

inline constexpr std::string_view kFileHeader = "JWAL2\n";

/// Text payload plus its FNV-1a hash. When the writer had already
/// memoized the hash it rides in the record so replay can seed the
/// store's per-buffer memo without re-reading the bytes -- recovered
/// stores keep the zero-rehash warm path. hash == 0 means "not
/// memoized at capture time": replay leaves the memo lazy, which is
/// always safe because a recomputed FNV-1a of the same bytes is the
/// same value. (Capturing never hashes eagerly -- that would tax every
/// durable commit to speed up a hypothetical later lookup.)
struct TextValue {
  std::uint64_t hash = 0;
  std::string bytes;
};

/// Mirrors oms::AttrValue's alternative order (integer, real, text,
/// boolean) so the encoded type tag is simply value.index().
using Value = std::variant<std::int64_t, double, TextValue, bool>;

struct OpCreate {
  std::uint64_t id = 0;
  std::string class_name;
  std::uint64_t created = 0;  ///< clock stamp recorded at create() time
};
struct OpDestroy {
  std::uint64_t id = 0;
};
struct OpSet {
  std::uint64_t id = 0;
  std::string attr;
  Value value;
};
struct OpLink {
  std::string relation;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
};
struct OpUnlink {
  std::string relation;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
};

using Op = std::variant<OpCreate, OpDestroy, OpSet, OpLink, OpUnlink>;

/// One committed transaction. `epoch_before`/`epoch_after` bracket the
/// store's mutation epoch so replay pins the counter before applying
/// and verifies it afterwards -- per-object `modified` stamps
/// (including gaps left by aborted transactions) reproduce exactly.
struct Record {
  std::uint64_t seq = 0;  ///< 1-based commit sequence, contiguous
  std::uint64_t epoch_before = 0;
  std::uint64_t epoch_after = 0;
  std::vector<Op> ops;
};

/// Encode one record as a complete frame (length + CRC + payload).
/// Deterministic: the same record always encodes to the same bytes.
std::string encode_record(const Record& record);

// -- allocation-free emit primitives for the commit path -------------------
//
// The store captures each mutation by appending its op bytes straight
// into a reusable per-transaction buffer (no Op variants, no per-op
// strings), then emit_frame() wraps the accumulated ops in one framed
// record appended to the store's pending-record buffer. Byte-identical to
// encoding the equivalent Record via encode_record(); decode stays on
// the Op structs above.

/// Borrowed-view mirror of Value with the same alternative order, so
/// emit_set writes the same type tag without owning the text bytes.
struct TextView {
  std::uint64_t hash = 0;  ///< 0 = not memoized (see TextValue)
  std::string_view bytes;
};
using ValueView = std::variant<std::int64_t, double, TextView, bool>;

void emit_create(std::string& ops, std::uint64_t id, std::string_view class_name,
                 std::uint64_t created);
void emit_destroy(std::string& ops, std::uint64_t id);
void emit_set(std::string& ops, std::uint64_t id, std::string_view attr,
              const ValueView& value);
void emit_link(std::string& ops, std::string_view relation, std::uint64_t from,
               std::uint64_t to);
void emit_unlink(std::string& ops, std::string_view relation, std::uint64_t from,
                 std::uint64_t to);

/// Append one complete frame (length + CRC + payload) holding `nops`
/// ops previously emitted into `ops_bytes`. The CRC is computed with
/// one chained pass over header + ops -- no intermediate payload copy.
void emit_frame(std::string& out, std::uint64_t seq, std::uint64_t epoch_before,
                std::uint64_t epoch_after, std::uint32_t nops, std::string_view ops_bytes);

// Zero-copy framing: the store emits a transaction's ops STRAIGHT into
// the pending-record buffer behind a reserved header slot, so sealing a
// record moves no op bytes at all. open_frame() reserves the slot and
// returns its offset; emit_* append ops after it; finish_frame()
// backpatches length, CRC and payload header in place. Abandoning an
// open frame (abort) is out.resize(base). The bytes produced are
// identical to emit_frame over the same ops.

/// Frame bytes before the ops: u32 len + u32 crc + 28-byte payload header.
inline constexpr std::size_t kFrameOverhead = 36;

/// Reserve a frame-header slot at the end of `out`; returns its offset.
std::size_t open_frame(std::string& out);

/// Backpatch the frame opened at `base`; ops bytes are
/// out[base+kFrameOverhead .. out.size()).
void finish_frame(std::string& out, std::size_t base, std::uint64_t seq,
                  std::uint64_t epoch_before, std::uint64_t epoch_after,
                  std::uint32_t nops);

/// Result of scanning a WAL byte stream (the bytes AFTER kFileHeader).
struct ScanResult {
  std::vector<Record> records;  ///< every complete, CRC-valid record
  /// Byte offset just past each decoded record, parallel to `records`
  /// -- lets recovery truncate the file to any record boundary.
  std::vector<std::uint64_t> record_ends;
  std::uint64_t valid_bytes = 0;      ///< prefix consumed by those records
  std::uint64_t discarded_bytes = 0;  ///< torn/corrupt suffix length
  bool torn = false;                  ///< a suffix was discarded
};

ScanResult scan(std::string_view bytes);

}  // namespace jfm::oms::wal
