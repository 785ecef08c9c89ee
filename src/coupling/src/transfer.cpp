#include "jfm/coupling/transfer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "jfm/support/executor.hpp"
#include "jfm/support/faultsim.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::coupling {

using support::Errc;
using support::Result;
using support::Status;

namespace {
namespace telemetry = support::telemetry;

constexpr auto kRelaxed = std::memory_order_relaxed;

// The registry mirrors of TransferStats. Counters are process-wide (all
// engines fold into the same names); stats_ stays per-engine. Cached
// references are safe: the registry never erases metrics.
telemetry::Counter& xfer_counter(const char* which) {
  return telemetry::Registry::global().counter(std::string("coupling.transfer.") + which);
}

telemetry::Histogram& export_latency() {
  static auto& h =
      telemetry::Registry::global().latency_histogram("coupling.transfer.export.micros");
  return h;
}

// Time spent waiting to acquire the engine lock (shared or exclusive):
// the serialization cost parallel checkout pays. bench_parallel_checkout
// reports this histogram; under the reader-writer scheme it collapses
// to near-zero for export-only workloads.
telemetry::Histogram& lock_wait_histogram() {
  static auto& h =
      telemetry::Registry::global().latency_histogram("coupling.transfer.lock_wait.us");
  return h;
}

std::uint64_t us_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

/// Transient failures worth a retry. Deterministic errors (not_found,
/// permission_denied, flow violations, ...) fail fast instead.
bool retryable(Errc code) noexcept {
  return code == Errc::io_error || code == Errc::locked;
}

/// The cow-off ablation's import read: a private copy of the file's
/// bytes, wrapped as the extent the store takes.
Result<vfs::Extent> materialized(Result<std::string> bytes) {
  if (!bytes.ok()) return Result<vfs::Extent>::failure(bytes.error().code, bytes.error().message);
  return vfs::make_extent(std::move(*bytes));
}
}  // namespace

TransferEngine::TransferEngine(jcf::JcfFramework* jcf, vfs::FileSystem* fs,
                               vfs::Path transfer_dir, TransferOptions options)
    : jcf_(jcf), fs_(fs), transfer_dir_(std::move(transfer_dir)), options_(options) {
  (void)fs_->mkdirs(transfer_dir_);
  if (options_.content_addressed_cache) {
    listener_token_ = jcf_->add_dov_created_listener(
        [this](jcf::DesignObjectRef dobj, jcf::DovRef) { invalidate_dobj(dobj.id); });
  }
}

TransferEngine::~TransferEngine() {
  if (listener_token_ != 0) jcf_->remove_dov_created_listener(listener_token_);
}

vfs::Path TransferEngine::staging_file(const std::string& tag) {
  // The counter is atomic: concurrent exports draw distinct staging
  // files, so shared-lock workers never collide in the transfer dir.
  const std::uint64_t n = stage_counter_.fetch_add(1, kRelaxed) + 1;
  return transfer_dir_.child(tag + "_" + std::to_string(n) + ".xfer");
}

void TransferEngine::invalidate_dobj(oms::ObjectId dobj) {
  std::lock_guard lock(cache_mu_);
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.dobj == dobj) {
      it = cache_.erase(it);
      stats_.cache_invalidations.fetch_add(1, kRelaxed);
      static auto& invalidations = xfer_counter("cache.invalidation.count");
      invalidations.add(1);
    } else {
      ++it;
    }
  }
}

bool TransferEngine::cache_probe(jcf::DovRef dov, const vfs::Path& dst, std::uint64_t hash,
                                 std::uint64_t size) {
  std::unique_lock lock(cache_mu_);
  static auto& hits = xfer_counter("cache.hit.count");
  static auto& misses = xfer_counter("cache.miss.count");
  static auto& saved = xfer_counter("cache.saved.bytes");
  auto it = cache_.find(CacheKey(dov.id, dst.str()));
  if (it == cache_.end() || it->second.content_hash != hash) {
    stats_.cache_misses.fetch_add(1, kRelaxed);
    misses.add(1);
    return false;
  }
  // The entry claims dst already holds these bytes; verify with a hash
  // (O(size) at worst, O(1) when the fs has it memoized), never a copy.
  // Anyone may have scribbled over dst since we materialized it.
  lock.unlock();
  auto on_disk = fs_->content_hash(dst);
  lock.lock();
  if (!on_disk.ok() || *on_disk != hash) {
    cache_.erase(CacheKey(dov.id, dst.str()));
    stats_.cache_misses.fetch_add(1, kRelaxed);
    misses.add(1);
    return false;
  }
  it = cache_.find(CacheKey(dov.id, dst.str()));
  if (it != cache_.end()) it->second.last_used = ++cache_tick_;
  stats_.cache_hits.fetch_add(1, kRelaxed);
  stats_.bytes_saved.fetch_add(size, kRelaxed);
  hits.add(1);
  saved.add(size);
  return true;
}

void TransferEngine::cache_store(jcf::DovRef dov, const vfs::Path& dst, std::uint64_t hash,
                                 std::uint64_t size) {
  auto dobj = jcf_->design_object_of(dov);
  std::lock_guard lock(cache_mu_);
  CacheEntry entry;
  entry.content_hash = hash;
  entry.bytes = size;
  if (dobj.ok()) entry.dobj = dobj->id;
  entry.last_used = ++cache_tick_;
  cache_[CacheKey(dov.id, dst.str())] = entry;
  while (cache_.size() > options_.cache_capacity) {
    auto victim = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    cache_.erase(victim);
    stats_.cache_evictions.fetch_add(1, kRelaxed);
    static auto& evictions = xfer_counter("cache.eviction.count");
    evictions.add(1);
  }
}

Status TransferEngine::export_dov(jcf::DovRef dov, jcf::UserRef reader, const vfs::Path& dst) {
  return export_with_retry(dov, reader, dst, {}, /*has_deadline=*/false);
}

Status TransferEngine::export_once(jcf::DovRef dov, jcf::UserRef reader, const vfs::Path& dst) {
  JFM_SPAN("coupling", "transfer.export");
  // Per-item fault hook: one ordinal per ATTEMPT, so a retried item
  // draws a fresh decision -- exactly how a flaky NFS mount behaves.
  if (auto f = support::faultsim::trip("transfer.export_item"); !f.ok()) return f;
  const auto started = std::chrono::steady_clock::now();
  std::shared_lock shared(mu_);
  lock_wait_histogram().record(us_since(started));
  Status st = export_shared(dov, reader, dst);
  export_latency().record(us_since(started));
  return st;
}

Status TransferEngine::export_with_retry(jcf::DovRef dov, jcf::UserRef reader,
                                         const vfs::Path& dst,
                                         std::chrono::steady_clock::time_point deadline,
                                         bool has_deadline) {
  const std::size_t budget = std::max<std::size_t>(1, options_.retry.max_attempts);
  for (std::size_t attempt = 1;; ++attempt) {
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      stats_.timeouts.fetch_add(1, kRelaxed);
      static auto& timeouts = xfer_counter("timeout.count");
      timeouts.add(1);
      return support::fail(Errc::timeout,
                           "batch deadline exceeded before export of " + dst.str());
    }
    Status st = export_once(dov, reader, dst);
    if (st.ok() || attempt >= budget || !retryable(st.error().code)) return st;
    // Exponential backoff between attempts. The engine lock is NOT held
    // here, so a backing-off item never stalls its batch siblings or an
    // import waiting for the exclusive lock.
    stats_.retries.fetch_add(1, kRelaxed);
    static auto& retries = xfer_counter("retry.count");
    retries.add(1);
    const std::uint64_t shift = std::min<std::size_t>(attempt - 1, 16);
    const std::uint64_t backoff_us = std::min(options_.retry.backoff_cap_us,
                                              options_.retry.backoff_base_us << shift);
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
}

std::uint64_t TransferEngine::physical_bytes(std::uint64_t size) const {
  // Analytic physical mirror: staged transfers land the payload twice
  // (staging file + destination), direct ones once, COW-shared ones
  // never.
  if (fs_->options().cow_extents) return 0;
  return options_.copy_through_filesystem ? 2 * size : size;
}

Status TransferEngine::export_shared(jcf::DovRef dov, jcf::UserRef reader,
                                     const vfs::Path& dst) {
  // Caller holds the engine lock (shared is enough): the OMS read and
  // the staging copies below all run concurrently across export
  // workers -- the store and the file system carry their own
  // reader-writer locks.
  //
  // The payload travels as an extent: a refcount on the buffer the OMS
  // store already owns. With the file system sharing extents a COLD
  // export physically moves zero bytes end to end -- write_extent and
  // copy_file are refcount bumps -- while the logical accounting still
  // charges the full payload, keeping the s3.6 tables comparable.
  // Under the cow-off ablation write_extent/copy_file clone internally,
  // restoring the paper's real byte movement.
  static auto& exports = xfer_counter("export.count");
  static auto& export_bytes = xfer_counter("export.bytes");
  static auto& export_physical = xfer_counter("export.physical.bytes");
  auto count_export = [&](std::uint64_t size) {
    stats_.exports.fetch_add(1, kRelaxed);
    stats_.bytes_exported.fetch_add(size, kRelaxed);
    exports.add(1);
    export_bytes.add(size);
  };
  // Probe the cache with the DOV's FINGERPRINT -- the hash memoized by
  // the OMS store and the payload size -- so a warm export never reads,
  // and never re-hashes, a single payload byte. The same visibility
  // rules apply (dov_fingerprint shares dov_extent's gate); a hit still
  // counts its full logical size. DOVs are immutable, so the probed
  // hash is the hash of the extent fetched below: the publish seeds the
  // file system's memo with it, and content_hash(dst) is O(1) from the
  // very first probe (copy_file propagates the memo to dst). Without
  // the cache nothing ever asks for the hash, so none is computed.
  const bool cached = options_.content_addressed_cache;
  std::optional<std::uint64_t> hash;
  if (cached) {
    auto fp = jcf_->dov_fingerprint(dov, reader);
    if (!fp.ok()) return Status(fp.error());
    if (cache_probe(dov, dst, fp->content_hash, fp->size)) {
      count_export(fp->size);
      return {};  // dst already current
    }
    hash = fp->content_hash;
  }
  auto fetched = jcf_->dov_extent(dov, reader);
  if (!fetched.ok()) return Status(fetched.error());
  oms::TextExtent text = std::move(*fetched);
  const std::uint64_t size = text->size();
  count_export(size);
  // Publish: staged through the transfer directory (the payload
  // crosses the file system twice, as in the paper) or direct.
  Status st;
  if (options_.copy_through_filesystem) {
    vfs::Path stage = staging_file("out");
    if (auto ws = fs_->write_extent(stage, text, hash); !ws.ok()) return ws;
    stats_.staging_copies.fetch_add(1, kRelaxed);
    xfer_counter("staging.count").add(1);
    st = fs_->copy_file(stage, dst);
    (void)fs_->remove(stage);
  } else {
    st = fs_->write_extent(dst, std::move(text), hash);
  }
  if (!st.ok()) return st;
  stats_.bytes_exported_physical.fetch_add(physical_bytes(size), kRelaxed);
  export_physical.add(physical_bytes(size));
  if (cached) cache_store(dov, dst, *hash, size);
  return {};
}

std::vector<Status> TransferEngine::export_batch(std::span<const ExportRequest> items,
                                                 std::size_t workers,
                                                 std::uint64_t timeout_us) {
  JFM_SPAN("coupling", "transfer.export_batch");
  std::vector<Status> results(items.size());
  // Per-batch deadline: items (and retries) that would START after it
  // fail with Errc::timeout. A running attempt is never interrupted, so
  // each file stays all-or-nothing even in a timed-out batch.
  const bool has_deadline = timeout_us > 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us);
  // `workers` (the knob, preserved for the ablation) caps the LOGICAL
  // lane count; the executor's size caps real parallelism. Each lane
  // owns its result slots and reports ok to the fan-out, so a failed
  // item never stops its siblings: every item gets its own status.
  // Lanes share the engine's reader lock and the store/fs reader locks
  // underneath, so the payload work of distinct items overlaps, and
  // per-item fault decisions stay interleaving-invariant
  // (docs/fault-injection.md).
  (void)support::executor::Executor::global().parallel_for(
      items.size(), workers, [&](std::size_t i) -> Status {
        results[i] = export_with_retry(items[i].dov, items[i].reader, items[i].dst, deadline,
                                       has_deadline);
        return {};
      });
  return results;
}

bool TransferEngine::peek_cached(jcf::DovRef dov, const vfs::Path& dst) const {
  // Side-effect free probe: no counters, no LRU touch, no eviction.
  // The checkout journal uses this to decide whether an export could
  // possibly change dst; a stale answer is safe (it only means a
  // pre-image gets captured that turns out unnecessary).
  std::uint64_t expected = 0;
  {
    std::lock_guard lock(cache_mu_);
    auto it = cache_.find(CacheKey(dov.id, dst.str()));
    if (it == cache_.end()) return false;
    expected = it->second.content_hash;
  }
  // content_hash is O(1) when the fs has dst's hash memoized (it does
  // right after a previous export materialized it) -- no payload reads.
  auto on_disk = fs_->content_hash(dst);
  return on_disk.ok() && *on_disk == expected;
}

Result<jcf::DovRef> TransferEngine::import_file(const vfs::Path& src,
                                                jcf::DesignObjectRef dobj,
                                                jcf::UserRef writer) {
  JFM_SPAN("coupling", "transfer.import");
  if (auto f = support::faultsim::trip("transfer.import"); !f.ok()) {
    return Result<jcf::DovRef>::failure(f.error().code, f.error().message);
  }
  const auto started = std::chrono::steady_clock::now();
  // Exclusive: an import is the single writer; every in-flight export
  // drains first and none starts until the new version is published
  // and the stale cache entries are invalidated.
  std::unique_lock lock(mu_);
  lock_wait_histogram().record(us_since(started));
  vfs::Path read_from = src;
  vfs::Path stage;
  if (options_.copy_through_filesystem) {
    stage = staging_file("in");
    if (auto st = fs_->copy_file(src, stage); !st.ok()) {
      return Result<jcf::DovRef>::failure(st.error().code, st.error().message);
    }
    stats_.staging_copies.fetch_add(1, kRelaxed);
    xfer_counter("staging.count").add(1);
    read_from = stage;
  }
  // COW: lift the file's extent straight into the store -- the source
  // file, the staging hop and the new DOV all share one buffer, so the
  // import physically moves zero bytes. The ablation takes the
  // materializing path instead (read a private copy, hand it to the
  // store), which is exactly what the old string pipeline did.
  auto data = fs_->options().cow_extents ? fs_->read_extent(read_from)
                                         : materialized(fs_->read_file(read_from));
  if (options_.copy_through_filesystem) (void)fs_->remove(stage);
  if (!data.ok()) {
    return Result<jcf::DovRef>::failure(data.error().code, data.error().message);
  }
  oms::TextExtent payload = std::move(*data);
  const std::uint64_t size = payload->size();
  stats_.imports.fetch_add(1, kRelaxed);
  stats_.bytes_imported.fetch_add(size, kRelaxed);
  stats_.bytes_imported_physical.fetch_add(physical_bytes(size), kRelaxed);
  static auto& imports = xfer_counter("import.count");
  static auto& import_bytes = xfer_counter("import.bytes");
  static auto& import_physical = xfer_counter("import.physical.bytes");
  imports.add(1);
  import_bytes.add(size);
  import_physical.add(physical_bytes(size));
  // create_dov fires the version-change listeners, which invalidate the
  // superseded cache entries (ours and any sibling engine's).
  return jcf_->create_dov(dobj, std::move(payload), writer);
}

TransferStats TransferEngine::stats_snapshot() const {
  // Pure atomic loads: safe concurrently with any batch or import, and
  // never blocks the data path.
  TransferStats s;
  s.exports = stats_.exports.load(kRelaxed);
  s.imports = stats_.imports.load(kRelaxed);
  s.bytes_exported = stats_.bytes_exported.load(kRelaxed);
  s.bytes_imported = stats_.bytes_imported.load(kRelaxed);
  s.bytes_exported_physical = stats_.bytes_exported_physical.load(kRelaxed);
  s.bytes_imported_physical = stats_.bytes_imported_physical.load(kRelaxed);
  s.staging_copies = stats_.staging_copies.load(kRelaxed);
  s.cache_hits = stats_.cache_hits.load(kRelaxed);
  s.cache_misses = stats_.cache_misses.load(kRelaxed);
  s.cache_evictions = stats_.cache_evictions.load(kRelaxed);
  s.cache_invalidations = stats_.cache_invalidations.load(kRelaxed);
  s.bytes_saved = stats_.bytes_saved.load(kRelaxed);
  s.retries = stats_.retries.load(kRelaxed);
  s.timeouts = stats_.timeouts.load(kRelaxed);
  return s;
}

std::size_t TransferEngine::cache_size() const {
  std::lock_guard lock(cache_mu_);
  return cache_.size();
}

void TransferEngine::clear_cache() {
  std::lock_guard lock(cache_mu_);
  cache_.clear();
}

}  // namespace jfm::coupling
