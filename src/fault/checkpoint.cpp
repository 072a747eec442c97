#include "fault/checkpoint.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#ifndef _WIN32
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

#include <ctime>

#include "common/version.h"
#include "mem/flash.h"
#include "perf/sampler.h"
#include "netlist/netlist.h"
#include "soc/soc.h"
#include "trace/event.h"

namespace fs = std::filesystem;

namespace detstl::fault {

namespace {

constexpr char kManifestMagic[8] = {'D', 'S', 'T', 'L', 'M', 'A', 'N', 'I'};
constexpr char kShardMagic[8] = {'D', 'S', 'T', 'L', 'S', 'H', 'R', 'D'};
constexpr std::size_t kManifestProducerBytes = 24;
// magic + schema + kind + hash (+ producer for the manifest), i.e. the bytes
// the trailing header checksum covers.
constexpr std::size_t kShardChecksummedBytes = 8 + 4 + 4 + 8 + 8 + 8 + 8;
constexpr std::size_t kShardHeaderBytes = kShardChecksummedBytes + 8;
constexpr std::size_t kManifestChecksummedBytes = 8 + 4 + 4 + 8 + kManifestProducerBytes;
constexpr std::size_t kManifestBytes = kManifestChecksummedBytes + 8;
constexpr const char* kManifestName = "manifest.ckpt";
constexpr const char* kLockName = "manifest.lock";

std::string shard_name(u32 index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%06u.ckpt", index);
  return buf;
}

/// Write `bytes` to `path` via temp-then-atomic-rename. With kEveryShard the
/// data is fsynced before the rename and the directory after it, so a crash
/// leaves either no file or a complete one — never a torn shard under its
/// final name.
void atomic_write(const fs::path& path, const std::vector<u8>& bytes,
                  FsyncPolicy fsync_policy) {
  const fs::path tmp = path.string() + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("checkpoint: cannot create " + tmp.string());
  const bool wrote =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  bool synced = std::fflush(f) == 0;
#ifndef _WIN32
  if (fsync_policy == FsyncPolicy::kEveryShard && synced)
    synced = ::fsync(::fileno(f)) == 0;
#endif
  std::fclose(f);
  if (!wrote || !synced) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw std::runtime_error("checkpoint: short write to " + tmp.string());
  }
  fs::rename(tmp, path);
#ifndef _WIN32
  if (fsync_policy == FsyncPolicy::kEveryShard) {
    const int dir = ::open(path.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
    if (dir >= 0) {
      ::fsync(dir);
      ::close(dir);
    }
  }
#endif
}

bool read_file(const fs::path& path, std::vector<u8>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  u8 buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.insert(out.end(), buf, buf + n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

std::vector<u8> encode_manifest(PayloadKind kind, u64 config_hash) {
  std::vector<u8> out;
  out.insert(out.end(), kManifestMagic, kManifestMagic + 8);
  put32(out, kCheckpointSchemaVersion);
  put32(out, static_cast<u32>(kind));
  put64(out, config_hash);
  char producer[kManifestProducerBytes] = {};
  std::snprintf(producer, sizeof producer, "detstl-%s", kDetstlVersion);
  out.insert(out.end(), producer, producer + kManifestProducerBytes);
  put64(out, fnv1a(out.data(), kManifestChecksummedBytes));
  return out;
}

/// Emission-sequence clock for the serial load path.
void emit_ckpt(trace::EventSink* sink, trace::EventKind ek, PayloadKind kind,
               u64 seq, u32 a, u32 b) {
  DETSTL_TRACE(sink, trace::Event{.cycle = seq,
                                  .kind = ek,
                                  .unit = static_cast<u8>(static_cast<u32>(kind)),
                                  .a = a,
                                  .b = b});
}

struct ShardParse {
  std::vector<ShardRecord> records;
  RejectReason reject = RejectReason::kTruncated;  // valid iff !ok
  bool ok = false;
};

ShardParse parse_shard(const std::vector<u8>& bytes, PayloadKind kind,
                       u64 config_hash) {
  ShardParse p;
  const auto reject = [&](RejectReason r) {
    p.reject = r;
    p.ok = false;
    return p;
  };
  if (bytes.size() < kShardHeaderBytes) return reject(RejectReason::kTruncated);
  if (std::memcmp(bytes.data(), kShardMagic, 8) != 0)
    return reject(RejectReason::kBadMagic);
  if (load64(bytes.data() + kShardChecksummedBytes) !=
      fnv1a(bytes.data(), kShardChecksummedBytes))
    return reject(RejectReason::kBadHeaderChecksum);
  // The header is now known intact — field mismatches are semantic.
  if (load32(bytes.data() + 8) != kCheckpointSchemaVersion)
    return reject(RejectReason::kVersionSkew);
  if (load32(bytes.data() + 12) != static_cast<u32>(kind))
    return reject(RejectReason::kKindMismatch);
  if (load64(bytes.data() + 16) != config_hash)
    return reject(RejectReason::kHashMismatch);
  const u64 record_count = load64(bytes.data() + 24);
  const u64 payload_bytes = load64(bytes.data() + 32);
  const u64 payload_checksum = load64(bytes.data() + 40);
  if (bytes.size() - kShardHeaderBytes != payload_bytes)
    return reject(RejectReason::kTruncated);
  const u8* payload = bytes.data() + kShardHeaderBytes;
  if (fnv1a(payload, payload_bytes) != payload_checksum)
    return reject(RejectReason::kBadPayloadChecksum);
  // Decode the record framing; the checksum passed, so a framing error means
  // a producer bug or a collision-grade corruption — still quarantined.
  ByteReader rd(payload, payload_bytes);
  for (u64 r = 0; r < record_count && rd.ok(); ++r) {
    ShardRecord rec;
    rec.index = rd.get64();
    const u32 len = rd.get32();
    if (const u8* body = rd.take(len)) rec.payload.assign(body, body + len);
    p.records.push_back(std::move(rec));
  }
  if (!rd.at_end()) return reject(RejectReason::kMalformedRecords);
  p.ok = true;
  return p;
}

/// shard-NNNNNN.ckpt -> NNNNNN; SIZE_MAX for anything else.
std::size_t shard_number(const std::string& name) {
  if (name.size() != 17 || name.rfind("shard-", 0) != 0 ||
      name.compare(12, 5, ".ckpt") != 0)
    return SIZE_MAX;
  std::size_t v = 0;
  for (unsigned i = 6; i < 12; ++i) {
    if (name[i] < '0' || name[i] > '9') return SIZE_MAX;
    v = v * 10 + static_cast<std::size_t>(name[i] - '0');
  }
  return v;
}

}  // namespace

ConfigHasher& ConfigHasher::f64v(double v) {
  u64 bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return u64v(bits);
}

ConfigHasher& ConfigHasher::str(const std::string& s) {
  u64v(s.size());
  return bytes(s.data(), s.size());
}

InterruptToken& global_interrupt() {
  static InterruptToken token;
  return token;
}

namespace {
void drain_signal_handler(int) { global_interrupt().request_stop(); }

/// One-shot guard for install_drain_handlers(). A fork() inherits both the
/// parent's handler table and this flag, which is exactly why
/// reset_for_child() clears it before re-installing.
std::atomic<bool> g_handlers_installed{false};
}  // namespace

void install_drain_handlers() {
  if (g_handlers_installed.exchange(true, std::memory_order_acq_rel)) return;
#ifndef _WIN32
  struct sigaction sa = {};
  sa.sa_handler = drain_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
#else
  std::signal(SIGINT, drain_signal_handler);
  std::signal(SIGTERM, drain_signal_handler);
#endif
}

void reset_for_child() {
  global_interrupt().clear();
  g_handlers_installed.store(false, std::memory_order_release);
  install_drain_handlers();
}

void arm_wallclock_timeout(unsigned seconds) {
#ifndef _WIN32
  struct sigaction sa = {};
  sa.sa_handler = drain_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGALRM, &sa, nullptr);
  ::alarm(seconds);  // 0 cancels any pending alarm
#else
  (void)seconds;  // no wall-clock budget on Windows builds
#endif
}

u64 netlist_fingerprint(const netlist::Netlist& nl) {
  ConfigHasher h;
  h.u32v(nl.num_nets()).u32v(nl.num_inputs()).u32v(nl.num_flops());
  for (netlist::NetId id = 0; id < nl.num_nets(); ++id) {
    const netlist::Gate& g = nl.gate(id);
    h.u8v(static_cast<u8>(g.op)).u32v(g.a).u32v(g.b).u32v(g.aux);
  }
  return h.digest();
}

u64 soc_image_fingerprint(const soc::Soc& soc) {
  ConfigHasher h;
  h.u32v(soc.num_cores());
  for (unsigned c = 0; c < soc.num_cores(); ++c) {
    h.u8v(soc.is_active(c) ? 1 : 0);
    h.u8v(static_cast<u8>(soc.core(c).kind()));
    h.u32v(soc.config().start_delay[c]);
  }
  // The routine image: FNV-1a of the 2 MiB flash byte stream the cores can
  // fetch or compare against, page by page. An unwritten page is 4 KiB of
  // zeros, and FNV-1a over a zero byte is a multiply by the prime alone.
  constexpr u64 kZeroPageFactor = [] {
    u64 m = 1;
    for (u32 i = 0; i < mem::Flash::kPageBytes; ++i) m *= kFnvPrime;
    return m;
  }();
  u64 rom = kFnvOffset;
  for (u32 i = 0; i < mem::Flash::kNumPages; ++i) {
    const mem::Flash::Page* page = soc.flash().page(i);
    rom = page ? fnv1a(page->data(), page->size(), rom) : rom * kZeroPageFactor;
  }
  h.u64v(rom);
  return h.digest();
}

bool checkpoint_present(const CheckpointConfig& cfg) {
  if (!cfg.enabled()) return false;
  std::error_code ec;
  return fs::exists(fs::path(cfg.dir) / kManifestName, ec);
}

LoadedCheckpoint load_checkpoint(const CheckpointConfig& cfg, PayloadKind kind,
                                 u64 config_hash, trace::EventSink* sink) {
  LoadedCheckpoint out;
  if (!cfg.enabled()) return out;
  const fs::path dir = cfg.dir;
  u64 seq = 0;

  std::vector<u8> bytes;
  if (!fs::is_directory(dir) || !read_file(dir / kManifestName, bytes))
    throw CheckpointMismatch("checkpoint: no readable manifest in '" + cfg.dir +
                             "' — nothing to resume");
  if (bytes.size() != kManifestBytes ||
      std::memcmp(bytes.data(), kManifestMagic, 8) != 0 ||
      load64(bytes.data() + kManifestChecksummedBytes) !=
          fnv1a(bytes.data(), kManifestChecksummedBytes))
    throw CheckpointMismatch("checkpoint: corrupt manifest in '" + cfg.dir + "'");
  if (load32(bytes.data() + 8) != kCheckpointSchemaVersion)
    throw CheckpointMismatch(
        "checkpoint: schema version skew in '" + cfg.dir + "' (checkpoint v" +
        std::to_string(load32(bytes.data() + 8)) + ", this binary writes v" +
        std::to_string(kCheckpointSchemaVersion) + ")");
  if (load32(bytes.data() + 12) != static_cast<u32>(kind))
    throw CheckpointMismatch("checkpoint: '" + cfg.dir +
                             "' holds a different campaign type");
  if (load64(bytes.data() + 16) != config_hash)
    throw CheckpointMismatch(
        "checkpoint: '" + cfg.dir +
        "' was produced by a different campaign configuration, netlist or "
        "routine image — refusing to merge (use a fresh directory)");

  // Deterministic file order: sorted by shard number.
  std::vector<std::pair<std::size_t, fs::path>> shards;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::size_t n = shard_number(entry.path().filename().string());
    if (n != SIZE_MAX) shards.emplace_back(n, entry.path());
  }
  std::sort(shards.begin(), shards.end());

  for (const auto& [num, path] : shards) {
    out.next_shard = std::max<u32>(out.next_shard, static_cast<u32>(num) + 1);
    ShardParse parsed;
    if (read_file(path, bytes)) parsed = parse_shard(bytes, kind, config_hash);
    if (!parsed.ok) {
      // Quarantine: keep the evidence, free the name space, re-execute the
      // units the shard claimed to hold.
      std::error_code ec;
      fs::rename(path, fs::path(path.string() + ".corrupt"), ec);
      ++out.shards_corrupt;
      emit_ckpt(sink, trace::EventKind::kCkptReject, kind, seq++,
                static_cast<u32>(parsed.reject), static_cast<u32>(num));
      continue;
    }
    ++out.shards_loaded;
    emit_ckpt(sink, trace::EventKind::kCkptLoad, kind, seq++,
              static_cast<u32>(parsed.records.size()), static_cast<u32>(num));
    out.records.insert(out.records.end(),
                       std::make_move_iterator(parsed.records.begin()),
                       std::make_move_iterator(parsed.records.end()));
  }
  return out;
}

MultiLoadedCheckpoint load_checkpoint_dirs(const std::vector<std::string>& dirs,
                                           PayloadKind kind, u64 config_hash,
                                           trace::EventSink* sink) {
  MultiLoadedCheckpoint out;
  for (const std::string& d : dirs) {
    CheckpointConfig cfg;
    cfg.dir = d;
    cfg.resume = true;
    // The shard's worker never reached its first manifest write (or the
    // directory was never created). Its units are simply absent; the
    // caller re-executes them. A *present but mismatched* manifest still
    // throws below.
    if (!checkpoint_present(cfg)) continue;
    LoadedCheckpoint one = load_checkpoint(cfg, kind, config_hash, sink);
    out.shards_loaded += one.shards_loaded;
    out.shards_corrupt += one.shards_corrupt;
    out.records.insert(out.records.end(),
                       std::make_move_iterator(one.records.begin()),
                       std::make_move_iterator(one.records.end()));
  }
  return out;
}

CheckpointWriter::CheckpointWriter(const CheckpointConfig& cfg, PayloadKind kind,
                                   u64 config_hash, u32 first_shard,
                                   trace::EventSink* sink)
    : cfg_(cfg), kind_(kind), hash_(config_hash), sink_(sink),
      next_shard_(first_shard) {
  if (!cfg_.enabled()) return;
  cfg_.interval = std::max<u32>(1, cfg_.interval);
  const fs::path dir = cfg_.dir;
  fs::create_directories(dir);
  acquire_lock();
  try {
    if (!cfg_.resume) {
      // A leftover manifest or shard means this directory belongs to another
      // (possibly still-resumable) campaign; starting fresh over it must be an
      // explicit decision.
      bool occupied = fs::exists(dir / kManifestName);
      for (const auto& entry : fs::directory_iterator(dir))
        occupied |= shard_number(entry.path().filename().string()) != SIZE_MAX;
      if (occupied)
        throw CheckpointMismatch(
            "checkpoint: '" + cfg_.dir +
            "' already holds a checkpoint — resume it or point at a clean "
            "directory");
      atomic_write(dir / kManifestName, encode_manifest(kind_, hash_), cfg_.fsync);
    } else if (!fs::exists(dir / kManifestName)) {
      throw CheckpointMismatch("checkpoint: resume writer found no manifest in '" +
                               cfg_.dir + "'");
    }
  } catch (...) {
    // A throwing constructor never runs the destructor — release the just-
    // claimed lock here or it outlives this (still running) process.
    if (!lock_path_.empty()) {
      std::error_code ec;
      fs::remove(lock_path_, ec);
      lock_path_.clear();
    }
    throw;
  }
  enabled_ = true;
}

CheckpointWriter::~CheckpointWriter() {
  if (lock_path_.empty()) return;
  std::error_code ec;
  fs::remove(lock_path_, ec);
}

/// Advisory single-writer lock. O_CREAT|O_EXCL is the atomic claim; the file
/// body ("pid N\nstart T\n") identifies the owner so a contender can tell a
/// live writer (fail fast, CheckpointMismatch) from a dead one (crashed or
/// SIGKILLed worker — break the stale lock and take over). A lock naming this
/// process is also stale: only one CheckpointWriter per dir exists at a time
/// in-process, so it was leaked by an earlier incarnation (e.g. the exception
/// path of a constructor that had already claimed it).
void CheckpointWriter::acquire_lock() {
#ifndef _WIN32
  const fs::path lock = fs::path(cfg_.dir) / kLockName;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const int fd = ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      char body[64];
      const int n =
          std::snprintf(body, sizeof body, "pid %ld\nstart %lld\n",
                        static_cast<long>(::getpid()),
                        static_cast<long long>(std::time(nullptr)));
      if (n > 0) {
        const ssize_t wrote = ::write(fd, body, static_cast<std::size_t>(n));
        (void)wrote;  // advisory metadata; the O_EXCL create is the claim
      }
      ::close(fd);
      lock_path_ = lock.string();
      return;
    }
    long owner = 0;
    std::vector<u8> bytes;
    if (read_file(lock, bytes)) {
      bytes.push_back(0);
      std::sscanf(reinterpret_cast<const char*>(bytes.data()), "pid %ld", &owner);
    }
    if (owner > 0 && owner != static_cast<long>(::getpid()) &&
        ::kill(static_cast<pid_t>(owner), 0) == 0)
      throw CheckpointMismatch(
          "checkpoint: '" + cfg_.dir + "' is locked by running process " +
          std::to_string(owner) +
          " (manifest.lock) — two writers must not journal into the same "
          "directory");
    // Stale (owner dead, unreadable, or this very process): break and retry.
    std::error_code ec;
    fs::remove(lock, ec);
  }
  throw CheckpointMismatch("checkpoint: could not acquire manifest.lock in '" +
                           cfg_.dir + "' (lock churn — is another writer racing?)");
#endif
}

void CheckpointWriter::add(u64 index, std::vector<u8> payload) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  pending_.push_back(ShardRecord{index, std::move(payload)});
  if (pending_.size() >= cfg_.interval) flush_locked();
}

void CheckpointWriter::flush() {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  flush_locked();
}

void CheckpointWriter::flush_locked() {
  if (pending_.empty()) return;
  const u64 flush_t0 = perf::wall_now_ns();
  std::vector<u8> payload;
  for (const ShardRecord& r : pending_) {
    put64(payload, r.index);
    put32(payload, static_cast<u32>(r.payload.size()));
    payload.insert(payload.end(), r.payload.begin(), r.payload.end());
  }
  std::vector<u8> bytes;
  bytes.insert(bytes.end(), kShardMagic, kShardMagic + 8);
  put32(bytes, kCheckpointSchemaVersion);
  put32(bytes, static_cast<u32>(kind_));
  put64(bytes, hash_);
  put64(bytes, pending_.size());
  put64(bytes, payload.size());
  put64(bytes, fnv1a(payload.data(), payload.size()));
  put64(bytes, fnv1a(bytes.data(), kShardChecksummedBytes));
  bytes.insert(bytes.end(), payload.begin(), payload.end());

  const u32 shard = next_shard_++;
  atomic_write(fs::path(cfg_.dir) / shard_name(shard), bytes, cfg_.fsync);
  emit_ckpt(sink_, trace::EventKind::kCkptFlush, kind_, flush_seq_++,
            static_cast<u32>(pending_.size()), shard);
  pending_.clear();
  flushed_.fetch_add(1, std::memory_order_relaxed);
  flush_ns_.fetch_add(perf::wall_now_ns() - flush_t0,
                      std::memory_order_relaxed);
}

}  // namespace detstl::fault
