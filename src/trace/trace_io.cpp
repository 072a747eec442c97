#include "trace/trace_io.h"

#include <cstdio>
#include <cstring>

namespace detstl::trace {

namespace {

constexpr char kMagic[4] = {'D', 'S', 'E', 'V'};
constexpr std::size_t kHeaderBytes = 16;

}  // namespace

bool write_events_file(const std::string& path,
                       const std::vector<Event>& events) {
  std::string blob(kHeaderBytes, '\0');
  auto* h = reinterpret_cast<u8*>(blob.data());
  std::memcpy(h, kMagic, sizeof kMagic);
  store_le(h + 4, kEventFileVersion, 4);
  store_le(h + 8, events.size(), 8);
  blob += serialize(events);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  return std::fclose(f) == 0 && ok;
}

EventFileResult read_events_file(const std::string& path) {
  EventFileResult r;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    r.error = "cannot open " + path;
    return r;
  }
  std::string blob;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) blob.append(buf, n);
  std::fclose(f);

  if (blob.size() < kHeaderBytes ||
      std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0) {
    r.error = path + ": not a DSEV event file";
    return r;
  }
  const auto* p = reinterpret_cast<const u8*>(blob.data());
  const u32 version = load32(p + 4);
  if (version != kEventFileVersion) {
    r.error = path + ": unsupported event-file version " +
              std::to_string(version);
    return r;
  }
  // Compare in records, not bytes: count * 24 wraps in u64 for a crafted
  // count of 2^61 and up.
  const u64 count = load64(p + 8);
  const std::size_t body = blob.size() - kHeaderBytes;
  if (body % kEventRecordBytes != 0 || count != body / kEventRecordBytes) {
    r.error = path + ": truncated (" + std::to_string(blob.size()) +
              " bytes for " + std::to_string(count) + " records)";
    return r;
  }
  r.events.reserve(static_cast<std::size_t>(count));
  for (u64 i = 0; i < count; ++i)
    r.events.push_back(decode_event(p + kHeaderBytes + i * kEventRecordBytes));
  r.ok = true;
  return r;
}

}  // namespace detstl::trace
