#include "perf/sampler.h"

#include <chrono>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define DETSTL_HAVE_RUSAGE 1
#endif

namespace detstl::perf {

u64 wall_now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double process_cpu_seconds() {
#ifdef DETSTL_HAVE_RUSAGE
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  const auto tv_s = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
#else
  return 0.0;
#endif
}

long peak_rss_kb() {
#ifdef DETSTL_HAVE_RUSAGE
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#ifdef __APPLE__
  return ru.ru_maxrss / 1024;  // macOS reports bytes
#else
  return ru.ru_maxrss;         // Linux reports KiB
#endif
#else
  return 0;
#endif
}

HostTimer::HostTimer() { restart(); }

void HostTimer::restart() {
  wall_start_ns_ = wall_now_ns();
  cpu_start_s_ = process_cpu_seconds();
}

HostUsage HostTimer::sample() const {
  HostUsage u;
  u.wall_s = static_cast<double>(wall_now_ns() - wall_start_ns_) / 1e9;
  u.cpu_s = process_cpu_seconds() - cpu_start_s_;
  u.peak_rss_kb = peak_rss_kb();
  return u;
}

}  // namespace detstl::perf
