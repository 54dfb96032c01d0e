// Shared arithmetic and plumbing of the powerlim benchmark: clocks,
// percentiles and the tail rule, in-memory spans and self time, the
// seeded open-loop arrival schedule, the reference tolerance, and the
// result line. Everything here is free of powerlim types so that
// selftest.cpp can check it in isolation.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);
double ms_since(Clock::time_point from);

// --- statistics -----------------------------------------------------------

/// Median (mean of the two middle values for even sizes); 0 when empty.
double median(std::vector<double> xs);

/// Nearest-rank percentile: the ceil(n*p/100)-th smallest value.
double percentile(std::vector<double> xs, double p);

/// How many of n samples lie beyond the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);

/// The tail rule: the highest of 50/75/90/95/98/99/99.9 that leaves at least
/// ten of n samples beyond it; -1 when n < 20 (no percentile qualifies).
double tail_percentile(std::size_t n);

struct Tail {
  /// Percentile reported (-1: too few samples for any).
  double p = -1.0;
  double value = 0.0;
  std::size_t n = 0;
};

/// The tail of `xs` at percentile `p` (the caller picks p with
/// tail_percentile, usually from the sample count the workload
/// guarantees, so faster code is not compared at a different percentile).
Tail tail_at(const std::vector<double>& xs, double p);

/// "p75 (n=66)".
std::string describe(const Tail& tail);

// --- spans ----------------------------------------------------------------

/// One traced interval. `id` is the cap (deciwatts) or request number the
/// span belongs to; `parent` indexes the enclosing span (-1: root).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  long id = -1;
  /// Daemon reply telemetry carried by client spans (-1: absent).
  double server_ms = -1.0;
  double queue_wait_ms = -1.0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// Records spans in memory; write_json() dumps them when the run ends.
/// Only traced runs create one.
class Tracer {
 public:
  Tracer();

  /// Opens a span now; returns its index.
  int begin(const std::string& name, int parent = -1, long id = -1);
  void end(int span);
  /// Records a span with explicit times (ms since the tracer's epoch).
  int add(Span span);
  /// ms since the tracer's epoch for a clock reading.
  double at(Clock::time_point t) const;

  const std::vector<Span>& spans() const { return spans_; }
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// A span's self time: its duration minus the part of its interval that
/// the union of its children covers (children may overlap each other or
/// stick out of the parent; only the covered part inside counts once).
double self_time_ms(const Span& parent, const std::vector<Span>& children);

// --- seeded randomness and the open-loop schedule -------------------------

/// splitmix64: a tiny, platform-independent generator, so a seed gives
/// the same schedule on every standard library.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double unit();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Arrival offsets (seconds from the phase start, ascending) of `count`
/// requests of a Poisson process at `rate_per_s`.
std::vector<double> poisson_arrivals_s(std::uint64_t seed, double rate_per_s,
                                       std::size_t count);

/// Exactly `picks` distinct indices in [0, n), chosen by the seed, sorted.
std::vector<std::size_t> choose_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t picks);

// --- host speed -----------------------------------------------------------

/// A fixed memory-bound kernel that tracks how fast the shared host runs
/// the solver right now: sparse matrix-vector products over a seeded
/// random 60000-row matrix (~7 MB, beyond the per-core L2). Timed after
/// every cap solve, it followed CoMD pass times with correlation 0.92
/// over 36 passes; a dense in-cache loop followed them at 0.81 with a
/// third of the amplitude. The kernel is the benchmark's own code, so a
/// change to powerlim never moves it.
class HostProbe {
 public:
  HostProbe();
  /// Runs the kernel once (~4 ms on an idle host); returns its wall ms.
  double run_ms();
  /// Bytes of its arrays, all resident once constructed: what it adds to
  /// the process's peak RSS.
  double resident_bytes() const;

 private:
  std::vector<int> row_start_, col_;
  std::vector<double> val_, x_, y_;
};

/// The probe time host-normalized figures are scaled to.
inline constexpr double kProbeRefMs = 4.0;

/// The factor that host-normalizes a time measured while the probe took
/// `probe_ms`: kProbeRefMs / probe_ms. Within a set of runs the work
/// followed the probe closely (CoMD passes, r = 0.92). The square root
/// of the ratio followed a change of the host's state better, but let
/// the sweep-lulesh cap p50 spread 0.268 of its median over ten runs.
double host_factor(double probe_ms);

// --- correctness ----------------------------------------------------------

/// |got - want| <= rel_tol * max(1, |want|); false for non-finite input.
bool within_rel(double got, double want, double rel_tol);

/// Relative tolerance on certified bounds against the reference: the
/// reference re-solves cold, so only floating-point noise may differ.
inline constexpr double kBoundRelTol = 1e-6;

// --- process and output ---------------------------------------------------

/// VmHWM of a process in KiB from /proc/<pid>/status (0: unavailable).
long peak_rss_kb(pid_t pid);

/// A double with all 17 significant digits ("null" when not finite).
std::string json_num(double v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints every metric as "name = value unit" and then the result line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{...}}.
void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
