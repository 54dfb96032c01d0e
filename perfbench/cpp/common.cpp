#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps exact products (n*p/100 == 30) from rounding up.
  const double r = std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

constexpr double kTailLadder[] = {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0};

}  // namespace

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[nearest_rank(xs.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

double tail_percentile(std::size_t n) {
  for (double p : kTailLadder) {
    if (n > 0 && samples_beyond(n, p) >= 10) return p;
  }
  return -1.0;
}

Tail tail_at(const std::vector<double>& xs, double p) {
  Tail t;
  t.n = xs.size();
  if (p < 0.0 || xs.empty()) return t;
  t.p = p;
  t.value = percentile(xs, p);
  return t;
}

std::string describe(const Tail& tail) {
  std::ostringstream os;
  if (tail.p < 0.0) {
    os << "none (n=" << tail.n << ")";
  } else {
    os << "p" << tail.p << " (n=" << tail.n << ")";
  }
  return os.str();
}

// --- spans ----------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

int Tracer::begin(const std::string& name, int parent, long id) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.id = id;
  s.start_ms = at(Clock::now());
  s.end_ms = s.start_ms;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ms = at(Clock::now());
}

int Tracer::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::at(Clock::time_point t) const { return ms_between(epoch_, t); }

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "") << "{\"i\":" << i << ",\"name\":\"" << s.name
      << "\",\"start_ms\":" << json_num(s.start_ms)
      << ",\"end_ms\":" << json_num(s.end_ms) << ",\"parent\":" << s.parent
      << ",\"id\":" << s.id;
    if (s.server_ms >= 0.0) f << ",\"server_ms\":" << json_num(s.server_ms);
    if (s.queue_wait_ms >= 0.0) {
      f << ",\"queue_wait_ms\":" << json_num(s.queue_wait_ms);
    }
    f << "}";
  }
  f << "\n]\n";
  return static_cast<bool>(f);
}

double self_time_ms(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> iv;
  for (const Span& c : children) {
    const double lo = std::max(c.start_ms, parent.start_ms);
    const double hi = std::min(c.end_ms, parent.end_ms);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double run_lo = 0.0;
  double run_hi = -1.0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return parent.duration_ms() - covered;
}

// --- randomness -----------------------------------------------------------

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeededRng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SeededRng::below(std::uint64_t n) {
  return n == 0 ? 0 : next() % n;
}

std::vector<double> poisson_arrivals_s(std::uint64_t seed, double rate_per_s,
                                       std::size_t count) {
  SeededRng rng(seed);
  std::vector<double> out;
  out.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log1p(-rng.unit()) / rate_per_s;
    out.push_back(t);
  }
  return out;
}

std::vector<std::size_t> choose_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t picks) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  SeededRng rng(seed);
  picks = std::min(picks, n);
  for (std::size_t i = 0; i < picks; ++i) {
    const std::size_t j = i + rng.below(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(picks);
  std::sort(all.begin(), all.end());
  return all;
}

// --- host speed -----------------------------------------------------------

HostProbe::HostProbe() {
  constexpr int kRows = 60000;
  constexpr int kPerRow = 8;
  SeededRng rng(0x9b0be);
  row_start_.push_back(0);
  for (int r = 0; r < kRows; ++r) {
    for (int k = 0; k < kPerRow; ++k) {
      col_.push_back(static_cast<int>(rng.below(kRows)));
      // Rows sum to 1, so the iterate stays at 1 however often it runs.
      val_.push_back(1.0 / kPerRow);
    }
    row_start_.push_back(static_cast<int>(col_.size()));
  }
  x_.assign(kRows, 1.0);
  y_.assign(kRows, 0.0);
}

double HostProbe::run_ms() {
  const Clock::time_point t = Clock::now();
  for (int sweep = 0; sweep < 6; ++sweep) {
    for (std::size_t r = 0; r + 1 < row_start_.size(); ++r) {
      double acc = 0.0;
      for (int k = row_start_[r]; k < row_start_[r + 1]; ++k) {
        acc += val_[k] * x_[col_[k]];
      }
      y_[r] = acc;
    }
    std::swap(x_, y_);
  }
  return ms_since(t);
}

double HostProbe::resident_bytes() const {
  return static_cast<double>((row_start_.size() + col_.size()) * sizeof(int) +
                             (val_.size() + x_.size() + y_.size()) *
                                 sizeof(double));
}

double host_factor(double probe_ms) {
  return kProbeRefMs / probe_ms;
}

bool within_rel(double got, double want, double rel_tol) {
  if (!std::isfinite(got) || !std::isfinite(want)) return false;
  return std::fabs(got - want) <= rel_tol * std::max(1.0, std::fabs(want));
}

// --- process and output ---------------------------------------------------

long peak_rss_kb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name
              << "\": {\"value\": " << json_num(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
