// Exact certificate checker (check/certificate.h): accepts genuine
// optimal solves, rejects every class of tampered solution, and
// distinguishes real violations from float-level noise via the
// configurable tolerance.
#include "check/certificate.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "apps/exchange.h"
#include "core/windowed.h"
#include "dag/graph.h"
#include "machine/power_model.h"

namespace powerlim::check {
namespace {

const machine::PowerModel& test_model() {
  static const machine::PowerModel m{machine::SocketSpec{}};
  return m;
}

struct Solved {
  dag::TaskGraph graph;
  machine::ClusterSpec cluster;
  core::WindowedLpResult result;
  double job_cap = 0.0;
};

Solved solve_exchange(double cap_scale = 1.3) {
  Solved s{apps::two_rank_exchange(), {}, {}, 0.0};
  core::WindowSweeper sweeper(s.graph, test_model(), s.cluster);
  s.job_cap = sweeper.min_feasible_power() * cap_scale;
  s.result = sweeper.solve({.power_cap = s.job_cap});
  EXPECT_TRUE(s.result.optimal());
  return s;
}

const CertificateCheck* find_check(const CertificateVerdict& v,
                                   const std::string& rule) {
  for (const CertificateCheck& c : v.checks) {
    if (c.rule == rule) return &c;
  }
  return nullptr;
}

TEST(Certificate, AcceptsGenuineOptimalSolve) {
  const Solved s = solve_exchange();
  const CertificateVerdict v = verify_certificate(
      s.graph, test_model(), s.cluster, s.result, s.job_cap);
  EXPECT_TRUE(v.checked);
  EXPECT_TRUE(v.ok) << v.detail;
  EXPECT_TRUE(v.duality_checked);
  EXPECT_LT(v.duality_gap, 1e-6);
  for (const CertificateCheck& c : v.checks) {
    EXPECT_TRUE(c.ok) << c.rule << ": " << c.detail;
  }
}

TEST(Certificate, AcceptsMultiWindowTrace) {
  Solved s{apps::make_comd({.ranks = 2, .iterations = 3}), {}, {}, 0.0};
  core::WindowSweeper sweeper(s.graph, test_model(), s.cluster);
  s.job_cap = sweeper.min_feasible_power() * 1.4;
  s.result = sweeper.solve({.power_cap = s.job_cap});
  ASSERT_TRUE(s.result.optimal());
  const CertificateVerdict v = verify_certificate(
      s.graph, test_model(), s.cluster, s.result, s.job_cap);
  EXPECT_TRUE(v.ok) << v.detail;
  EXPECT_TRUE(v.duality_checked);
}

TEST(Certificate, ToleranceSeparatesNoiseFromViolation) {
  // Shrinking the makespan claim by 1e-9 s sits inside the 1e-6
  // feasibility tolerance; shrinking by 1e-3 s does not.
  const Solved s = solve_exchange();

  core::WindowedLpResult noise = s.result;
  noise.makespan -= 1e-9;
  noise.vertex_time.back() -= 1e-9;
  EXPECT_TRUE(verify_certificate(s.graph, test_model(), s.cluster, noise,
                                 s.job_cap)
                  .ok);

  core::WindowedLpResult bad = s.result;
  bad.makespan -= 1e-3;
  bad.vertex_time.back() -= 1e-3;
  const CertificateVerdict v = verify_certificate(
      s.graph, test_model(), s.cluster, bad, s.job_cap);
  EXPECT_FALSE(v.ok);
  const CertificateCheck* prec = find_check(v, "precedence");
  ASSERT_NE(prec, nullptr);
  EXPECT_FALSE(prec->ok) << v.detail;
  EXPECT_GT(prec->violation, 1e-4);
}

TEST(Certificate, RejectsBrokenPrecedenceEdge) {
  const Solved s = solve_exchange();
  core::WindowedLpResult bad = s.result;
  // Pull one interior vertex before its predecessor's end: the task into
  // it no longer fits between its endpoints.
  ASSERT_GE(bad.vertex_time.size(), 3u);
  bad.vertex_time[1] = 0.0;
  const CertificateVerdict v = verify_certificate(
      s.graph, test_model(), s.cluster, bad, s.job_cap);
  EXPECT_FALSE(v.ok);
  const CertificateCheck* prec = find_check(v, "precedence");
  ASSERT_NE(prec, nullptr);
  EXPECT_FALSE(prec->ok);
}

TEST(Certificate, RejectsCapViolationByShareTampering) {
  // Shift one task's mixture toward its fastest (hungriest) config
  // without re-solving: the event cap no longer holds.
  const Solved s = solve_exchange(1.05);  // tight cap: power binds
  core::WindowedLpResult bad = s.result;
  bool tampered = false;
  for (std::vector<core::ConfigShare>& shares : bad.schedule.shares) {
    if (shares.size() < 2) continue;
    shares.front().fraction = 1.0;
    for (std::size_t k = 1; k < shares.size(); ++k) {
      shares[k].fraction = 0.0;
    }
    tampered = true;
    break;
  }
  ASSERT_TRUE(tampered) << "expected a task with a mixed schedule";
  const CertificateVerdict v = verify_certificate(
      s.graph, test_model(), s.cluster, bad, s.job_cap);
  EXPECT_FALSE(v.ok);
  // Either the event cap or precedence breaks (the fast config is
  // shorter, so the claimed span may now be loose but the power is up).
  const CertificateCheck* cap = find_check(v, "event-cap");
  const CertificateCheck* prec = find_check(v, "precedence");
  ASSERT_NE(cap, nullptr);
  ASSERT_NE(prec, nullptr);
  EXPECT_TRUE(!cap->ok || !prec->ok) << v.detail;
}

TEST(Certificate, RejectsTamperedFrontier) {
  const Solved s = solve_exchange();
  core::WindowedLpResult bad = s.result;
  ASSERT_FALSE(bad.frontiers.empty());
  for (std::vector<machine::Config>& f : bad.frontiers) {
    if (f.empty()) continue;
    f.front().power *= 0.5;  // claim the config burns half the power
    break;
  }
  const CertificateVerdict v = verify_certificate(
      s.graph, test_model(), s.cluster, bad, s.job_cap);
  EXPECT_FALSE(v.ok);
  const CertificateCheck* fm = find_check(v, "frontier-membership");
  ASSERT_NE(fm, nullptr);
  EXPECT_FALSE(fm->ok);
}

TEST(Certificate, RejectsShareWeightsNotSummingToOne) {
  const Solved s = solve_exchange();
  core::WindowedLpResult bad = s.result;
  ASSERT_FALSE(bad.schedule.shares.empty());
  bool tampered = false;
  for (std::vector<core::ConfigShare>& shares : bad.schedule.shares) {
    if (shares.empty()) continue;
    shares.front().fraction += 0.25;  // sum is now 1.25
    tampered = true;
    break;
  }
  ASSERT_TRUE(tampered);
  const CertificateVerdict v = verify_certificate(
      s.graph, test_model(), s.cluster, bad, s.job_cap);
  EXPECT_FALSE(v.ok);
  const CertificateCheck* sw = find_check(v, "share-weights");
  ASSERT_NE(sw, nullptr);
  EXPECT_FALSE(sw->ok);
}

TEST(Certificate, WeakDualityCatchesUnderstatedObjective) {
  // Scale the whole time axis down 10%: primal feasibility breaks, and
  // even if precedence were somehow loose, the duals' Lagrangian bound
  // exceeds the claimed objective.
  const Solved s = solve_exchange();
  core::WindowedLpResult bad = s.result;
  bad.makespan *= 0.9;
  for (double& t : bad.vertex_time) t *= 0.9;
  const CertificateVerdict v = verify_certificate(
      s.graph, test_model(), s.cluster, bad, s.job_cap);
  EXPECT_FALSE(v.ok);
}

TEST(Certificate, GarbageDualsNeverCertifyFalsely) {
  // Corrupted duals may only *fail* verification (gap blows up), never
  // make a wrong objective pass: any y yields a valid lower bound.
  const Solved s = solve_exchange();
  core::WindowedLpResult bad = s.result;
  bad.makespan *= 0.9;
  for (double& t : bad.vertex_time) t *= 0.9;
  for (std::vector<double>& duals : bad.window_duals) {
    for (double& y : duals) y = -y * 3.0;
  }
  const CertificateVerdict v = verify_certificate(
      s.graph, test_model(), s.cluster, bad, s.job_cap);
  EXPECT_FALSE(v.ok);
}

TEST(Certificate, MissingDualsSkipOrFailPerOptions) {
  const Solved s = solve_exchange();
  core::WindowedLpResult nodual = s.result;
  nodual.window_duals.clear();

  CertificateOptions lenient;
  const CertificateVerdict ok = verify_certificate(
      s.graph, test_model(), s.cluster, nodual, s.job_cap, lenient);
  EXPECT_TRUE(ok.ok) << ok.detail;
  EXPECT_FALSE(ok.duality_checked);

  CertificateOptions strict;
  strict.require_duals = true;
  const CertificateVerdict fail = verify_certificate(
      s.graph, test_model(), s.cluster, nodual, s.job_cap, strict);
  EXPECT_FALSE(fail.ok);
}

TEST(Certificate, MalformedResultIsUncheckedNotCrash) {
  const Solved s = solve_exchange();
  core::WindowedLpResult mangled = s.result;
  mangled.vertex_time.resize(1);  // wrong cardinality
  const CertificateVerdict v = verify_certificate(
      s.graph, test_model(), s.cluster, mangled, s.job_cap);
  EXPECT_FALSE(v.ok);

  core::WindowedLpResult failed;
  failed.status = lp::SolveStatus::kNumericalError;
  const CertificateVerdict nf = verify_certificate(
      s.graph, test_model(), s.cluster, failed, s.job_cap);
  EXPECT_FALSE(nf.ok);
}

TEST(Certificate, NonFiniteShareFractionFailsTheVerdict) {
  // A NaN share is a malformed solution: it must fail share-weights,
  // not throw out of the weak-duality check's primal point.
  const Solved s = solve_exchange();
  core::WindowedLpResult bad = s.result;
  bool tampered = false;
  for (std::vector<core::ConfigShare>& shares : bad.schedule.shares) {
    if (shares.empty()) continue;
    shares.front().fraction = std::nan("");
    tampered = true;
    break;
  }
  ASSERT_TRUE(tampered);
  CertificateVerdict v;
  ASSERT_NO_THROW(v = verify_certificate(s.graph, test_model(), s.cluster,
                                         bad, s.job_cap));
  EXPECT_FALSE(v.ok);
  const CertificateCheck* sw = find_check(v, "share-weights");
  ASSERT_NE(sw, nullptr);
  EXPECT_FALSE(sw->ok);
}

TEST(CertificateChecker, ReusableAcrossCaps) {
  const Solved s = solve_exchange();
  const CertificateChecker checker(s.graph, test_model(), s.cluster);
  core::WindowSweeper sweeper(s.graph, test_model(), s.cluster);
  for (double scale : {1.1, 1.5, 2.0}) {
    const double cap = sweeper.min_feasible_power() * scale;
    const core::WindowedLpResult res = sweeper.solve({.power_cap = cap});
    ASSERT_TRUE(res.optimal());
    const CertificateVerdict v = checker.verify(res, cap, cap);
    EXPECT_TRUE(v.ok) << "cap scale " << scale << ": " << v.detail;
  }
}


// --- Golden verdicts ---------------------------------------------------
//
// Every CertificateVerdict field, with each double as its exact bits,
// for genuine solves of two paper workloads and for the tampered
// solutions above. The checker's arithmetic may change how it sums; it
// must never change a verdict, a violation, a detail or the gap.

std::string hex_bits(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string describe(const CertificateVerdict& v) {
  std::string out = "checked=" + std::to_string(v.checked) +
                    " ok=" + std::to_string(v.ok) +
                    " duality_checked=" + std::to_string(v.duality_checked) +
                    " max_violation=" + hex_bits(v.max_violation) +
                    " duality_gap=" + hex_bits(v.duality_gap) +
                    " detail=" + v.detail + "\n";
  std::string passed;
  for (const CertificateCheck& c : v.checks) {
    if (c.ok && c.violation == 0.0 && c.detail.empty()) {
      passed += " " + c.rule;
    } else {
      out += "fail " + c.rule + " ok=" + std::to_string(c.ok) +
             " violation=" + hex_bits(c.violation) + " detail=" + c.detail +
             "\n";
    }
  }
  return out + "pass" + passed + "\n";
}

struct GoldenCase {
  const char* name;
  std::function<CertificateVerdict()> verdict;
  const char* expected;
};

CertificateVerdict verify_workload(const dag::TaskGraph& g, double socket_w) {
  const machine::ClusterSpec cluster;
  const double cap = socket_w * g.num_ranks();
  core::WindowSweeper sweeper(g, test_model(), cluster);
  const core::WindowedLpResult res = sweeper.solve({.power_cap = cap});
  EXPECT_TRUE(res.optimal()) << socket_w << " W";
  return CertificateChecker(g, test_model(), cluster).verify(res, cap, cap);
}

CertificateVerdict verify_tampered(
    double cap_scale,
    const std::function<void(core::WindowedLpResult&)>& tamper,
    const CertificateOptions& options = {}) {
  const Solved s = solve_exchange(cap_scale);
  core::WindowedLpResult bad = s.result;
  tamper(bad);
  return verify_certificate(s.graph, test_model(), s.cluster, bad, s.job_cap,
                            options);
}

const dag::TaskGraph& comd_16x4() {
  static const dag::TaskGraph g =
      apps::make_comd({.ranks = 16, .iterations = 4, .seed = 17});
  return g;
}

const dag::TaskGraph& lulesh_8x12() {
  static const dag::TaskGraph g =
      apps::make_lulesh({.ranks = 8, .iterations = 12, .seed = 17});
  return g;
}

std::vector<GoldenCase> golden_cases() {
  return {
      {"comd-16x4-35W", [] { return verify_workload(comd_16x4(), 35); },
       "checked=1 ok=1 duality_checked=1 max_violation=0000000000000000 duality_gap=3cce6616fa995245 detail=\n"
       "pass structure frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
      {"comd-16x4-50W", [] { return verify_workload(comd_16x4(), 50); },
       "checked=1 ok=1 duality_checked=1 max_violation=0000000000000000 duality_gap=3cbbdf754ab243f7 detail=\n"
       "pass structure frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
      {"comd-16x4-80W", [] { return verify_workload(comd_16x4(), 80); },
       "checked=1 ok=1 duality_checked=1 max_violation=0000000000000000 duality_gap=0000000000000000 detail=\n"
       "pass structure frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
      {"lulesh-8x12-40W", [] { return verify_workload(lulesh_8x12(), 40); },
       "checked=1 ok=1 duality_checked=1 max_violation=0000000000000000 duality_gap=3cd06f9da30dee03 detail=\n"
       "pass structure frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
      {"lulesh-8x12-55W", [] { return verify_workload(lulesh_8x12(), 55); },
       "checked=1 ok=1 duality_checked=1 max_violation=0000000000000000 duality_gap=3ccc405d883b4bb8 detail=\n"
       "pass structure frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
      {"lulesh-8x12-80W", [] { return verify_workload(lulesh_8x12(), 80); },
       "checked=1 ok=1 duality_checked=1 max_violation=0000000000000000 duality_gap=3cb496451798c643 detail=\n"
       "pass structure frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
      {"exchange-genuine",
       [] { return verify_tampered(1.3, [](core::WindowedLpResult&) {}); },
       "checked=1 ok=1 duality_checked=1 max_violation=0000000000000000 duality_gap=3cd1d35899c44316 detail=\n"
       "pass structure frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
      {"noise-1e-9",
       [] {
         return verify_tampered(1.3, [](core::WindowedLpResult& r) {
           r.makespan -= 1e-9;
           r.vertex_time.back() -= 1e-9;
         });
       },
       "checked=1 ok=1 duality_checked=1 max_violation=0000000000000000 duality_gap=0000000000000000 detail=\n"
       "pass structure frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
      {"makespan-1e-3",
       [] {
         return verify_tampered(1.3, [](core::WindowedLpResult& r) {
           r.makespan -= 1e-3;
           r.vertex_time.back() -= 1e-3;
         });
       },
       "checked=1 ok=0 duality_checked=1 max_violation=3f50624dd2f1af9e duality_gap=0000000000000000 detail=[precedence] task 2 finishes 0.001 s before its duration allows\n"
       "fail precedence ok=0 violation=3f50624dd2f1af9e detail=task 2 finishes 0.001 s before its duration allows\n"
       "pass structure frontier-membership share-weights event-cap event-order objective weak-duality\n"},
      {"broken-precedence",
       [] {
         return verify_tampered(
             1.3, [](core::WindowedLpResult& r) { r.vertex_time[1] = 0.0; });
       },
       "checked=1 ok=0 duality_checked=1 max_violation=3fe38b89aaf5b59d duality_gap=3cd1d35899c44316 detail=[precedence] task 0 finishes 0.610783 s before its duration allows\n"
       "fail precedence ok=0 violation=3fe38b89aaf5b59d detail=task 0 finishes 0.610783 s before its duration allows\n"
       "pass structure frontier-membership share-weights event-cap event-order objective weak-duality\n"},
      {"share-tampering",
       [] {
         return verify_tampered(1.05, [](core::WindowedLpResult& r) {
           for (std::vector<core::ConfigShare>& shares : r.schedule.shares) {
             if (shares.size() < 2) continue;
             shares.front().fraction = 1.0;
             for (std::size_t k = 1; k < shares.size(); ++k) {
               shares[k].fraction = 0.0;
             }
             break;
           }
         });
       },
       "checked=1 ok=0 duality_checked=1 max_violation=3fb1e4d4d49eaf00 duality_gap=3cd097468a3f52cd detail=[precedence] task 0 finishes 0.0698979 s before its duration allows\n"
       "fail precedence ok=0 violation=3fb1e4d4d49eaf00 detail=task 0 finishes 0.0698979 s before its duration allows\n"
       "pass structure frontier-membership share-weights event-cap event-order objective weak-duality\n"},
      {"tampered-frontier",
       [] {
         return verify_tampered(1.3, [](core::WindowedLpResult& r) {
           for (std::vector<machine::Config>& f : r.frontiers) {
             if (f.empty()) continue;
             f.front().power *= 0.5;
             break;
           }
         });
       },
       "checked=1 ok=0 duality_checked=1 max_violation=0000000000000000 duality_gap=3cd1d35899c44316 detail=[frontier-membership] task 0 frontier point 0 differs from the machine model's frontier\n"
       "fail frontier-membership ok=0 violation=0000000000000000 detail=task 0 frontier point 0 differs from the machine model's frontier\n"
       "pass structure share-weights precedence event-cap event-order objective weak-duality\n"},
      {"share-sum-1.25",
       [] {
         return verify_tampered(1.3, [](core::WindowedLpResult& r) {
           for (std::vector<core::ConfigShare>& shares : r.schedule.shares) {
             if (shares.empty()) continue;
             shares.front().fraction += 0.25;
             break;
           }
         });
       },
       "checked=1 ok=0 duality_checked=1 max_violation=40178ee826c4b04e duality_gap=3cd1d35899c44316 detail=[share-weights] task 0 share weights sum to 1.25, not 1\n"
       "fail share-weights ok=0 violation=3fd0000000000001 detail=task 0 share weights sum to 1.25, not 1\n"
       "fail precedence ok=0 violation=3fc41f3526859b8c detail=task 0 finishes 0.157202 s before its duration allows\n"
       "fail event-cap ok=0 violation=40178ee826c4b04e detail=window 0 event 0 draws 52.6312 W, 5.88956 W over the cap\n"
       "pass structure frontier-membership event-order objective weak-duality\n"},
      {"understated-objective",
       [] {
         return verify_tampered(1.3, [](core::WindowedLpResult& r) {
           r.makespan *= 0.9;
           for (double& t : r.vertex_time) t *= 0.9;
         });
       },
       "checked=1 ok=0 duality_checked=1 max_violation=3fc6a1630020d29f duality_gap=0000000000000000 detail=[precedence] task 0 finishes 0.0610783 s before its duration allows\n"
       "fail precedence ok=0 violation=3fc6a1630020d29f detail=task 0 finishes 0.0610783 s before its duration allows\n"
       "pass structure frontier-membership share-weights event-cap event-order objective weak-duality\n"},
      {"garbage-duals",
       [] {
         return verify_tampered(1.3, [](core::WindowedLpResult& r) {
           r.makespan *= 0.9;
           for (double& t : r.vertex_time) t *= 0.9;
           for (std::vector<double>& duals : r.window_duals) {
             for (double& y : duals) y = -y * 3.0;
           }
         });
       },
       "checked=1 ok=0 duality_checked=1 max_violation=3fc6a1630020d29f duality_gap=402b3a9c057e9fbc detail=[precedence] task 0 finishes 0.0610783 s before its duration allows\n"
       "fail precedence ok=0 violation=3fc6a1630020d29f detail=task 0 finishes 0.0610783 s before its duration allows\n"
       "fail weak-duality ok=0 violation=402b3a9c057e9fbc detail=certified duality gap 29.1505 s exceeds 0.0001 relative tolerance\n"
       "pass structure frontier-membership share-weights event-cap event-order objective\n"},
      {"missing-duals-lenient",
       [] {
         return verify_tampered(
             1.3, [](core::WindowedLpResult& r) { r.window_duals.clear(); });
       },
       "checked=1 ok=1 duality_checked=0 max_violation=0000000000000000 duality_gap=0000000000000000 detail=\n"
       "pass structure frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
      {"missing-duals-strict",
       [] {
         CertificateOptions strict;
         strict.require_duals = true;
         return verify_tampered(
             1.3, [](core::WindowedLpResult& r) { r.window_duals.clear(); },
             strict);
       },
       "checked=1 ok=0 duality_checked=0 max_violation=0000000000000000 duality_gap=0000000000000000 detail=[weak-duality] solver provided no duals but require_duals is set\n"
       "fail weak-duality ok=0 violation=0000000000000000 detail=solver provided no duals but require_duals is set\n"
       "pass structure frontier-membership share-weights precedence event-cap event-order objective\n"},
      {"wrong-cardinality",
       [] {
         return verify_tampered(
             1.3, [](core::WindowedLpResult& r) { r.vertex_time.resize(1); });
       },
       "checked=1 ok=0 duality_checked=0 max_violation=0000000000000000 duality_gap=0000000000000000 detail=[structure] solution arrays do not match the trace's shape\n"
       "fail structure ok=0 violation=0000000000000000 detail=solution arrays do not match the trace's shape\n"
       "pass frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
      {"failed-solve",
       [] {
         return verify_tampered(1.3, [](core::WindowedLpResult& r) {
           r = core::WindowedLpResult{};
           r.status = lp::SolveStatus::kNumericalError;
         });
       },
       "checked=1 ok=0 duality_checked=0 max_violation=0000000000000000 duality_gap=0000000000000000 detail=[structure] solution status is not optimal\n"
       "fail structure ok=0 violation=0000000000000000 detail=solution status is not optimal\n"
       "pass frontier-membership share-weights precedence event-cap event-order objective weak-duality\n"},
  };
}

TEST(CertificateGolden, VerdictsMatchTheRecordedBits) {
  for (const GoldenCase& c : golden_cases()) {
    EXPECT_EQ(describe(c.verdict()), c.expected) << c.name;
  }
}

}  // namespace
}  // namespace powerlim::check
