// The benchmark binary. perfbench/run.py builds and runs it:
//
//   perfbench --workload sweep-comd --seed 1 --seconds 30 --trace 0
//             --work-dir DIR --reference perfbench/reference.txt
//             [--spans FILE] [--trace-seed 17]
//   perfbench --write-reference [--trace-seed 17]
//
// The last line of stdout is the JSON result; see perfbench/README.md.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

/// Removes the run's work directory on every exit path.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {}
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

 private:
  std::string path_;
};

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --reference FILE [--spans FILE] "
               "[--trace-seed N]\n"
               "       perfbench --write-reference [--trace-seed N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool write_reference = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--write-reference") {
        write_reference = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--trace-seed") {
        opt.trace_seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = v == "1";
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else if (a == "--reference") {
        opt.reference_path = v;
      } else if (a == "--spans") {
        opt.spans_path = v;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (write_reference) {
    std::cout << perfbench::reference_lines(opt.trace_seed);
    return 0;
  }
  if (opt.workload.empty() || opt.work_dir.empty() || opt.seconds <= 0.0) {
    return usage();
  }
  opt.work_dir += "/" + opt.workload + "-" + std::to_string(::getpid());
  if (opt.spans_path.empty()) opt.spans_path = opt.work_dir + ".spans.json";
  const WorkDir work_dir(opt.work_dir);
  try {
    if (opt.workload == perfbench::kServeWorkload) {
      return perfbench::run_serve(opt);
    }
    return perfbench::run_sweep(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
