// perfbench — the repository benchmark's measuring program. perfbench/run.py
// builds it and passes the reference digests; run it directly as
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expect <instance>[;<instance>...]] [--threads <n>]
//             [--work-dir <dir>] [--digest-only]
//
// --trace 0 runs planned_instances() instances of the workload, each with a
// fresh set-up on its own derived inputs, and prints the end-to-end metrics;
// --trace 1 makes the traced run of instance 0 and prints the per-layer
// metrics. --expect gives the reference digests: per instance, one digest
// per tenant joined by ','; instances joined by ';'. --digest-only runs the
// instances untimed and prints their digests in that form (how references
// are recorded). The last stdout line is always the JSON result.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// A run that takes longer than kOverrun times --seconds stops after the
// instance in progress (slow hosts only).
constexpr double kOverrun = 1.25;

struct Args {
  Workload workload{};
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool digest_only = false;
  std::vector<std::vector<std::string>> expect;  ///< per instance, per tenant
  Options opts;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <search-a2c-combo|search-a3c-nt3|"
               "serve-sliced-nt3> --seed <n> --seconds <s> --trace <0|1> [--expect a,b;c,d]"
               " [--threads <n>] [--work-dir <dir>] [--digest-only]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  a.opts.work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        const auto w = parse_workload(value());
        if (!w) usage("unknown workload");
        a.workload = *w;
        have_workload = true;
      } else if (arg == "--seed") {
        a.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
      } else if (arg == "--trace") {
        a.trace = value() == "1";
      } else if (arg == "--threads") {
        a.opts.threads = std::stoul(value());
      } else if (arg == "--work-dir") {
        a.opts.work_dir = value();
      } else if (arg == "--expect") {
        std::stringstream instances(value());
        for (std::string inst; std::getline(instances, inst, ';');) {
          std::stringstream tenants(inst);
          a.expect.emplace_back();
          for (std::string d; std::getline(tenants, d, ',');) a.expect.back().push_back(d);
        }
      } else if (arg == "--digest-only") {
        a.digest_only = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<LayerMetric>& m) {
  std::ostringstream os;
  os << std::setprecision(15);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    os << (i ? ", " : "") << '"' << m[i].name << "\": {\"value\": " << m[i].value
       << ", \"unit\": \"" << m[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

std::vector<std::string> expected_for(const Args& a, std::size_t instance) {
  return instance < a.expect.size() ? a.expect[instance] : std::vector<std::string>{};
}

// One timed instance, as measured in its own child process. The defaults
// describe a child that died before reporting: one failed attempt.
struct Instance {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::size_t evals = 0;
  std::size_t attempted = 1;
  std::size_t failed = 1;
  std::vector<double> step_ms;
  std::string digests;  ///< space-separated, per tenant (or the error)
  double peak_rss_mb = 0.0;
};

// Runs instance i in a forked child, so its peak resident memory is its own
// (from wait4) and it starts from a fresh heap, as a user's search process
// would. The parent has no threads when it forks: pools live in the child.
Instance run_instance(const Args& a, std::size_t i) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // The instance must not outlive the benchmark if the benchmark is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    std::ostringstream os;
    os << std::setprecision(17);
    try {
      auto setup = make_setup(a.workload, derive_seeds(a.seed, i), a.opts, static_cast<int>(i));
      const double setup_s = setup->setup_s;
      RunOutcome out = run_workload(*setup);
      setup.reset();
      const std::size_t failed = check_outcome(out, expected_for(a, i), a.opts.work_dir);
      os << setup_s << ' ' << out.run_s << ' ' << out.evals() << ' ' << out.tenants.size() << ' '
         << failed << '\n' << out.step_ms.size();
      for (const double ms : out.step_ms) os << ' ' << ms;
      os << '\n';
      for (const TenantRun& t : out.tenants) {
        std::string error = t.error;
        std::replace(error.begin(), error.end(), ' ', '_');
        os << (t.ok ? t.digest : error) << ' ';
      }
    } catch (const std::exception& e) {
      os.str("");
      std::string error = e.what();
      std::replace(error.begin(), error.end(), ' ', '_');
      os << "0 0 0 1 1\n0\n" << error;
    }
    const std::string text = os.str();
    for (std::size_t done = 0; done < text.size();) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) text.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  int status = 0;
  rusage ru{};
  wait4(pid, &status, 0, &ru);
  Instance r;
  std::istringstream in(text);
  std::size_t steps = 0;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
      in >> r.setup_s >> r.run_s >> r.evals >> r.attempted >> r.failed >> steps) {
    r.step_ms.resize(steps);
    for (double& ms : r.step_ms) in >> ms;
    in >> std::ws;
    std::getline(in, r.digests);
  } else {
    r = Instance{};
    r.digests = "instance process died";
  }
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return r;
}

int digest_only(const Args& a) {
  std::size_t failed = 0;
  std::string list;
  for (std::size_t i = 0; i < planned_instances(a.workload, a.seconds); ++i) {
    const Instance r = run_instance(a, i);
    failed += r.failed;
    std::string digests = r.digests;
    while (!digests.empty() && digests.back() == ' ') digests.pop_back();
    std::replace(digests.begin(), digests.end(), ' ', ',');
    list += (i ? ";" : "") + digests;
  }
  std::cout << "{\"workload\": \"" << workload_name(a.workload) << "\", \"seed\": " << a.seed
            << ", \"failed\": " << failed << ", \"digests\": \"" << list << "\"}" << std::endl;
  return failed == 0 ? 0 : 1;
}

int timed(const Args& a) {
  std::vector<double> setup_s, round_ms, rss_mb;
  double evals = 0.0, run_s = 0.0;
  std::size_t attempted = 0, failed = 0, checked = 0, instances = 0;
  const std::size_t planned = planned_instances(a.workload, a.seconds);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < planned; ++i) {
    const Instance r = run_instance(a, i);
    ++instances;
    checked += expected_for(a, i).empty() ? 0 : 1;
    setup_s.push_back(r.setup_s);
    rss_mb.push_back(r.peak_rss_mb);
    failed += r.failed;
    attempted += r.attempted;
    evals += static_cast<double>(r.evals);
    run_s += r.run_s;
    if (r.step_ms.empty()) {
      round_ms.push_back(r.run_s * 1e3);
    } else {
      round_ms.insert(round_ms.end(), r.step_ms.begin(), r.step_ms.end());
    }
    std::cout << "instance " << i << ": " << r.evals << " evals in " << r.run_s << " s ("
              << static_cast<double>(r.evals) / r.run_s << " evals/s), set-up " << r.setup_s
              << " s, peak RSS " << r.peak_rss_mb << " MiB, failures " << r.failed
              << ", digests " << r.digests << '\n';
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (i + 1 >= 2 && i + 1 < planned && elapsed > kOverrun * a.seconds) {
      std::cout << "stopping after " << i + 1 << " of " << planned << " instances: "
                << elapsed << " s elapsed\n";
      break;
    }
  }

  const TailPercentile tail = tail_percentile(round_ms);
  std::cout << "round latency: " << round_ms.size() << " samples, "
            << samples_beyond(round_ms.size(), 0.95) << " beyond p95";
  if (tail.q > 0) {
    std::cout << "; highest percentile with >= 10 beyond: p" << tail.q * 100 << " = "
              << tail.value << " ms";
  } else {
    std::cout << "; fewer than 11 samples, so no percentile has 10 beyond it";
  }
  std::cout << "\nreference digests: " << checked << " of " << instances
            << " instances checked against a recorded digest";
  std::cout << "\nfailed_share: " << failed << "/" << attempted << '\n';
  print_result(failed == 0, attempted, failed,
               {{"setup_s", median(setup_s), "s", "", ""},
                {"evals_per_s", run_s > 0 ? evals / run_s : 0.0, "1/s", "", ""},
                {"round_p50_ms", percentile(round_ms, 0.5), "ms", "", ""},
                // A search run has one round per instance: p95 falls back
                // to the median there (serve runs have hundreds of rounds).
                {"round_p95_ms", p95_or_median(round_ms), "ms", "", ""},
                {"peak_rss_mb", median(rss_mb), "MiB", "", ""}});
  return 0;
}

int traced(const Args& a) {
  const TracedReport r = run_traced(a.workload, a.seed, a.opts, expected_for(a, 0));
  std::cout << std::left << std::setw(26) << "metric" << std::setw(14) << "value"
            << std::setw(9) << "unit" << std::setw(44) << "base" << "moves\n";
  for (const LayerMetric& lm : r.metrics) {
    std::ostringstream v;
    v << std::setprecision(6) << lm.value;
    std::cout << std::setw(26) << lm.name << std::setw(14) << v.str() << std::setw(9) << lm.unit
              << std::setw(44) << (lm.base.empty() ? "-" : lm.base) << lm.target << '\n';
  }
  std::cout << std::right << "span self time (ms):";
  for (const auto& [name, ms] : r.span_self_ms) std::cout << ' ' << name << '=' << ms;
  std::cout << '\n';
  const double overhead =
      r.traced_evals_per_s > 0 ? r.untraced_evals_per_s / r.traced_evals_per_s - 1.0 : 0.0;
  std::cout << std::right << "tracing overhead: untraced " << r.untraced_evals_per_s
            << " evals/s, traced " << r.traced_evals_per_s << " evals/s ("
            << std::setprecision(3) << overhead * 100 << "% slower traced)\n"
            << "spans: " << r.trace_path << '\n'
            << "failed_share: " << r.failed << "/" << r.attempted << '\n';
  print_result(r.failed == 0, r.attempted, r.failed, r.metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    std::filesystem::create_directories(a.opts.work_dir);
    if (a.digest_only) return digest_only(a);
    return a.trace ? traced(a) : timed(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
