/// \file main.cpp
/// \brief Runs one perfbench workload and prints its raw measurements as
/// one JSON document; `run.py` turns them into the benchmark's metrics.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--spans PATH]
///
/// Untraced (`--trace 0`): metrics recording and service timings are off.
/// The workload is set up once, timed from process start, and whole
/// passes over the fixed op list run on it: at least kMinPasses, and more
/// while the next one still fits in S seconds.  After each of the first
/// kMinPasses passes, kSetupsPerGap throw-away copies of the workload are
/// set up; the median of all set-ups is the set-up time.
///
/// Traced (`--trace 1`): the same set-ups (with spans) around two untraced
/// passes, one traced pass (metrics on, service timings on, spans on) and
/// the re-runs the per-layer split needs, each alternated with untraced
/// passes: the data plane with repair off, and the pool-width comparison
/// on ira_binding_n128 and dataplane_grid_40k.

#include <sys/resource.h>

#include <memory>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::OpOutcome;
using perfbench::PassResult;

/// Passes per untraced run at the least, so that ops_per_s is a median of
/// three.
constexpr std::size_t kMinPasses = 3;
/// Set-ups after each of the first kMinPasses passes.  Spread over the
/// run, they let a slow spell on the host slow a few set-ups and not
/// their median.
constexpr std::size_t kSetupsPerGap = 3;

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\nworkloads:";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Ops as parallel arrays (compact for the service's thousands of ops).
void write_pass(std::ostream& os, const std::vector<PassResult>& passes) {
  std::vector<const OpOutcome*> ops;
  double wall_ms = 0.0;
  for (const PassResult& p : passes) {
    wall_ms += p.wall_ms;
    for (const OpOutcome& op : p.ops) ops.push_back(&op);
  }
  auto column = [&](const char* key, auto field) {
    os << ", \"" << key << "\": [";
    for (std::size_t i = 0; i < ops.size(); ++i) {
      os << (i ? ", " : "") << field(*ops[i]);
    }
    os << ']';
  };
  os << "{\"passes\": " << passes.size() << ", \"wall_ms\": " << wall_ms
     << ", \"pass_wall_ms\": [";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    os << (i ? ", " : "") << passes[i].wall_ms;
  }
  os << ']';
  column("ms", [](const OpOutcome& o) { return o.ms; });
  column("ok", [](const OpOutcome& o) { return o.ok ? 1 : 0; });
  column("wrong", [](const OpOutcome& o) { return o.wrong ? 1 : 0; });
  column("has_tree", [](const OpOutcome& o) { return o.has_tree ? 1 : 0; });
  column("reliability", [](const OpOutcome& o) { return o.reliability; });
  column("lc_met", [](const OpOutcome& o) { return o.lc_met ? 1 : 0; });
  column("delivery", [](const OpOutcome& o) { return o.delivery; });
  column("rounds", [](const OpOutcome& o) { return o.rounds; });
  column("repairs", [](const OpOutcome& o) { return o.repairs; });
  column("queue_ms", [](const OpOutcome& o) { return o.queue_ms; });
  column("solve_ms", [](const OpOutcome& o) { return o.solve_ms; });
  column("cache_hit", [](const OpOutcome& o) { return o.cache_hit ? 1 : 0; });
  long long hits = 0;
  long long leases = 0;
  for (const PassResult& p : passes) {
    hits += p.cache_hits;
    leases += p.pool_leases;
  }
  os << ", \"cache_hits\": " << hits << ", \"pool_leases\": " << leases;
  os << ", \"errors\": [";
  bool first = true;
  for (const OpOutcome* op : ops) {
    if (op->error.empty()) continue;
    os << (first ? "" : ", ") << json_string(op->error);
    first = false;
  }
  os << "]}";
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") workload = value;
      else if (arg == "--seed") seed = std::stoull(value);
      else if (arg == "--seconds") seconds = std::stod(value);
      else if (arg == "--trace") trace = std::stoi(value);
      else if (arg == "--spans") spans_path = value;
      else usage();
    } catch (const std::exception&) {
      usage();
    }
  }
  if (!perfbench::make_workload(workload) || seconds < 0.0 ||
      (trace != 0 && trace != 1)) {
    usage();
  }

  // Metrics are on by default in the library; the untraced run turns
  // them off, and the traced pass turns them on only while it runs.
  mrlc::metrics::set_enabled(false);
  perfbench::SpanLog spans;
  perfbench::SpanLog* span_log = trace ? &spans : nullptr;

  // Times the set-up of a new copy of the workload.  A copy the caller
  // discards is torn down after its timing ends.
  std::vector<double> setup_s;
  auto set_up = [&](Clock::time_point t0) {
    auto fresh = perfbench::make_workload(workload);
    {
      perfbench::ScopedSpan span(span_log, "setup");
      fresh->setup(seed, span_log);
      fresh->warm_up();
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    return fresh;
  };
  const std::unique_ptr<perfbench::Workload> w = set_up(process_start);

  // Traced runs make two untraced passes: the first after set-up reads
  // slow, and the second is the one the traced pass is compared with.
  const std::size_t min_passes = trace ? 2 : kMinPasses;
  std::vector<PassResult> timed;
  const auto measure_start = Clock::now();
  auto next_pass_fits = [&] {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - measure_start).count();
    return elapsed + timed.back().wall_ms / 1000.0 <= seconds;
  };
  do {
    timed.push_back(w->run_pass({}));
    if (timed.size() <= kMinPasses) {
      for (std::size_t k = 0; k < kSetupsPerGap; ++k) set_up(Clock::now());
    }
  } while (timed.size() < min_passes || (!trace && next_pass_fits()));

  std::ostringstream traced_json;
  if (trace) {
    mrlc::metrics::reset();
    mrlc::metrics::set_enabled(true);
    std::vector<PassResult> traced{w->run_pass({&spans})};
    const std::string metrics_json = mrlc::metrics::to_json_string();
    mrlc::metrics::set_enabled(false);
    traced_json << ", \"traced\": ";
    write_pass(traced_json, traced);
    traced_json << ", \"metrics\": " << metrics_json;

    // Re-runs through the same entry point, alternated with untraced
    // passes at the workload's own settings so that run.py can compare the
    // fastest pass of each side (robust to a slow spell on the host).
    std::vector<PassResult> baseline = timed;
    traced_json << ", \"reruns\": {";
    auto rerun = [&](const std::string& key, const perfbench::RunConfig& config) {
      std::vector<PassResult> other;
      for (int k = 0; k < 3; ++k) {
        other.push_back(w->run_pass(config));
        baseline.push_back(w->run_pass({}));
      }
      traced_json << '"' << key << "\": ";
      write_pass(traced_json, other);
      traced_json << ", ";
    };
    if (workload == "ira_binding_n128" || workload == "dataplane_grid_40k") {
      perfbench::RunConfig config;
      config.width = w->pool_width() == 1 ? 4 : 1;
      rerun("width" + std::to_string(config.width), config);
    }
    if (workload.rfind("dataplane_", 0) == 0) {
      perfbench::RunConfig config;
      config.repair_off = true;
      rerun("repair_off", config);
    }
    traced_json << "\"baseline\": ";
    write_pass(traced_json, baseline);
    traced_json << '}';
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      spans.write_jsonl(out);
      if (!out) {
        std::cerr << "perfbench: cannot write " << spans_path << '\n';
        return 1;
      }
    }
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::cout.precision(std::numeric_limits<double>::max_digits10);
  std::cout << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
            << ", \"seconds\": " << seconds << ", \"trace\": " << trace
            << ", \"pool_width\": " << w->pool_width()
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"sanitize\": " << json_string(PERFBENCH_SANITIZE)
            << ", \"ndebug\": " << (ndebug ? "true" : "false")
            << ", \"peak_rss_kb\": " << usage_now.ru_maxrss << ", \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    std::cout << (i ? ", " : "") << setup_s[i];
  }
  std::cout << "], \"timed\": ";
  write_pass(std::cout, timed);
  std::cout << traced_json.str() << "}\n";
  return 0;
}
