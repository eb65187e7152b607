// hlsw_perfbench — the repo benchmark's driver. One process runs one
// workload for one seed and prints, as its last stdout line, the JSON
// result the BENCHMARK.json contract asks for. Normally launched through
// perfbench/run.py, which builds this binary from the source tree first:
//
//   hlsw_perfbench --workload explore_cold|regress_sweep|serve_mix
//                  --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--source-id ID]
//
// Tracing off prints the end-to-end metrics; tracing on re-runs the same
// work through the layers' public constituents under spans and prints the
// per-layer ledger, writing the spans to DIR/trace-<workload>-<seed>.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "hlsw_perfbench: %s\nusage: hlsw_perfbench --workload "
               "explore_cold|regress_sweep|serve_mix --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--source-id ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
      have_seconds = a.seconds > 0;
    } else if (k == "--trace") {
      a.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--source-id") {
      a.source_id = v;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!have_seed || !have_seconds || !have_trace || a.work_dir.empty())
    return usage("--seed, --seconds, --trace and --work-dir are required");

  std::filesystem::create_directories(a.work_dir);
  pb::own_codegen_cache(a);
  const hlsw::obs::Json host = pb::host_identity(a);
  a.host_json = host.dump();
  std::printf("host %s\n", a.host_json.c_str());
  std::fflush(stdout);

  pb::Report r;
  try {
    if (a.workload == "explore_cold") {
      pb::run_explore_cold(a, &r);
    } else if (a.workload == "regress_sweep") {
      pb::run_regress_sweep(a, &r);
    } else if (a.workload == "serve_mix") {
      pb::run_serve_mix(a, &r);
    } else {
      return usage(("unknown workload " + a.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hlsw_perfbench: %s aborted: %s\n",
                 a.workload.c_str(), e.what());
    return 1;
  }

  // Layers a workload does not exercise read 0 (the predicted value).
  for (const auto& m : pb::per_layer_metrics())
    if (a.trace && !r.has(m.name)) r.set(m.name, 0.0, m.unit);
  const auto& decl =
      a.trace ? pb::per_layer_metrics() : pb::end_to_end_metrics();
  for (const auto& m : decl)
    if (!r.has(m.name)) {
      std::fprintf(stderr, "hlsw_perfbench: metric %s was not measured\n",
                   m.name);
      return 1;
    }

  std::printf("workload %s seed %llu trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
  for (const auto& line : r.lines) std::printf("  %s\n", line.c_str());
  for (const auto& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("attempted %lld failed %lld failed_share %.6g\n", r.attempted,
              r.failed,
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0);

  std::string json = "{\"correct\": ";
  json += (r.failed == 0 && r.attempted > 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : decl) {
    for (const auto& [name, vu] : r.metrics) {
      if (name != m.name) continue;
      char buf[128];
      std::snprintf(buf, sizeof buf, "%.17g", vu.first);
      json += std::string(first ? "" : ", ") + "\"" + name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
