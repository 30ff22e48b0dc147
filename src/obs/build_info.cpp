#include "obs/build_info.h"

#include <fstream>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "support/json.h"

#if __has_include("mcr_build_info_gen.h")
#include "mcr_build_info_gen.h"
#else  // built without CMake (e.g. a direct compiler invocation)
#define MCR_BUILD_GIT_SHA "unknown"
#define MCR_BUILD_COMPILER "unknown"
#define MCR_BUILD_FLAGS ""
#define MCR_BUILD_TYPE "unknown"
#endif

namespace mcr::obs {

namespace {

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "";
  return line;
}

std::string detect_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (in && std::getline(in, line)) {
    const std::string_view sv(line);
    if (sv.rfind("model name", 0) == 0) {
      const auto colon = sv.find(':');
      if (colon != std::string_view::npos) {
        auto value = sv.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        return std::string(value);
      }
    }
  }
  return "unknown";
}

BuildInfo compute() {
  BuildInfo info;
  info.git_sha = MCR_BUILD_GIT_SHA;
  info.compiler = MCR_BUILD_COMPILER;
  info.flags = MCR_BUILD_FLAGS;
  info.build_type = MCR_BUILD_TYPE;
  info.cpu_model = detect_cpu_model();
  const std::string governor =
      first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  info.governor = governor.empty() ? "unknown" : governor;
  info.hardware_threads = static_cast<int>(std::thread::hardware_concurrency());
  return info;
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = compute();
  return info;
}

void export_build_info(MetricsRegistry& metrics) {
  const BuildInfo& b = build_info();
  metrics
      .gauge(labeled_name("mcr_build_info",
                          {{"git_sha", b.git_sha},
                           {"compiler", b.compiler},
                           {"flags", b.flags},
                           {"build_type", b.build_type},
                           {"cpu_model", b.cpu_model},
                           {"governor", b.governor}}))
      .set(1);
}

std::string version_string(const std::string& tool) {
  const BuildInfo& b = build_info();
  std::string out = tool + " (mcr toolkit)\n";
  out += "  git sha:    " + b.git_sha + "\n";
  out += "  compiler:   " + b.compiler + "\n";
  out += "  build type: " + b.build_type + "\n";
  out += "  flags:      " + b.flags + "\n";
  return out;
}

std::string build_info_json() {
  const BuildInfo& b = build_info();
  std::string out = "{";
  const auto field = [&](const char* key, const std::string& value) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += key;
    out += "\":\"";
    json::append_escaped(out, value);
    out += '"';
  };
  field("git_sha", b.git_sha);
  field("compiler", b.compiler);
  field("flags", b.flags);
  field("build_type", b.build_type);
  field("cpu_model", b.cpu_model);
  field("governor", b.governor);
  out += ",\"hardware_threads\":" + std::to_string(b.hardware_threads) + "}";
  return out;
}

}  // namespace mcr::obs
