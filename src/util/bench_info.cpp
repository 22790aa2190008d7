#include "util/bench_info.hpp"

#include <algorithm>
#include <ctime>
#include <fstream>
#include <sstream>

#ifdef __unix__
#include <sys/utsname.h>
#endif

#include "util/thread_pool.hpp"

namespace mvs::util {

namespace {

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string trim(std::string s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  s.erase(s.begin(), std::find_if_not(s.begin(), s.end(), is_space));
  s.erase(std::find_if_not(s.rbegin(), s.rend(), is_space).base(), s.end());
  return s;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return trim(line.substr(colon + 1));
    }
  }
  return {};
}

/// Resolve a symbolic ref ("refs/heads/main") inside `git_dir`, consulting
/// loose refs first and packed-refs as fallback.
std::string resolve_ref(const std::string& git_dir, const std::string& ref) {
  const std::string loose = trim(read_text_file(git_dir + "/" + ref));
  if (!loose.empty()) return loose;
  std::ifstream packed(git_dir + "/packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '^') continue;
    const auto space = line.find(' ');
    if (space != std::string::npos && line.substr(space + 1) == ref)
      return line.substr(0, space);
  }
  return {};
}

}  // namespace

MachineInfo machine_info() {
  MachineInfo info;
#ifdef __unix__
  utsname u{};
  if (uname(&u) == 0) info.os = std::string(u.sysname) + " " + u.release;
#endif
  info.cpu = cpu_model();
  info.hardware_threads = static_cast<unsigned>(usable_cpu_count());
  return info;
}

std::string git_revision(const std::string& start_dir) {
  std::string dir = start_dir;
  for (int depth = 0; depth < 16; ++depth) {
    const std::string head = trim(read_text_file(dir + "/.git/HEAD"));
    if (!head.empty()) {
      std::string rev = head;
      if (head.rfind("ref: ", 0) == 0)
        rev = resolve_ref(dir + "/.git", trim(head.substr(5)));
      if (rev.size() >= 12) return rev.substr(0, 12);
      return rev;
    }
    dir += "/..";
  }
  return {};
}

Json bench_env_json() {
  const MachineInfo info = machine_info();
  Json::Object env;
  env["os"] = Json(info.os);
  env["cpu"] = Json(info.cpu);
  env["hardware_threads"] = Json(static_cast<int>(info.hardware_threads));
#ifdef MVS_BUILD_TYPE
  env["build_type"] = Json(MVS_BUILD_TYPE);
#else
  env["build_type"] = Json("unknown");
#endif
  env["git_rev"] = Json(git_revision());
  env["generated_unix"] =
      Json(static_cast<double>(std::time(nullptr)));
  return Json(std::move(env));
}

}  // namespace mvs::util
