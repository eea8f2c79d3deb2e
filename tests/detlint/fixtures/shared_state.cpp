// detlint fixture: rule `shared-state` (process-global mutable state).
//
// Every Simulation in a process would share these, so two runs side by side
// (or on two threads) would stop being independent. Each one is reported.
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace moon {
namespace {

std::atomic<int> g_level{0};                 // finding: braced initializer
std::mutex g_mutex;                          // finding
std::function<double()> g_clock;             // finding: parens inside <>
const char* g_name = "sink";                 // finding: pointer to const

}  // namespace

int g_counter = 0;                           // finding
extern std::map<int, std::string> g_names;   // finding: declaration too

int next_id() {
  static int next = 0;                       // finding: static local
  return ++next;
}

struct Registry {
  static std::string last_name;              // finding: static data member
  static const char* default_name() {
    static std::string cache;                // finding: static local
    return cache.c_str();
  }
};

}  // namespace moon
