// detlint fixture: rule `shared-state`, the forms it must leave alone —
// zero findings expected.
//
// Read-only tables, functions, types, members and ordinary locals are not
// shared mutable state, whatever braces, templates or lambdas they use.
#include <array>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace moon {
namespace {

constexpr int kSlots = 4;
const std::map<int, std::string> kNames = {{1, "one"}, {2, "two"}};
const char* const kSinkName = "sink";
constexpr std::array<std::string_view, 2> kLevels{"info", "warn"};

int twice(int x) { return 2 * x; }

}  // namespace

inline namespace v1 {
constexpr int kVersion = 1;
}  // namespace v1

int sum(const std::vector<int>& xs);
using Table = std::map<int, int>;
enum class Mode { kOff, kOn };

struct Counter {
  Counter() : count_{0}, names_{} {}
  explicit Counter(int start) : count_(start) {}
  Counter& operator=(const Counter& other) {
    count_ = other.count_;
    return *this;
  }
  static constexpr int kMax = 8;
  static Counter make(int start) { return Counter{start}; }
  int bump() {
    int local = count_ + 1;
    std::vector<int> seen{local};
    auto add = [&](int x) { count_ += x; };
    add(twice(local));
    static const std::map<int, int> kSteps = {{0, 1}};
    static constexpr std::string_view kTag = "bump";
    return count_ + static_cast<int>(seen.size() + kSteps.size() + kTag.size());
  }
  int count_;
  std::vector<std::string> names_;
};

template <typename T>
T clamp_to_slots(T x) {
  return x < kSlots ? x : T{kSlots};
}

}  // namespace moon
