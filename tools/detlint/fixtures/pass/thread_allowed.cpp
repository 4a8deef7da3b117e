// Fixture: the sanctioned shape for threading outside the job-runner
// allowlist — a single annotated primitive declaration whose reason names
// what it guards, plus lock sites that mention the type only in template-
// argument position (never flagged; the declaration is the containment
// point). This file must lint clean and the annotation must register.
#include <mutex>
#include <vector>

namespace fixture {

class Registry {
 public:
  void add(int v) {
    const std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(v);
  }

  std::vector<int> snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return values_;
  }

 private:
  // p4u-detlint: allow(thread-containment) fixture: registry guard shared by worker threads; protects values_ only
  mutable std::mutex mu_;
  std::vector<int> values_;
};

}  // namespace fixture
