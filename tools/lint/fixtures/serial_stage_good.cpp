// Known-good fixture: the step queue is mutated only from allowlisted
// serial calls; class-scope default initializers are exempt. serial-stage
// must stay silent here.
#include <cstddef>
#include <deque>

namespace fx {
class SyncSession {
 public:
  void enqueue_round(int work) { queue_.push_back(work); }
  void enqueue_scheduled_cycles(std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) ++next_scheduled_cycle_;
  }
  void step() { queue_.pop_front(); }
  void clear_pending() { queue_.clear(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  std::deque<int> queue_;
  std::size_t next_scheduled_cycle_ = 0;  // class-scope initializer: exempt
};
}  // namespace fx
