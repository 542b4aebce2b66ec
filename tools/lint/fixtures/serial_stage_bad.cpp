// Known-bad fixture: a session's step queue mutated outside its
// serial-step allowlist must trip serial-stage (the selftest lints this
// file as if it were src/server/aggregation_server.h).
#include <cstddef>
#include <deque>

namespace fx {
class SyncSession {
 public:
  void enqueue_round(int work) { queue_.push_back(work); }
  void step() { queue_.pop_front(); }
  void run_round() { queue_.clear(); }          // BAD: runs inside a step
  void advance() { ++next_scheduled_cycle_; }  // BAD: not a serial call

 private:
  std::deque<int> queue_;
  std::size_t next_scheduled_cycle_ = 0;
};
}  // namespace fx
