// Open-loop HTTP load generator: one thread, a fixed set of keep-alive
// connections to 127.0.0.1, and a seeded arrival schedule. A request is
// timed from when it was *due* to the last byte of its response, so a
// stall (every connection busy, or a slow server) is charged to every
// request it delays. At most one request is outstanding per connection;
// a due request that finds every connection busy waits in the backlog.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// One scheduled request. `due_s` is relative to the phase start.
struct Arrival {
  double due_s = 0.0;
  bool update = false;  // POST /update (else GET /search)
  uint32_t item = 0;    // caller's index (query or update batch)
};

/// What happened to one scheduled request.
struct Completion {
  uint32_t arrival = 0;   // index into the schedule
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;    // last response byte (or failure)
  int status = 0;         // HTTP status; 0 = connection error / timeout
  std::string body;
  double latency_ms() const { return (done_s - due_s) * 1e3; }
};

struct PhaseStats {
  size_t backlog_peak = 0;    // due requests waiting for a connection
  size_t backlog_at_end = 0;  // still waiting when the last arrival was due
  bool aborted = false;       // backlog passed max_backlog; rest not sent
  std::vector<double> late_ms;  // seen - due, per request
};

class LoadGen {
 public:
  /// Builds the wire bytes of scheduled request `a` (index `i`).
  using WireFn = std::function<std::string(const Arrival& a, uint32_t i)>;

  /// While Run executes, the calling thread is pinned to `cpus` (empty:
  /// left as is), so the generator never shares a CPU with the server.
  LoadGen(uint16_t port, int connections, std::vector<int> cpus);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Runs `schedule` (sorted by due_s) to completion. Requests still
  /// unanswered `drain_s` after the last arrival was due fail with status
  /// 0. Every request sent yields exactly one Completion, in completion
  /// order. When more than `max_backlog` (0 = no limit) due requests wait
  /// for a connection, the phase is aborted: those not yet sent are dropped
  /// unattempted.
  PhaseStats Run(const std::vector<Arrival>& schedule, const WireFn& build,
                 std::vector<Completion>* out, double drain_s,
                 size_t max_backlog);

 private:
  struct Conn {
    int fd = -1;
    bool busy = false;
    std::string out;    // unsent request bytes
    size_t out_off = 0;
    std::string in;     // response bytes read so far
    Completion done;
  };
  bool Open(Conn* c);
  void Close(Conn* c);
  /// Returns true when `c->in` holds a complete response; fills status and
  /// body and keeps trailing bytes (there are none: one request in flight).
  bool ParseResponse(Conn* c, int* status, std::string* body);

  uint16_t port_;
  std::vector<Conn> conns_;
  std::vector<int> cpus_;
};

/// Restricts the calling thread to `cpus` (no-op when empty).
void PinThread(const std::vector<int>& cpus);

/// CPUs this thread may run on.
std::vector<int> AllowedCpus();

/// Percent-encodes `s` for a URL query component.
std::string UrlEncode(const std::string& s);

/// Arrival offsets of a Poisson process of `rate_per_s` over [0,
/// duration_s), from `seed`.
std::vector<double> PoissonArrivals(double rate_per_s, double duration_s,
                                    uint64_t seed);

/// A Poisson process conditioned on exactly `n` arrivals in [0,
/// duration_s): `n` sorted uniform offsets, from `seed`.
std::vector<double> CountedArrivals(size_t n, double duration_s,
                                    uint64_t seed);

}  // namespace perfbench
